"""Phenotype vocabulary: schema types, built-in lists, and the feature-column index.

A phenotype list groups candidate phenotypes into categories. Each category is
extracted with its own prompt, and each phenotype becomes one binary feature
column. Two built-in lists ship with the package: ``list1`` (coarse indicator
categories) and ``list2`` (fine-grained cognitive/behavioral symptoms), plus
their concatenation ``combined``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .artifacts import data_path, read_json
from .errors import SchemaError

BUILTIN_LIST_IDS = ("list1", "list2", "combined")

# Few-shot blocks stay short so prompts fit comfortably in one request.
MAX_FEW_SHOT_EXAMPLES = 3


@dataclass(frozen=True)
class Phenotype:
    """One extractable finding. ``id`` is the stable column identifier."""

    id: str
    display_name: str
    aliases: tuple[str, ...] = ()


@dataclass(frozen=True)
class FewShotExample:
    note_excerpt: str
    expected_output: str


@dataclass(frozen=True)
class PhenotypeCategory:
    """A prompt-sized group of candidate phenotypes."""

    name: str
    candidates: tuple[Phenotype, ...]
    few_shot_examples: tuple[FewShotExample, ...] = ()
    prompt_phrase: str | None = None
    # Origin list id; stamped when the owning list is assembled so that
    # categories stay distinguishable after lists are combined.
    namespace: str = ""

    def phrase(self) -> str:
        """Noun phrase naming this category inside a prompt."""
        if self.prompt_phrase is not None:
            return self.prompt_phrase
        return self.name.lower()

    def key(self) -> str:
        """Stable identifier of this category across combined lists."""
        return f"{self.namespace}:{self.name}"


@dataclass(frozen=True)
class PhenotypeList:
    list_id: str
    categories: tuple[PhenotypeCategory, ...]

    def __len__(self) -> int:
        return sum(len(c.candidates) for c in self.categories)

    def category(self, name: str) -> PhenotypeCategory:
        """Look up a category by bare name or ``namespace:name`` key."""
        hits = [c for c in self.categories if c.name == name or c.key() == name]
        if not hits:
            known = ", ".join(sorted(c.key() for c in self.categories))
            raise SchemaError(f"unknown category {name!r}; known categories: {known}")
        if len(hits) > 1:
            keys = ", ".join(c.key() for c in hits)
            raise SchemaError(
                f"category name {name!r} is ambiguous ({keys}); use a namespaced key"
            )
        return hits[0]


@dataclass(frozen=True)
class FeatureColumn:
    """One column of the binary feature matrix."""

    index: int
    list_id: str
    category: str
    phenotype_id: str

    @property
    def key(self) -> str:
        return f"{self.list_id}:{self.category}:{self.phenotype_id}"


def parse_column_key(key: str) -> tuple[str, str, str]:
    """Split ``namespace:category:phenotype_id`` back into its parts.

    Namespaces and phenotype ids never contain ':', so the first and last
    colon are unambiguous even when the category name contains one.
    """
    try:
        namespace, rest = key.split(":", 1)
        category, phenotype_id = rest.rsplit(":", 1)
    except ValueError:
        raise SchemaError(f"malformed feature column key {key!r}") from None
    if not namespace or not category or not phenotype_id:
        raise SchemaError(f"malformed feature column key {key!r}")
    return namespace, category, phenotype_id


def feature_index(plist: PhenotypeList) -> list[FeatureColumn]:
    """Deterministic column order: categories as listed, candidates as listed."""
    columns: list[FeatureColumn] = []
    for cat in plist.categories:
        for phenotype in cat.candidates:
            columns.append(
                FeatureColumn(
                    index=len(columns),
                    list_id=cat.namespace,
                    category=cat.name,
                    phenotype_id=phenotype.id,
                )
            )
    return columns


def _fail(source: str, message: str) -> SchemaError:
    return SchemaError(f"{source}: {message}")


def _parse_phenotype(doc: dict, source: str, where: str) -> Phenotype:
    if not isinstance(doc, dict):
        raise _fail(source, f"{where}: each candidate must be an object")
    pid = doc.get("id")
    if not isinstance(pid, str) or not pid:
        raise _fail(source, f"{where}: candidate 'id' must be a non-empty string")
    if ":" in pid:
        raise _fail(source, f"{where}: candidate id {pid!r} must not contain ':'")
    display = doc.get("display_name")
    if not isinstance(display, str) or not display.strip():
        raise _fail(source, f"{where}: candidate {pid!r} needs a non-empty 'display_name'")
    aliases = doc.get("aliases", [])
    if not isinstance(aliases, list) or not all(isinstance(a, str) for a in aliases):
        raise _fail(source, f"{where}: candidate {pid!r} 'aliases' must be a list of strings")
    for name in (display, *aliases):
        if "," in name:  # a reply is split at its commas
            raise _fail(source, f"{where}: candidate {pid!r} name {name!r} must not contain ','")
    normalized = tuple(dict.fromkeys(" ".join(a.split()).lower() for a in aliases if a.strip()))
    return Phenotype(id=pid, display_name=display.strip(), aliases=normalized)


def _parse_category(doc: dict, source: str) -> PhenotypeCategory:
    if not isinstance(doc, dict):
        raise _fail(source, "each category must be an object")
    name = doc.get("name")
    if not isinstance(name, str) or not name.strip():
        raise _fail(source, "category 'name' must be a non-empty string")
    name = name.strip()
    where = f"category {name!r}"
    raw_candidates = doc.get("candidates")
    if not isinstance(raw_candidates, list) or not raw_candidates:
        raise _fail(source, f"{where}: 'candidates' must be a non-empty list")
    candidates = tuple(_parse_phenotype(c, source, where) for c in raw_candidates)
    seen: set[str] = set()
    for p in candidates:
        if p.id in seen:
            raise _fail(source, f"{where}: duplicate candidate id {p.id!r}")
        seen.add(p.id)

    raw_examples = doc.get("few_shot_examples", [])
    if not isinstance(raw_examples, list):
        raise _fail(source, f"{where}: 'few_shot_examples' must be a list")
    if len(raw_examples) > MAX_FEW_SHOT_EXAMPLES:
        raise _fail(
            source,
            f"{where}: at most {MAX_FEW_SHOT_EXAMPLES} few-shot examples allowed, "
            f"got {len(raw_examples)}",
        )
    examples = []
    for ex in raw_examples:
        if (
            not isinstance(ex, dict)
            or not isinstance(ex.get("note_excerpt"), str)
            or not isinstance(ex.get("expected_output"), str)
        ):
            raise _fail(
                source,
                f"{where}: few-shot examples need string 'note_excerpt' and 'expected_output'",
            )
        examples.append(
            FewShotExample(note_excerpt=ex["note_excerpt"], expected_output=ex["expected_output"])
        )
    if examples and not any(e.expected_output.strip().lower() == "none" for e in examples):
        raise _fail(
            source,
            f"{where}: few-shot examples must include at least one with output 'none'",
        )

    phrase = doc.get("prompt_phrase")
    if phrase is not None and (not isinstance(phrase, str) or not phrase.strip()):
        raise _fail(source, f"{where}: 'prompt_phrase' must be a non-empty string when given")

    return PhenotypeCategory(
        name=name,
        candidates=candidates,
        few_shot_examples=tuple(examples),
        prompt_phrase=phrase.strip() if isinstance(phrase, str) else None,
    )


def parse_phenotype_list(doc: dict, source: str = "<memory>") -> PhenotypeList:
    """Build a validated list from a decoded JSON document."""
    if not isinstance(doc, dict):
        raise _fail(source, "top level must be a JSON object")
    list_id = doc.get("list_id")
    if not isinstance(list_id, str) or not list_id:
        raise _fail(source, "'list_id' must be a non-empty string")
    if ":" in list_id:  # column keys are split at their first ':'
        raise _fail(source, f"list id {list_id!r} must not contain ':'")
    raw_categories = doc.get("categories")
    if not isinstance(raw_categories, list) or not raw_categories:
        raise _fail(source, "'categories' must be a non-empty list")
    categories = tuple(
        replace(_parse_category(c, source), namespace=list_id) for c in raw_categories
    )
    names = [c.name for c in categories]
    for name in names:
        if names.count(name) > 1:
            raise _fail(source, f"duplicate category name {name!r}")
    return PhenotypeList(list_id=list_id, categories=categories)


def load_phenotype_list(path: str | Path) -> PhenotypeList:
    """Load and validate a phenotype list from a JSON file."""
    doc = read_json(path, SchemaError)
    return parse_phenotype_list(doc, source=str(path))


def combine_lists(first: PhenotypeList, second: PhenotypeList) -> PhenotypeList:
    """Concatenate two lists, keeping every category distinct.

    Categories keep their origin namespace. If both inputs share a namespace
    (combining a list with itself), the second occurrence gets a numeric
    suffix so all column keys stay unique.
    """
    taken = {c.namespace for c in first.categories}
    second_cats = second.categories
    clash = {c.namespace for c in second_cats} & taken
    if clash:
        renames = {}
        for ns in clash:
            n = 2
            while f"{ns}~{n}" in taken:
                n += 1
            renames[ns] = f"{ns}~{n}"
            taken.add(f"{ns}~{n}")
        second_cats = tuple(
            replace(c, namespace=renames.get(c.namespace, c.namespace)) for c in second_cats
        )
    if first.list_id == "list1" and second.list_id == "list2":
        list_id = "combined"
    else:
        list_id = f"custom:{first.list_id}+{second.list_id}"
    return PhenotypeList(list_id=list_id, categories=first.categories + second_cats)


def to_document(plist: PhenotypeList) -> dict:
    """Serialize a list back to its JSON document form."""
    return {
        "list_id": plist.list_id,
        "categories": [
            {
                "name": c.name,
                "prompt_phrase": c.prompt_phrase,
                "candidates": [
                    {"id": p.id, "display_name": p.display_name, "aliases": list(p.aliases)}
                    for p in c.candidates
                ],
                "few_shot_examples": [
                    {"note_excerpt": e.note_excerpt, "expected_output": e.expected_output}
                    for e in c.few_shot_examples
                ],
            }
            for c in plist.categories
        ],
    }


def _load_builtin(name: str) -> PhenotypeList:
    doc = read_json(data_path(name), SchemaError)
    return parse_phenotype_list(doc, source=f"builtin:{name}")


def builtin_list(list_id: str) -> PhenotypeList:
    """Return one of the built-in lists: list1, list2, or combined."""
    if list_id == "list1":
        return _load_builtin("list1.json")
    if list_id == "list2":
        return _load_builtin("list2.json")
    if list_id == "combined":
        return combine_lists(_load_builtin("list1.json"), _load_builtin("list2.json"))
    raise SchemaError(
        f"unknown built-in list {list_id!r}; choose from {', '.join(BUILTIN_LIST_IDS)}"
    )


def resolve_list(spec: str) -> PhenotypeList:
    """Resolve a CLI-style list reference: built-in id or path to a JSON file."""
    if spec in BUILTIN_LIST_IDS:
        return builtin_list(spec)
    if spec.endswith(".json") or "/" in spec or Path(spec).exists():
        return load_phenotype_list(spec)
    raise SchemaError(
        f"unknown phenotype list {spec!r}; use one of {', '.join(BUILTIN_LIST_IDS)} "
        "or a path to a schema JSON file"
    )
