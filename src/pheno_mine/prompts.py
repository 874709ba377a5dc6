"""Renders the zero-shot and few-shot extraction prompt templates.

Rendering is pure: the prompt depends only on the category (phrase,
candidates, examples) and the chunk text, which is what makes response
caching and the deterministic mock backend possible.
"""

from __future__ import annotations

from .chunking import Chunk
from .errors import ConfigError
from .schema import PhenotypeCategory

NOTE_MARKER = "##Note##:"

_TEMPLATE = (
    "You are analyzing a segment of a clinical nursing note. "
    "Extract the patient's {phrase} from the given discharge note. "
    "Please choose from {candidates}. "
    "Return only the combination of the above outputs or 'none' "
    "if none are mentioned in the note."
)

_EXTRACT_PREFIX = "Extract the patient's "
_EXTRACT_SUFFIX = " from the given discharge note."


def candidate_phrase(category: PhenotypeCategory) -> str:
    """Quoted display names: one bare, two joined with 'and', 3+ Oxford style."""
    names = [f"'{p.display_name}'" for p in category.candidates]
    if len(names) == 1:
        return names[0]
    if len(names) == 2:
        return f"{names[0]} and {names[1]}"
    return ", ".join(names[:-1]) + f", and {names[-1]}"


def _body(category: PhenotypeCategory) -> str:
    return _TEMPLATE.format(phrase=category.phrase(), candidates=candidate_phrase(category))


def prompt_head(category: PhenotypeCategory, mode: str) -> str:
    """Everything a prompt holds before the note text; fixed per category and mode."""
    if mode == "zero_shot":
        return f"{_body(category)} {NOTE_MARKER} "
    if mode != "few_shot":
        raise ConfigError(f"unknown prompt mode {mode!r}; use 'zero_shot' or 'few_shot'")
    if not category.few_shot_examples:
        raise ConfigError(
            f"few-shot prompting requires configured examples for category {category.name!r}"
        )
    lines = [_body(category), "Examples:"]
    for example in category.few_shot_examples:
        lines.append(f"Note: {example.note_excerpt}")
        lines.append(f"Output: {example.expected_output}")
    lines.append(f"{NOTE_MARKER} ")
    return "\n".join(lines)


def render_prompt(
    category: PhenotypeCategory, chunk: "Chunk | str", mode: str, heads: "dict | None" = None
) -> str:
    """Head plus note text; `heads`, one dict per mode, keeps each category's head."""
    heads = {} if heads is None else heads
    key = category.key()
    if key not in heads:
        heads[key] = prompt_head(category, mode)
    return heads[key] + (chunk.text if isinstance(chunk, Chunk) else chunk)


def render_zero_shot(category: PhenotypeCategory, chunk: "Chunk | str") -> str:
    return render_prompt(category, chunk, "zero_shot")


def render_few_shot(category: PhenotypeCategory, chunk: "Chunk | str") -> str:
    return render_prompt(category, chunk, "few_shot")


def note_section_of(prompt: str) -> str:
    """Text after the note marker; used by the mock backend."""
    _, sep, tail = prompt.partition(NOTE_MARKER)
    if not sep:
        return ""
    return tail.lstrip()


def category_phrase_of(prompt: str) -> str:
    """Category phrase a prompt asks about; used by the mock backend."""
    start = prompt.find(_EXTRACT_PREFIX)
    if start < 0:
        return ""
    start += len(_EXTRACT_PREFIX)
    end = prompt.find(_EXTRACT_SUFFIX, start)
    if end < 0:
        return ""
    return prompt[start:end]
