"""Streaming extraction, parsing of constrained model outputs and matrix assembly.

Each (chunk, category) pair yields one completion. Tokens are matched against
the category's candidate display names and aliases; each completion sets cells
of its note's matrix row, so the row is the union over chunks and adding a
chunk can only add phenotypes. A run parses each distinct reply once.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .artifacts import atomic_file
from .chunking import DEFAULT_CHUNK_BUDGET, Chunk, chunk_text
from .cohort import CohortManifest, NoteRecord
from .errors import MatrixError
from .features import FeatureMatrix
from .gateway import DEFAULT_MAX_OUTPUT_TOKENS, DEFAULT_MODEL, LlmGateway
from .prompts import prompt_head, render_prompt
from .schema import PhenotypeCategory, PhenotypeList, feature_index

logger = logging.getLogger(__name__)

# Parsed replies a run keeps, by (category key, reply text); cleared when full.
PARSE_MEMO_LIMIT = 1 << 12


@dataclass(frozen=True)
class RejectedToken:
    note_id: str
    chunk_index: int
    category: str
    token: str


@dataclass(slots=True)
class ExtractionProfile:
    """Per-note extraction result: the note's matrix row and its run counts.

    `row` has one byte (0 or 1) per `feature_index` column; each completion sets its cells."""

    note_id: str
    row: bytearray = field(default_factory=bytearray)
    rejects: list = field(default_factory=list)
    # (chunk index, category key) pairs whose completion failed
    incomplete: list = field(default_factory=list)
    # summed estimated_tokens of the note's chunks
    estimated_tokens: int = 0
    # chunks over the budget: sentences longer than it, each sent as one prompt
    oversized_chunks: int = 0
    # the note's (chunk, category) requests, and those the response cache served
    requests: int = 0
    cache_hits: int = 0


def normalize_token(raw: str) -> str:
    """Trim whitespace and surrounding quotes/periods, collapse spaces, lowercase."""
    token = raw.strip().strip("'\"`‘’“”. ")
    return " ".join(token.split()).lower()


def parse_response(
    text: str,
    category: PhenotypeCategory,
    rejects: "list[str] | None" = None,
) -> set:
    """Comma-separated display names / aliases -> set of phenotype ids.

    A name matches a token that normalises alike; the first candidate to claim a
    token keeps it. "none" contributes nothing; unknown tokens are dropped (and
    appended to `rejects` when given) so one odd completion never aborts a run.
    """
    ids: set[str] = set()
    if not text or not text.strip():
        return ids
    id_of: dict[str, str] = {}
    for candidate in category.candidates:
        for name in (candidate.display_name, *candidate.aliases):
            id_of.setdefault(normalize_token(name), candidate.id)
    for raw in text.split(","):
        token = normalize_token(raw)
        if not token or token == "none":
            continue
        matched = id_of.get(token)
        if matched is None:
            if rejects is not None:
                rejects.append(token)
            logger.debug("category %s: dropping unknown token %r", category.name, token)
        else:
            ids.add(matched)
    return ids


def _merge_result(
    profile: ExtractionProfile, chunk: Chunk, category: PhenotypeCategory, text: str, column_of, memo
):
    key = category.key()
    parsed = memo.get((key, text))
    if parsed is None:
        if len(memo) >= PARSE_MEMO_LIMIT:
            memo.clear()
        unknown: list[str] = []
        ids = parse_response(text, category, rejects=unknown)
        columns = [column_of[category.namespace, category.name, pid] for pid in ids]
        parsed = memo[key, text] = columns, unknown
    columns, unknown = parsed
    for column in columns:
        profile.row[column] = 1
    for token in unknown:
        profile.rejects.append(RejectedToken(profile.note_id, chunk.chunk_index, key, token))


def extract_notes(
    notes: "Iterable[NoteRecord]",
    plist: PhenotypeList,
    gateway: LlmGateway,
    mode: str = "zero_shot",
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    max_in_flight: int = 4,
    model: str = DEFAULT_MODEL,
    temperature: float = 0.0,
    max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS,
) -> "tuple[list[ExtractionProfile], int]":
    """Extract a corpus in one streaming pass.

    Each note is chunked once and planned as one job per chunk x category,
    chunk-major; the gateway draws jobs as it goes, renders a prompt only for
    a request the response cache does not serve, and results are merged as
    they come back, so memory holds a bounded window of jobs. A failed
    completion marks its (chunk, category) incomplete and the rest of the
    note still completes. Oversized chunks, each a sentence longer than the
    budget, are counted per note and reported in one warning per run.

    Returns the profiles (input order) and the number of failed completions.
    """
    profiles: list[ExtractionProfile] = []
    heads = {c.key(): prompt_head(c, mode) for c in plist.categories}  # render_prompt's memo
    planned = [(c, heads[c.key()]) for c in plist.categories]
    column_of = {(c.list_id, c.category, c.phenotype_id): c.index for c in feature_index(plist)}
    memo: dict = {}  # (category key, reply text) -> (columns, rejected tokens)

    def jobs():
        for note in notes:
            profile = ExtractionProfile(note.note_id, bytearray(len(column_of)))
            profiles.append(profile)
            chunks = chunk_text(note.text, budget=chunk_budget, note_id=note.note_id)
            profile.estimated_tokens = sum(c.estimated_tokens for c in chunks)
            profile.oversized_chunks = sum(c.oversized for c in chunks)
            for chunk in chunks:
                for category, head in planned:
                    yield (profile, chunk, category), head, chunk.text

    def render(tag):
        _, chunk, category = tag
        return render_prompt(category, chunk, mode, heads)

    for (profile, chunk, category), response, error in gateway.complete_stream(
        jobs(), max_in_flight, render, model, temperature, max_output_tokens
    ):
        profile.requests += 1
        if error is not None:
            logger.warning(
                "note %s chunk %d category %s: completion failed: %s",
                profile.note_id,
                chunk.chunk_index,
                category.name,
                error,
            )
            profile.incomplete.append((chunk.chunk_index, category.key()))
            continue
        profile.cache_hits += response.cached
        _merge_result(profile, chunk, category, response.text, column_of, memo)
    oversized = sum(p.oversized_chunks for p in profiles)
    if oversized:
        logger.warning(
            "%d chunk(s) over the %d-token budget were sent whole, each one sentence "
            "longer than the budget (first in note %s)",
            oversized,
            chunk_budget,
            next(p.note_id for p in profiles if p.oversized_chunks),
        )
    return profiles, sum(len(p.incomplete) for p in profiles)


def build_feature_matrix(
    profiles: "list[ExtractionProfile]",
    plist: PhenotypeList,
    manifest: CohortManifest,
) -> FeatureMatrix:
    """Profiles + manifest -> binary matrix: each manifest note's one row, in manifest order."""
    manifest_ids = {e.note_id for e in manifest.entries}
    row_of = {}
    for profile in profiles:
        if profile.note_id not in manifest_ids:
            raise MatrixError(
                f"profile for note {profile.note_id!r} does not appear in the manifest"
            )
        if profile.note_id in row_of:
            raise MatrixError(f"note {profile.note_id!r} has more than one extraction profile")
        row_of[profile.note_id] = profile.row
    rows = []
    for entry in manifest.entries:
        row = row_of.get(entry.note_id)
        if row is None:
            raise MatrixError(f"manifest note {entry.note_id!r} has no extraction profile")
        rows.append(row)
    return FeatureMatrix(
        note_ids=[e.note_id for e in manifest.entries],
        cohorts=[e.cohort for e in manifest.entries],
        columns=feature_index(plist),
        rows=rows,
    )


def aggregate_by_patient(matrix: FeatureMatrix, manifest: CohortManifest) -> FeatureMatrix:
    """Optional patient-level view: OR of each patient's note rows.

    Patients keep the most severe cohort label among their notes
    (ADRD over MCI over CN). Row order follows first appearance.
    """
    patient_of = manifest.patient_of()
    severity = {"CN": 0, "MCI": 1, "ADRD": 2}
    order: list[str] = []
    rows: dict[str, bytes] = {}
    cohorts: dict[str, str] = {}
    for i, note_id in enumerate(matrix.note_ids):
        patient = patient_of.get(note_id, note_id)
        if patient not in rows:
            order.append(patient)
            rows[patient] = matrix.rows[i]
            cohorts[patient] = matrix.cohorts[i]
        else:
            rows[patient] = bytes(map(max, rows[patient], matrix.rows[i]))
            if severity.get(matrix.cohorts[i], -1) > severity.get(cohorts[patient], -1):
                cohorts[patient] = matrix.cohorts[i]
    return FeatureMatrix(
        note_ids=order,
        cohorts=[cohorts[p] for p in order],
        columns=matrix.columns,
        rows=[rows[p] for p in order],
    )


def write_reject_log(profiles: "list[ExtractionProfile]", path: str | Path):
    with atomic_file(path) as fh:
        for profile in profiles:
            for reject in profile.rejects:
                fh.write(json.dumps(asdict(reject), sort_keys=True) + "\n")
