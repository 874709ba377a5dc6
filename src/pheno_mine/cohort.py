"""Cohort assignment from diagnosis codes and downsampling into a run manifest.

Patients are stratified into three groups: ADRD (dementia diagnosis codes),
MCI (mild cognitive impairment codes), and CN (cognitively normal screening
criteria). Notes inherit their patient's label; unlabelable notes are dropped
from the manifest with a warning.
"""

from __future__ import annotations

import logging
import random
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

from .artifacts import csv_artifact, parse_json, read_csv_rows, read_lines
from .errors import CohortError

logger = logging.getLogger(__name__)

COHORTS = ("CN", "MCI", "ADRD")  # in rising severity
UNLABELED = "UNLABELED"

# Dementia diagnosis codes, normalized (dots stripped, uppercase).
# ICD-9 290.x and 294.x are code families, matched by prefix.
ADRD_ICD9_EXACT = frozenset({"3310", "33182", "797"})
ADRD_ICD9_PREFIXES = ("290", "294", "3311")
ADRD_ICD10_EXACT = frozenset(
    {"G300", "G301", "G308", "G309", "G3183", "G3109",
     "F0150", "F0151", "F0280", "F0281", "F0390", "F0391"}
)
MCI_ICD9 = "33183"
MCI_ICD10 = "G3184"

MIN_CN_AGE = 40.0
MIN_CN_HISTORY_YEARS = 1.0


def normalize_icd(code: str) -> str:
    """Strip dots and whitespace, uppercase. Returns '' for unusable input."""
    if not isinstance(code, str):
        return ""
    return code.replace(".", "").strip().upper()


@dataclass(frozen=True)
class DiagnosisRecord:
    patient_id: str
    icd_version: int
    icd_code: str  # normalized

    def is_adrd(self) -> bool:
        if self.icd_version == 9:
            return self.icd_code in ADRD_ICD9_EXACT or self.icd_code.startswith(
                ADRD_ICD9_PREFIXES
            )
        return self.icd_code in ADRD_ICD10_EXACT

    def is_mci(self) -> bool:
        if self.icd_version == 9:
            return self.icd_code == MCI_ICD9
        return self.icd_code == MCI_ICD10


@dataclass
class NoteRecord:
    """One clinical note plus the screening fields used for CN eligibility."""

    note_id: str
    patient_id: str
    text: str
    age: float | None = None
    history_years: float | None = None
    on_dementia_meds: bool | None = None
    cohort: str = UNLABELED


def assign_cohort(
    diagnoses: "set[DiagnosisRecord] | list[DiagnosisRecord]",
    age: float | None,
    history_years: float | None,
    on_dementia_meds: bool | None,
) -> str:
    """Label one patient-note pair. ADRD codes take precedence over MCI."""
    has_adrd = any(d.is_adrd() for d in diagnoses)
    if has_adrd:
        return "ADRD"
    if any(d.is_mci() for d in diagnoses):
        return "MCI"
    if (
        age is not None
        and age > MIN_CN_AGE
        and history_years is not None
        and history_years >= MIN_CN_HISTORY_YEARS
        and on_dementia_meds is False
    ):
        return "CN"
    return UNLABELED


@dataclass(frozen=True)
class ManifestEntry:
    note_id: str
    patient_id: str
    cohort: str


@dataclass(frozen=True)
class CohortManifest:
    entries: tuple[ManifestEntry, ...]

    def __post_init__(self):
        for e in self.entries:
            if e.cohort not in COHORTS:
                raise CohortError(
                    f"manifest entry {e.note_id!r} has invalid cohort {e.cohort!r}"
                )
        dupes = sorted(i for i, n in Counter(e.note_id for e in self.entries).items() if n > 1)
        if dupes:
            raise CohortError(f"duplicate note ids in manifest: {dupes[:5]}")

    @property
    def counts(self) -> dict[str, int]:
        tally = {c: 0 for c in COHORTS}
        for e in self.entries:
            tally[e.cohort] += 1
        return tally

    def cohort_of(self) -> dict[str, str]:
        return {e.note_id: e.cohort for e in self.entries}

    def patient_of(self) -> dict[str, str]:
        return {e.note_id: e.patient_id for e in self.entries}


def label_notes(
    notes: "list[NoteRecord]", diagnoses: "dict[str, list[DiagnosisRecord]]"
) -> "list[NoteRecord]":
    """Return copies of the notes with cohort labels filled in."""
    labeled = []
    for note in notes:
        cohort = assign_cohort(
            diagnoses.get(note.patient_id, []),
            note.age,
            note.history_years,
            note.on_dementia_meds,
        )
        labeled.append(replace(note, cohort=cohort))
    return labeled


def build_manifest(notes: "list[NoteRecord]") -> CohortManifest:
    """Keep labeled notes only; unlabeled notes are dropped with a warning."""
    dropped = sum(1 for n in notes if n.cohort not in COHORTS)
    if dropped:
        logger.warning("dropping %d notes without a cohort label", dropped)
    entries = tuple(
        ManifestEntry(n.note_id, n.patient_id, n.cohort) for n in notes if n.cohort in COHORTS
    )
    return CohortManifest(entries=entries)


def sample_cohort(
    manifest: CohortManifest, cohort: str, n: int, seed: int, draws: int = 1
) -> CohortManifest:
    """Downsample one cohort to the union of `draws` uniform draws of size n.

    Draws are without replacement within each draw; other cohorts are left
    untouched and manifest order is preserved. With draws=1 (the default)
    this is a plain uniform subsample.
    """
    if cohort not in COHORTS:
        raise CohortError(f"unknown cohort {cohort!r}; choose from {', '.join(COHORTS)}")
    if draws < 1:
        raise CohortError(f"draws must be >= 1, got {draws}")
    pool = [i for i, e in enumerate(manifest.entries) if e.cohort == cohort]
    if n > len(pool):
        raise CohortError(
            f"cannot sample {n} notes from cohort {cohort}: only {len(pool)} available "
            f"(counts: {manifest.counts})"
        )
    keep: set[int] = set()
    for d in range(draws):
        rng = random.Random(f"{seed}:{cohort}:{d}")
        keep.update(rng.sample(pool, n))
    entries = tuple(
        e for i, e in enumerate(manifest.entries) if e.cohort != cohort or i in keep
    )
    return CohortManifest(entries=entries)


# ---------------------------------------------------------------------------
# File formats


def load_diagnoses(path: str | Path) -> "dict[str, list[DiagnosisRecord]]":
    """Read a diagnoses CSV with columns patient_id,icd_version,icd_code."""
    by_patient: dict[str, list[DiagnosisRecord]] = {}
    columns = ("patient_id", "icd_version", "icd_code")
    for lineno, row in read_csv_rows(path, CohortError, "diagnoses file", columns):
        code = normalize_icd(row["icd_code"] or "")
        try:
            version = int(row["icd_version"])
        except (TypeError, ValueError):
            version = 0
        if not code or version not in (9, 10):
            logger.warning("%s:%d: skipping unparseable diagnosis %r", path, lineno, row)
            continue
        record = DiagnosisRecord(row["patient_id"], version, code)
        by_patient.setdefault(record.patient_id, []).append(record)
    return by_patient


def _parse_optional_float(value, source: str, name: str) -> float | None:
    if value is None or value == "":
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        raise CohortError(f"{source}: field {name!r} is not a number: {value!r}") from None


def _parse_optional_bool(value) -> bool | None:
    if value is None or value == "":
        return None
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "y"):
        return True
    if text in ("0", "false", "no", "n"):
        return False
    raise CohortError(f"cannot parse boolean field value {value!r}")


def _note_from_mapping(row, source: str) -> NoteRecord:
    if not isinstance(row, dict):
        raise CohortError(f"{source}: note record must be a JSON object")
    for key in ("note_id", "patient_id", "text"):
        if key not in row or row[key] in (None, ""):
            raise CohortError(f"{source}: note record missing required field {key!r}")
    return NoteRecord(
        note_id=str(row["note_id"]),
        patient_id=str(row["patient_id"]),
        text=str(row["text"]),
        age=_parse_optional_float(row.get("age"), source, "age"),
        history_years=_parse_optional_float(row.get("history_years"), source, "history_years"),
        on_dementia_meds=_parse_optional_bool(row.get("on_dementia_meds")),
    )


def read_notes(path: str | Path) -> "Iterator[NoteRecord]":
    """Yield the notes of a JSONL (one object per line) or CSV file, by file extension,
    one at a time and each checked as it is read; a repeated note_id raises."""
    if Path(path).suffix.lower() == ".jsonl":
        rows = _jsonl_rows(path)
    else:
        rows = read_csv_rows(path, CohortError, "notes file", ("note_id", "patient_id", "text"))
    seen: set[str] = set()
    for lineno, row in rows:
        note = _note_from_mapping(row, f"{path}:{lineno}")
        if note.note_id in seen:
            raise CohortError(f"{path}: duplicate note_id {note.note_id!r}")
        seen.add(note.note_id)
        yield note


def _jsonl_rows(path: str | Path):
    for lineno, line in read_lines(path, CohortError):
        if line.strip():
            try:
                yield lineno, parse_json(line)
            except ValueError as exc:
                raise CohortError(f"{path}:{lineno}: invalid JSON: {exc}") from exc


def load_notes(path: str | Path) -> "list[NoteRecord]":
    """The first of ``extract``'s two reads of a notes file: every note, checked, with
    its text dropped; the labels and the manifest need only the other fields."""
    return [replace(note, text="") for note in read_notes(path)]


def write_manifest(manifest: CohortManifest, path: str | Path, provenance: dict | None = None):
    with csv_artifact(path, provenance) as writer:
        writer.writerow(["note_id", "patient_id", "cohort"])
        for e in manifest.entries:
            writer.writerow([e.note_id, e.patient_id, e.cohort])


def load_manifest(path: str | Path) -> CohortManifest:
    columns = ("note_id", "patient_id", "cohort")
    entries = tuple(
        ManifestEntry(row["note_id"], row["patient_id"], row["cohort"])
        for _, row in read_csv_rows(path, CohortError, "manifest", columns)
    )
    if not entries:
        raise CohortError(f"{path}: the manifest lists no notes")
    return CohortManifest(entries=entries)
