"""Output oracles. Each check returns a list of problems; empty means correct.

They read the artifacts as files, with their own parsing, so they do not
trust the code under test to read back what it wrote.
"""

from __future__ import annotations

import csv
import json
import xml.etree.ElementTree as ET
from pathlib import Path

from corpus import tokens

MAX_NGRAM = 5


def _csv_rows(path: Path) -> list:
    """Rows of a CSV artifact, skipping its ``# provenance:`` comment lines."""
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def _one_columns(path: Path) -> dict:
    """note id -> set of column keys whose cell is 1."""
    header, *rows = _csv_rows(path)
    return {
        row[0]: {key for key, cell in zip(header[2:], row[2:]) if cell == "1"} for row in rows
    }


def check_matrix(path: Path, source: dict, truth: dict) -> list:
    """Every note has a row, and each row is its source record's truth row."""
    if not path.is_file():
        return [f"{path.name} missing"]
    rows = _one_columns(path)
    problems = []
    if set(rows) != set(source):
        problems.append(f"{path.name}: {len(rows)} rows for {len(source)} notes")
    wrong = [n for n, cols in rows.items() if n in source and cols != truth[source[n]]]
    if wrong:
        problems.append(f"{path.name}: {len(wrong)} rows differ from truth (first {wrong[0]})")
    return problems


def check_run_report(report: dict, min_requests: int, per_chunk: int, cache_hits: int) -> list:
    """No failed completions, whole chunks of requests, and the expected cache hits."""
    if not report:
        return ["run_report.json missing"]
    problems = []
    if report.get("failures") != 0:
        problems.append(f"run_report.json: {report.get('failures')!r} failures")
    requests = report.get("requests", 0)
    if requests < min_requests or requests % per_chunk:
        problems.append(f"run_report.json: {requests} requests, expected whole chunks")
    if report.get("cache_hits") != cache_hits:
        problems.append(
            f"run_report.json: {report.get('cache_hits')!r} cache hits, expected {cache_hits}"
        )
    return problems


def check_report_dir(out: Path, notes: int) -> list:
    """The ``report`` artifacts exist and parse, with one PCA point per note."""
    problems = []
    try:
        if len(_csv_rows(out / "stats_report.csv")) < 2:
            problems.append("stats_report.csv has no rows")
        settings = json.loads((out / "clustering_report.json").read_text(encoding="utf-8"))
        if not settings:
            problems.append("clustering_report.json is empty")
        if len(_csv_rows(out / "pca_scatter.csv")) != notes + 1:
            problems.append(f"pca_scatter.csv does not have {notes} points")
        ET.parse(out / "pca_scatter.svg")
        for name in ("stats_report.txt", "clustering_report.txt"):
            if not (out / name).read_text(encoding="utf-8").strip():
                problems.append(f"{name} is empty")
        if f"rows: {notes}" not in (out / "summary.txt").read_text(encoding="utf-8"):
            problems.append(f"summary.txt does not report {notes} rows")
    except (OSError, ValueError, ET.ParseError) as exc:
        problems.append(f"report artifacts: {exc}")
    return problems


def reference_concepts(text: str, terms: dict, threshold: float) -> set:
    """Brute-force dictionary matcher: every n-gram (n <= 5) against every term.

    At threshold 1.0 a gram matches a term with the same token sequence;
    below it, when the token-set Jaccard similarity reaches the threshold.
    """
    words = tokens(text)
    grams = {
        tuple(words[i : i + n])
        for n in range(1, MAX_NGRAM + 1)
        for i in range(len(words) - n + 1)
    }
    found = set()
    for term, concept in terms.items():
        term_words = tuple(term.split())
        term_set = set(term_words)
        for gram in grams:
            if threshold == 1.0:
                hit = gram == term_words
            else:
                gram_set = set(gram)
                hit = len(gram_set & term_set) / len(gram_set | term_set) >= threshold
            if hit:
                found.add(concept)
                break
    return found


def check_dictionary(path: Path, texts: dict, terms: dict, threshold: float, sample: list) -> list:
    """One row per note, and sampled rows equal the brute-force reference."""
    if not path.is_file():
        return [f"{path.name} missing"]
    rows = _one_columns(path)
    problems = []
    if set(rows) != set(texts):
        problems.append(f"{path.name}: {len(rows)} rows for {len(texts)} notes")
    for note_id in sample:
        got = {key.rsplit(":", 1)[1] for key in rows.get(note_id, ())}
        want = reference_concepts(texts[note_id], terms, threshold)
        if got != want:
            problems.append(
                f"{path.name}: note {note_id} at threshold {threshold}: "
                f"{sorted(got ^ want)[:5]} differ from the reference"
            )
    return problems
