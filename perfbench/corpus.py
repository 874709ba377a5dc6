"""Deterministic benchmark inputs built from the bundled demo corpus.

Note ``i`` of a generated corpus keeps demo record ``i mod 30``'s own
sentences, age, history and diagnoses (under a new patient id) and is padded
to length with the demo sentences that match no mock-rule trigger. Its
planted phenotypes are therefore exactly the ``demo_truth.csv`` row of that
record, which is what the output checks compare against.
"""

from __future__ import annotations

import csv
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

_SENTENCE_END = re.compile(r"(?<=[.!?])\s+")
_TOKEN = re.compile(r"[a-z0-9']+")


def tokens(text: str) -> list:
    return _TOKEN.findall(text.lower())


@dataclass(frozen=True)
class Demo:
    records: list  # demo_notes.jsonl rows, in file order
    diagnoses: dict  # patient id -> list of (icd_version, icd_code)
    truth: dict  # demo note id -> frozenset of matrix column keys
    terms: list  # (term, concept id) rows of demo_terms.csv, first of each term
    neutral: list  # demo sentences that fire no mock rule


def load_demo(data_dir: Path) -> Demo:
    records = [
        json.loads(line)
        for line in (data_dir / "demo_notes.jsonl").read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    diagnoses: dict = {}
    with (data_dir / "demo_diagnoses.csv").open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            diagnoses.setdefault(row["patient_id"], []).append(
                (row["icd_version"], row["icd_code"])
            )
    truth: dict = {r["note_id"]: set() for r in records}
    with (data_dir / "demo_truth.csv").open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            truth[row["note_id"]].add(row["column_key"])
    with (data_dir / "mock_rules.csv").open(newline="", encoding="utf-8") as fh:
        triggers = [row["trigger"].strip().lower() for row in csv.DictReader(fh)]
    neutral: list = []
    for record in records:
        for sentence in _SENTENCE_END.split(record["text"].strip()):
            low = sentence.lower()
            if sentence not in neutral and not any(t in low for t in triggers):
                neutral.append(sentence)
    terms: list = []
    seen: set = set()
    with (data_dir / "demo_terms.csv").open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = " ".join(tokens(row["term"]))
            if key not in seen:
                seen.add(key)
                terms.append((row["term"], row["concept_id"]))
    return Demo(
        records=records,
        diagnoses=diagnoses,
        truth={k: frozenset(v) for k, v in truth.items()},
        terms=terms,
        neutral=neutral,
    )


@dataclass(frozen=True)
class Corpus:
    notes_path: Path
    diagnoses_path: Path
    source: dict  # generated note id -> demo note id whose phenotypes it carries
    notes: int
    chars_per_note: float
    copies: int  # notes whose text repeats an earlier note's


def _padded_text(rng: random.Random, own: list, neutral: list, chars: int) -> str:
    pieces = list(own)
    length = sum(len(s) + 1 for s in pieces)
    while length < chars:
        sentence = rng.choice(neutral)
        pieces.insert(rng.randrange(len(pieces) + 1), sentence)
        length += len(sentence) + 1
    return " ".join(pieces)


def write_corpus(
    demo: Demo, out_dir: Path, seed: int, count: int, chars: int, copy_every: int = 0
) -> Corpus:
    """Write ``notes.jsonl`` and ``diagnoses.csv`` for ``count`` notes.

    With ``copy_every = k``, every k-th note copies the text, patient and
    metadata of an earlier original note under a new note id, so its prompts
    repeat exactly. This stands in for copy-forward text in clinical notes;
    the share 1/k is a chosen value, not one measured on a real corpus.
    """
    rng = random.Random(f"perfbench-corpus:{seed}:{count}:{chars}:{copy_every}")
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: list = []
    source: dict = {}
    originals: list = []
    copies = 0
    for i in range(count):
        note_id = f"B{i:05d}"
        if copy_every and i % copy_every == copy_every - 1:
            earlier = rows[rng.choice(originals)]
            rows.append(dict(earlier, note_id=note_id))
            source[note_id] = source[earlier["note_id"]]
            copies += 1
            continue
        record = demo.records[i % len(demo.records)]
        own = _SENTENCE_END.split(record["text"].strip())
        originals.append(len(rows))
        rows.append(
            {
                "note_id": note_id,
                "patient_id": f"Q{i:05d}",
                "text": _padded_text(rng, own, demo.neutral, chars),
                "age": record["age"],
                "history_years": record["history_years"],
                "on_dementia_meds": record["on_dementia_meds"],
            }
        )
        source[note_id] = record["note_id"]
    notes_path = out_dir / "notes.jsonl"
    with notes_path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    diagnoses_path = out_dir / "diagnoses.csv"
    with diagnoses_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "icd_version", "icd_code"])
        for i, row in enumerate(rows):
            if row["patient_id"] != f"Q{i:05d}":
                continue  # a copy shares its original's patient and diagnoses
            demo_patient = demo.records[i % len(demo.records)]["patient_id"]
            for version, code in demo.diagnoses.get(demo_patient, []):
                writer.writerow([row["patient_id"], version, code])
    return Corpus(
        notes_path=notes_path,
        diagnoses_path=diagnoses_path,
        source=source,
        notes=count,
        chars_per_note=sum(len(r["text"]) for r in rows) / count,
        copies=copies,
    )


def write_dictionary(demo: Demo, path: Path, size: int) -> dict:
    """Write a ``term,concept_id`` file of ``size`` unique terms; return term -> concept.

    The demo terms come first. The generated terms are word windows of demo
    sentences, of three kinds in equal shares:

    - shuffled windows: Jaccard hits at 1.0 that exact matching mostly misses;
    - five-word windows without their middle word: Jaccard exactly 0.8
      against the full window, the edge of the 0.8 threshold;
    - windows with one word replaced by a made-up word that occurs in no
      note: never a match, but they cost the scan as much as any term, as
      most terms of a large vocabulary do.

    The dictionary is a fixed vocabulary, as a real one is: it depends on
    ``size`` alone, and only the notes vary with the seed. Every term that
    can match does so inside one sentence, never across the random boundary
    between two, so the matrices have the same width on every seed.
    """
    rng = random.Random(f"perfbench-dictionary:{size}")
    windows = []
    vocabulary: set = set()
    for record in demo.records:
        for sentence in _SENTENCE_END.split(record["text"].strip()):
            words = tokens(sentence)
            vocabulary.update(words)
            windows.append(words)
    terms: dict = {}
    for term, concept in demo.terms:
        terms[" ".join(tokens(term))] = concept
    while len(terms) < size:
        sentence = rng.choice(windows)
        kind = rng.randrange(3)
        if kind == 1 and len(sentence) >= 5:
            start = rng.randrange(len(sentence) - 4)
            words = sentence[start : start + 2] + sentence[start + 3 : start + 5]
        else:
            width = rng.randint(2, min(4, len(sentence)))
            start = rng.randrange(len(sentence) - width + 1)
            words = sentence[start : start + width]
            if kind == 2:
                made_up = "q" + "".join(rng.choice("aeioukrstvxz") for _ in range(5))
                if made_up in vocabulary:
                    continue
                words[rng.randrange(width)] = made_up
            else:
                rng.shuffle(words)
        term = " ".join(words)
        if len(term) > 4 and term not in terms:
            terms[term] = f"G{len(terms):05d}"
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["term", "concept_id"])
        for term, concept in terms.items():
            writer.writerow([term, concept])
    return terms
