"""The demo's artifacts, pinned by the sha256 of their bytes.

Each command runs in a fresh directory with relative paths, so every
``config_hash`` is the same on every machine. ``run_report.json`` is hashed
with ``elapsed_seconds`` set to 0. One ``extract`` runs against a loopback
endpoint that answers with unknown names, so the reject log is pinned with
content; its other files carry the endpoint's port in their ``config_hash``
and are not pinned, nor is the response cache.

``tests/data/golden_demo.json`` holds each artifact's digest and
``tests/data/golden_demo_lines.json`` a short digest per line, from which a
mismatch names its first differing line. A change that alters any pinned
artifact updates both files and says which artifacts changed and why. To
write them from the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import re
import shutil
from pathlib import Path

from click.testing import CliRunner

from pheno_mine.cli import data_path, main
from test_gateway import ScriptedHandler, completion_body, serving

GOLDEN = Path(__file__).parent / "data" / "golden_demo.json"
GOLDEN_LINES = GOLDEN.with_name("golden_demo_lines.json")
INPUTS = ("demo_notes.jsonl", "demo_diagnoses.csv", "demo_terms.csv", "demo_ner.jsonl")
MATRIX = "extract/feature_matrix.csv"
SAMPLED = "cohort_sampled/manifest.csv"
EXTRACT = ["extract", "--notes", "demo_notes.jsonl", "--diagnoses", "demo_diagnoses.csv"]
DICTIONARY = ["baseline", "--method", "dictionary", "--notes", "demo_notes.jsonl",
              "--terms", "demo_terms.csv", "--min-doc-freq", "1"]
NER = ["baseline", "--method", "ner", "--annotations", "demo_ner.jsonl"]
SCRIPT = (
    [*EXTRACT, "--out-dir", "extract"],
    ["stats", "--builtin-fixtures", "--out-dir", "stats_fixtures"],
    ["stats", "--matrix", MATRIX, "--out-dir", "stats_category"],
    ["stats", "--matrix", MATRIX, "--granularity", "phenotype", "--out-dir", "stats_phenotype"],
    ["stats", "--matrix", MATRIX, "--yates", "on", "--out-dir", "stats_yates_on"],
    ["cluster", "--matrix", MATRIX, "--out-dir", "cluster"],
    ["pca", "--matrix", MATRIX, "--out-dir", "pca"],
    ["report", "--matrix", MATRIX, "--out-dir", "report"],
    [*EXTRACT, "--cache-dir", "cache", "--out-dir", "extract_cold"],
    [*EXTRACT, "--cache-dir", "cache", "--out-dir", "extract_warm"],
    [*EXTRACT, "--per-patient", "--out-dir", "extract_per_patient"],
    [*EXTRACT, "--list", "list1", "--mode", "few_shot", "--out-dir", "extract_list1_few_shot"],
    [*EXTRACT, "--chunk-budget", "12", "--out-dir", "extract_chunk_budget_12"],
    ["cohort", "--notes", "demo_notes.jsonl", "--diagnoses", "demo_diagnoses.csv",
     "--out-dir", "cohort"],
    ["cohort", "--notes", "demo_notes.jsonl", "--diagnoses", "demo_diagnoses.csv",
     "--sample-per-cohort", "4", "--out-dir", "cohort_sampled"],
    [*DICTIONARY, "--out-dir", "dictionary_1.0"],
    [*DICTIONARY, "--manifest", SAMPLED, "--out-dir", "dictionary_1.0_sampled"],
    [*DICTIONARY, "--similarity-threshold", "0.8", "--out-dir", "dictionary_0.8"],
    [*DICTIONARY, "--similarity-threshold", "0.8", "--manifest", SAMPLED,
     "--out-dir", "dictionary_0.8_sampled"],
    [*NER, "--out-dir", "ner"],
    [*NER, "--manifest", SAMPLED, "--out-dir", "ner_sampled"],
    ["export-defaults", "--out-dir", "defaults"],
)
REJECTS = [*EXTRACT, "--sample-per-cohort", "1", "--list", "list1", "--backend", "http",
           "--out-dir", "rejects"]
ELAPSED = re.compile(rb'"elapsed_seconds": [^,\n]+')


class UnknownNames(ScriptedHandler):
    """One reply to every request: a Memory Indicators name, a Comorbidities name, "none"
    and a name no list has; each category rejects the names that are not its own."""

    script = [(200, completion_body("repeating, moon boots, none, Hypertension!"))]
    seen = []


def pinned(path: Path) -> bool:
    """Every artifact but the response cache and the loopback run's port-stamped files."""
    top = path.parts[0]
    return top != "cache" and (top != "rejects" or path.name == "reject_log.jsonl")


def demo_artifacts(temp_dir=None) -> dict:
    """Run the script over the bundled demo; map each pinned artifact to its bytes."""
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=temp_dir), serving(UnknownNames) as base_url:
        for name in INPUTS:
            shutil.copy(data_path(name), name)
        for args in (*SCRIPT, [*REJECTS, "--base-url", base_url]):
            result = runner.invoke(main, args, catch_exceptions=False)
            assert result.exit_code == 0, (args, result.output)
        artifacts = {}
        for path in sorted(p for p in Path().glob("*/**/*") if p.is_file() and pinned(p)):
            data = path.read_bytes()
            if path.name == "run_report.json":
                data = ELAPSED.sub(b'"elapsed_seconds": 0', data)
            artifacts[path.as_posix()] = data
        return artifacts


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def line_digests(data: bytes) -> str:
    """The first 8 hex digits of each line's sha256, space-separated."""
    return " ".join(sha256(line)[:8] for line in data.splitlines())


def first_difference(name: str, data: bytes, pinned_lines: str) -> str:
    """The artifact's first line whose digest differs from its pin, quoted."""
    lines, pinned_lines = data.splitlines(), pinned_lines.split()
    for number, (line, pin) in enumerate(zip(lines, pinned_lines), start=1):
        if sha256(line)[:8] != pin:
            return f"{name} line {number}: {line.decode('utf-8', 'replace')!r}"
    return f"{name}: {len(lines)} lines, {len(pinned_lines)} pinned"


def test_demo_artifacts_match_their_pinned_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    golden_lines = json.loads(GOLDEN_LINES.read_text(encoding="utf-8"))
    artifacts = demo_artifacts(tmp_path)
    assert sorted(artifacts) == sorted(golden)
    differing = [
        first_difference(name, artifacts[name], golden_lines[name])
        for name in golden
        if sha256(artifacts[name]) != golden[name]
    ]
    assert not differing, f"artifacts differ from {GOLDEN.name}:\n" + "\n".join(differing)


if __name__ == "__main__":
    artifacts = demo_artifacts()
    for path, document in (
        (GOLDEN, {name: sha256(data) for name, data in artifacts.items()}),
        (GOLDEN_LINES, {name: line_digests(data) for name, data in artifacts.items()}),
    ):
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(artifacts)} artifacts")
