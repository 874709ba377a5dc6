"""The demo's artifacts, pinned by the sha256 of their bytes.

Each command runs in a fresh directory with relative paths, so every
``config_hash`` is the same on every machine. A change that alters any pinned
artifact updates ``tests/data/golden_demo.json`` and says which artifacts
changed and why. To print the digests of the current code:

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden_demo.json
"""

import hashlib
import json
import shutil
from pathlib import Path

from click.testing import CliRunner

from pheno_mine.cli import data_path, main

GOLDEN = Path(__file__).parent / "data" / "golden_demo.json"
MATRIX = "extract/feature_matrix.csv"
SCRIPT = (
    ["extract", "--notes", "demo_notes.jsonl", "--diagnoses", "demo_diagnoses.csv",
     "--out-dir", "extract"],
    ["stats", "--builtin-fixtures", "--out-dir", "stats_fixtures"],
    ["stats", "--matrix", MATRIX, "--out-dir", "stats_category"],
    ["stats", "--matrix", MATRIX, "--granularity", "phenotype", "--out-dir", "stats_phenotype"],
    ["stats", "--matrix", MATRIX, "--yates", "on", "--out-dir", "stats_yates_on"],
    ["cluster", "--matrix", MATRIX, "--out-dir", "cluster"],
    ["pca", "--matrix", MATRIX, "--out-dir", "pca"],
    ["report", "--matrix", MATRIX, "--out-dir", "report"],
)
PINNED = (
    "stats_report.csv",
    "stats_report.txt",
    "clustering_report.json",
    "clustering_report.txt",
    "pca_scatter.csv",
    "pca_scatter.svg",
    "summary.txt",
)


def demo_digests(temp_dir=None) -> dict:
    """Run the script over the bundled demo; map each pinned artifact to its sha256."""
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=temp_dir):
        for name in ("demo_notes.jsonl", "demo_diagnoses.csv"):
            shutil.copy(data_path(name), name)
        for args in SCRIPT:
            result = runner.invoke(main, args, catch_exceptions=False)
            assert result.exit_code == 0, (args, result.output)
        return {
            path.as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path().glob("*/*"))
            if path.name in PINNED
        }


def test_demo_stats_artifacts_match_their_pinned_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    digests = demo_digests(tmp_path)
    assert sorted(digests) == sorted(golden)
    differing = [name for name in golden if digests[name] != golden[name]]
    assert not differing, f"artifacts differ from {GOLDEN.name}: {', '.join(differing)}"


if __name__ == "__main__":
    print(json.dumps(demo_digests(), indent=2, sort_keys=True))
