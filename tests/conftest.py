import sqlite3
import sys
from contextlib import closing
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pheno_mine.cli import data_path
from pheno_mine.cohort import build_manifest, label_notes, load_diagnoses, read_notes
from pheno_mine.gateway import LlmGateway, MockBackend, MockRuleTable
from pheno_mine.schema import builtin_list


def rows(cache_dir) -> dict:
    """Every row of the response store in ``cache_dir``: hex key to reply text."""
    with closing(sqlite3.connect(Path(cache_dir) / "responses.sqlite")) as db:
        return {key.hex(): text for key, text in db.execute("SELECT key, text FROM reply")}


@pytest.fixture(scope="session")
def list1():
    return builtin_list("list1")


@pytest.fixture(scope="session")
def list2():
    return builtin_list("list2")


@pytest.fixture(scope="session")
def combined():
    return builtin_list("combined")


@pytest.fixture(scope="session")
def demo_notes():
    return list(read_notes(data_path("demo_notes.jsonl")))


@pytest.fixture(scope="session")
def demo_manifest(demo_notes):
    diagnoses = load_diagnoses(data_path("demo_diagnoses.csv"))
    return build_manifest(label_notes(demo_notes, diagnoses))


@pytest.fixture(scope="session")
def demo_truth():
    truth: dict[str, set] = {}
    lines = data_path("demo_truth.csv").read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        note_id, key = line.split(",", 1)
        truth.setdefault(note_id, set()).add(key)
    return truth


@pytest.fixture()
def mock_gateway(combined):
    table = MockRuleTable.from_csv(data_path("mock_rules.csv"))
    return LlmGateway(MockBackend(table, combined))
