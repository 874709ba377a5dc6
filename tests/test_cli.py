"""End-to-end CLI behaviour through click's test runner."""

import json
import logging
import os
import random
import re
import shutil
import socket
import subprocess
import sys
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pheno_mine
from pheno_mine.artifacts import ResponseStore
from pheno_mine import cohort as cohort_mod
from pheno_mine.cli import UNHASHED, _config_key, data_path, main
from pheno_mine.cohort import COHORTS
from pheno_mine.features import FeatureMatrix
from pheno_mine.gateway import MockBackend
from pheno_mine.schema import builtin_list, feature_index, to_document

NOTES = str(data_path("demo_notes.jsonl"))
DIAGNOSES = str(data_path("demo_diagnoses.csv"))


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, expect: int = 0):
    result = runner.invoke(main, [str(a) for a in args], catch_exceptions=False)
    assert result.exit_code == expect, result.output + result.stderr
    return result


# ---------------------------------------------------------------------------
# cohort


def test_cohort_writes_manifest(runner, tmp_path):
    result = invoke(
        runner, "cohort", "--notes", NOTES, "--diagnoses", DIAGNOSES, "--out-dir", tmp_path
    )
    assert "CN=10, MCI=10, ADRD=10" in result.output
    manifest = (tmp_path / "manifest.csv").read_text()
    assert manifest.startswith("# provenance: ")
    assert "note_id,patient_id,cohort" in manifest.splitlines()[1]


def test_cohort_sampling_caps_each_cohort(runner, tmp_path):
    invoke(
        runner,
        "cohort",
        "--notes", NOTES,
        "--diagnoses", DIAGNOSES,
        "--sample-per-cohort", 4,
        "--seed", 7,
        "--out-dir", tmp_path,
    )
    rows = [
        line for line in (tmp_path / "manifest.csv").read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("note_id")
    ]
    assert len(rows) == 12


def test_draws_is_hashed_only_when_cohorts_are_sampled(runner, tmp_path):
    cohort = ["cohort", "--notes", NOTES, "--diagnoses", DIAGNOSES]
    manifests = {}
    for sample in ([], ["--sample-per-cohort", 4]):
        for draws in (1, 3):
            out = tmp_path / f"{len(sample)}-{draws}"
            invoke(runner, *cohort, *sample, "--draws", draws, "--out-dir", out)
            manifests[len(sample), draws] = (out / "manifest.csv").read_bytes()
    # without sampling the draws are never taken: one manifest, hash included
    assert manifests[0, 1] == manifests[0, 3]
    provenance_lines = [manifests[2, d].split(b"\n")[0] for d in (1, 3)]
    assert provenance_lines[0] != provenance_lines[1]


def test_missing_notes_file_is_a_usage_error(runner, tmp_path):
    result = runner.invoke(
        main,
        ["cohort", "--notes", str(tmp_path / "nope.jsonl"), "--diagnoses", DIAGNOSES],
    )
    assert result.exit_code == 2  # click validates the path before the command runs


# ---------------------------------------------------------------------------
# extract (mock backend)


def test_extract_mock_end_to_end(runner, tmp_path):
    result = invoke(
        runner,
        "extract",
        "--notes", NOTES,
        "--diagnoses", DIAGNOSES,
        "--out-dir", tmp_path,
        "--seed", 0,
    )
    assert "30 notes x 37 phenotypes, 0 failed completions" in result.output
    for name in ("manifest.csv", "feature_matrix.csv", "reject_log.jsonl", "run_report.json"):
        assert (tmp_path / name).exists(), name
    report = json.loads((tmp_path / "run_report.json").read_text())
    assert report["notes"] == 30
    assert report["failures"] == 0
    assert report["cohort_counts"] == {"CN": 10, "MCI": 10, "ADRD": 10}
    assert report["requests"] > 0
    assert report["oversized_chunks"] == 0
    first = (tmp_path / "feature_matrix.csv").read_text().splitlines()[0]
    assert first.startswith("# provenance: ")
    for key in ("config_hash", "seed", "list_id", "mode"):
        assert key in first


def test_extract_counts_and_warns_of_oversized_chunks(runner, tmp_path, caplog):
    # a run-on sentence of ~8.3k tokens, over the default budget of 2048, in two notes
    run_on = " memory loss noted and" * 1500
    lines = []
    for line in Path(NOTES).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["note_id"] in ("N005", "N012"):
            record["text"] += run_on
        lines.append(json.dumps(record) + "\n")
    notes = tmp_path / "notes.jsonl"
    notes.write_text("".join(lines), encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="pheno_mine.extraction"):
        invoke(runner, "extract", "--notes", notes, "--diagnoses", DIAGNOSES,
               "--out-dir", tmp_path / "out")
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert report["oversized_chunks"] == 2
    assert report["failures"] == 0
    assert [r.getMessage() for r in caplog.records] == [
        "2 chunk(s) over the 2048-token budget were sent whole, each one sentence "
        "longer than the budget (first in note N005)"
    ]


def test_extract_per_patient_artifact(runner, tmp_path):
    invoke(
        runner,
        "extract",
        "--notes", NOTES,
        "--diagnoses", DIAGNOSES,
        "--per-patient",
        "--out-dir", tmp_path,
    )
    per_patient = (tmp_path / "feature_matrix_patients.csv").read_text()
    assert per_patient.splitlines()[1].startswith("note_id,cohort")


def test_extract_accepts_existing_manifest(runner, tmp_path):
    invoke(runner, "cohort", "--notes", NOTES, "--diagnoses", DIAGNOSES, "--out-dir", tmp_path)
    out2 = tmp_path / "second"
    invoke(
        runner,
        "extract",
        "--notes", NOTES,
        "--manifest", tmp_path / "manifest.csv",
        "--list", "list1",
        "--out-dir", out2,
    )
    # manifest came from the caller, so extract does not rewrite it
    assert not (out2 / "manifest.csv").exists()
    header = (out2 / "feature_matrix.csv").read_text().splitlines()[1]
    assert header.count("list1:") == 10


def test_extract_requires_cohort_source(runner, tmp_path):
    result = runner.invoke(
        main, ["extract", "--notes", NOTES, "--out-dir", str(tmp_path)]
    )
    assert result.exit_code == 1
    assert "needs --manifest or --diagnoses" in result.stderr


def test_extract_http_requires_base_url(runner, tmp_path):
    result = runner.invoke(
        main,
        [
            "extract",
            "--notes", NOTES,
            "--diagnoses", DIAGNOSES,
            "--backend", "http",
            "--out-dir", str(tmp_path),
        ],
    )
    assert result.exit_code == 1
    assert "requires --base-url" in result.stderr


def test_extract_rejects_non_numeric_note_fields_before_artifacts(runner, tmp_path):
    record = json.loads(Path(NOTES).read_text(encoding="utf-8").splitlines()[0])
    for field in ("age", "history_years"):
        notes = tmp_path / f"bad_{field}.jsonl"
        notes.write_text(json.dumps({**record, field: "unknown"}) + "\n", encoding="utf-8")
        out = tmp_path / field
        result = runner.invoke(
            main, ["extract", "--notes", str(notes), "--diagnoses", DIAGNOSES, "--out-dir", str(out)]
        )
        assert result.exit_code == 1, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stderr.count("\n") == 1
        assert f"field '{field}' is not a number: 'unknown'" in result.stderr
        assert not out.exists() or not list(out.iterdir())


def _demo_lines() -> list:
    return Path(NOTES).read_text(encoding="utf-8").splitlines(keepends=True)


def _spy_on_the_mock(monkeypatch, add: str = "") -> list:
    """Count the mock backend's calls, appending ``add`` to every completion."""
    calls = []
    complete_text = MockBackend.complete_text

    def spy(self, request):
        calls.append(request)
        return complete_text(self, request) + add

    monkeypatch.setattr(MockBackend, "complete_text", spy)
    return calls


@pytest.mark.parametrize(
    "last_line, reason",
    [
        pytest.param(_demo_lines()[0], "duplicate note_id", id="duplicate-id"),
        pytest.param('{"note_id": "N99", "patient_id": "P99"}\n', "field 'text'", id="no-text"),
        pytest.param('{"note_id": "N99", \n', "invalid JSON", id="bad-json"),
    ],
)
def test_a_bad_last_note_fails_before_any_request(runner, tmp_path, monkeypatch, last_line, reason):
    notes = tmp_path / "notes.jsonl"
    notes.write_text("".join(_demo_lines()) + last_line)
    calls = _spy_on_the_mock(monkeypatch)
    out = tmp_path / "out"
    result = invoke(
        runner, "extract", "--notes", notes, "--diagnoses", DIAGNOSES, "--out-dir", out, expect=1
    )
    assert result.stderr.count("\n") == 1 and reason in result.stderr
    assert calls == []
    assert not list(out.iterdir())


def test_notes_changed_between_the_two_reads_is_one_error_line(runner, tmp_path, monkeypatch):
    lines = _demo_lines()
    notes = tmp_path / "notes.jsonl"
    notes.write_text("".join(lines))
    load_notes = cohort_mod.load_notes

    def load_then_truncate(path):
        loaded = load_notes(path)
        notes.write_text("".join(lines[:-3]))
        return loaded

    monkeypatch.setattr(cohort_mod, "load_notes", load_then_truncate)
    out = tmp_path / "out"
    result = invoke(
        runner, "extract", "--notes", notes, "--diagnoses", DIAGNOSES, "--out-dir", out, expect=1
    )
    missing = json.loads(lines[-3])["note_id"]
    assert result.stderr == (
        f"error: {notes}: 3 manifest note(s) were gone when the notes were read again "
        f"(first: {missing!r}); the file changed during the run\n"
    )
    assert not list(out.iterdir())


def test_artifact_rows_follow_a_permuted_manifest(runner, tmp_path, monkeypatch):
    _spy_on_the_mock(monkeypatch, add=", not a phenotype")  # one reject per completion
    args = ["extract", "--notes", NOTES, "--chunk-budget", 40]
    invoke(runner, *args, "--diagnoses", DIAGNOSES, "--out-dir", tmp_path / "file_order")
    first = tmp_path / "file_order"
    provenance, header, *rows = (first / "manifest.csv").read_text().splitlines(keepends=True)
    random.Random(5).shuffle(rows)
    manifest = tmp_path / "permuted.csv"
    manifest.write_text(provenance + header + "".join(rows))
    invoke(runner, *args, "--manifest", manifest, "--out-dir", tmp_path / "permuted")

    order = [row.split(",")[0] for row in rows]
    for name, note_of in [
        ("feature_matrix.csv", lambda line: line.split(",")[0]),
        ("reject_log.jsonl", lambda line: json.loads(line)["note_id"]),
    ]:
        # a CSV's provenance line names its own cohort source; its header and rows follow
        skip = 1 if name.endswith(".csv") else 0
        lines = (first / name).read_text().splitlines(keepends=True)[skip:]
        body = sorted(lines[skip:], key=lambda line: order.index(note_of(line)))
        permuted = (tmp_path / "permuted" / name).read_text().splitlines(keepends=True)[skip:]
        assert "".join(permuted) == "".join(lines[:skip] + body)
    assert len((first / "reject_log.jsonl").read_text().splitlines()) > len(order)


def _note_lines(count: int, chars: int) -> str:
    text = ("Seen today for review of memory loss and hypertension. " * (chars // 50))[:chars]
    return "".join(
        json.dumps({"note_id": f"N{i}", "patient_id": f"P{i}", "text": text, "age": 70,
                    "history_years": 5, "on_dementia_meds": False}) + "\n"
        for i in range(count)
    )


def test_extract_memory_does_not_grow_with_note_text(runner, tmp_path):
    # one category, and one chunk per note: one request per note
    one_category = tmp_path / "one_category.json"
    document = to_document(builtin_list("list1"))
    document["categories"] = document["categories"][1:2]
    one_category.write_text(json.dumps(document))
    diagnoses = tmp_path / "diagnoses.csv"
    diagnoses.write_text("patient_id,icd_version,icd_code\n")
    chars, small = 20_000, 40

    def peak(notes: int) -> int:
        path = tmp_path / f"{notes}.jsonl"
        path.write_text(_note_lines(notes, chars))
        args = ["extract", "--notes", path, "--diagnoses", diagnoses, "--list", one_category,
                "--chunk-budget", 8192, "--out-dir", tmp_path / str(notes)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            invoke(runner, *args)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    peak(small)  # loads whatever a first run loads
    added_text = 3 * small * chars
    assert peak(4 * small) - peak(small) < added_text / 3


def test_extract_rejects_bad_config_counts_before_artifacts(runner, tmp_path):
    bad_settings = [
        ("max_in_flight", "4"),
        ("max_in_flight", 0),
        ("chunk_budget", True),
        ("chunk_budget", 12.5),
        ("max_output_tokens", -1),
    ]
    for i, (key, value) in enumerate(bad_settings):
        config = tmp_path / f"config{i}.json"
        config.write_text(json.dumps({key: value}))
        out = tmp_path / f"out{i}"
        result = runner.invoke(
            main,
            ["--config", str(config), "extract", "--notes", NOTES, "--diagnoses", DIAGNOSES,
             "--out-dir", str(out)],
        )
        assert result.exit_code == 1, (key, value, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: {key} must be an integer >= 1, got {value!r}\n"
        assert not out.exists() or not list(out.iterdir())


TERMS = str(data_path("demo_terms.csv"))
ANNOTATIONS = str(data_path("demo_ner.jsonl"))
EXTRACT = ["extract", "--notes", NOTES, "--diagnoses", DIAGNOSES]
DICTIONARY = ["baseline", "--method", "dictionary", "--notes", NOTES, "--terms", TERMS]
NER = ["baseline", "--method", "ner", "--annotations", ANNOTATIONS]


@pytest.mark.parametrize(
    "command, key, value",
    [
        (EXTRACT, "temperature", "0.5"),
        (EXTRACT, "draws", "2"),
        (EXTRACT, "sample_per_cohort", "3"),
        (EXTRACT, "list", 5),
        (EXTRACT, "model", 5),
        (EXTRACT, "backend", "bogus"),
        (EXTRACT, "per_patient", 1),
        (["cohort", "--notes", NOTES, "--diagnoses", DIAGNOSES], "seed", "x"),
        (["cohort", "--notes", NOTES, "--diagnoses", DIAGNOSES], "seed", -1),
        (["cluster", "--matrix", "MATRIX"], "restarts", "10"),
        (["cluster", "--matrix", "MATRIX"], "tol", "0.1"),
        (["cluster", "--matrix", "MATRIX"], "setting", "2:three_way"),
        (["report", "--matrix", "MATRIX"], "restarts", 0),
        (DICTIONARY, "min_score", "0.8"),
        (DICTIONARY, "similarity_threshold", "0.8"),
        (DICTIONARY, "similarity_threshold", 0),
        (DICTIONARY, "min_doc_freq", "2"),
        (["stats"], "fixture", ["absent.csv"]),
        (DICTIONARY, "config", "other.json"),
        (EXTRACT, "temperature", float("nan")),
        (EXTRACT, "temperature", float("inf")),
        (["cluster", "--matrix", "MATRIX"], "tol", float("nan")),
        (["cluster", "--matrix", "MATRIX"], "tol", float("inf")),
        (NER, "min_score", float("nan")),
        (NER, "min_score", float("inf")),
        (NER, "min_score", 1.5),
        (DICTIONARY, "min_term_length", -3),
        (["cohort", "--notes", NOTES, "--diagnoses", DIAGNOSES], "sample_per_cohort", 0),
    ],
)
def test_bad_config_value_is_one_line_before_artifacts(runner, extracted, tmp_path, command, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    args = [str(extracted) if a == "MATRIX" else a for a in command]
    result = runner.invoke(main, ["--config", str(config), *args, "--out-dir", str(out)])
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: {key}") and result.stderr.count("\n") == 1
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize(
    "command, key",
    [(EXTRACT, "max_inflight"), (DICTIONARY, "threshold"), (["stats"], "Seed")],
)
def test_unknown_config_key_is_one_line_before_artifacts(runner, tmp_path, command, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, key: 1}))
    out = tmp_path / "out"
    result = runner.invoke(main, ["--config", str(config), *command, "--out-dir", str(out)])
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr == f"error: {key} names no option of any command\n"
    assert not out.exists() or not list(out.iterdir())


def test_config_keys_of_other_commands_are_ignored(runner, tmp_path):
    invoke(runner, *DICTIONARY, "--out-dir", tmp_path / "flags")
    config = tmp_path / "config.json"
    # extract, cluster and the group's own options: one file serves every command
    config.write_text(json.dumps(
        {"max_in_flight": 3, "restarts": 4, "out_dir": str(tmp_path / "config"), "verbose": False}
    ))
    invoke(runner, "--config", config, *DICTIONARY)
    name = "dictionary_matrix.csv"
    assert (tmp_path / "flags" / name).read_bytes() == (tmp_path / "config" / name).read_bytes()


def test_config_verbose_logs_what_the_flag_logs(runner, tmp_path, caplog):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"verbose": True}))
    root = logging.getLogger()
    level = root.level
    debug = {}
    try:
        for name, group_args in (("quiet", []), ("flag", ["--verbose"]), ("config", ["--config", config])):
            caplog.clear()
            invoke(runner, *group_args, *DICTIONARY, "--out-dir", tmp_path / name)
            debug[name] = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    finally:
        root.setLevel(level)
    assert debug["quiet"] == []
    assert debug["flag"] and debug["config"] == debug["flag"]


@pytest.mark.parametrize(
    "command",
    [
        ["report", "--matrix", "MATRIX", "--restarts", "0"],
        ["cluster", "--matrix", "MATRIX", "--seed", "-1"],
        [*EXTRACT, "--temperature", "nan"],
        [*EXTRACT, "--temperature", "inf"],
        ["cluster", "--matrix", "MATRIX", "--tol", "nan"],
        ["cluster", "--matrix", "MATRIX", "--tol", "inf"],
        [*NER, "--min-score", "nan"],
        [*NER, "--min-score", "inf"],
        [*NER, "--min-score", "-0.1"],
        [*DICTIONARY, "--min-term-length", "-3"],
        ["cohort", "--notes", NOTES, "--diagnoses", DIAGNOSES, "--sample-per-cohort", "0"],
    ],
)
def test_bad_flag_value_is_a_usage_error_before_artifacts(runner, extracted, tmp_path, command):
    out = tmp_path / "out"
    args = [str(extracted) if a == "MATRIX" else a for a in command]
    result = runner.invoke(main, [*args, "--out-dir", str(out)])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output + result.stderr
    assert f"Invalid value for '{command[-2]}'" in result.stderr
    assert not out.exists() or not list(out.iterdir())


NOTES_CSV_HEADER = b"note_id,patient_id,text\n"
MANIFEST_HEADER = b"note_id,patient_id,cohort\n"
BAD = "BAD"  # placeholder for the probe file in a command


@pytest.mark.parametrize(
    "name, source, command",
    [
        ("notes.jsonl", NOTES, ["extract", "--notes", BAD, "--diagnoses", DIAGNOSES]),
        ("notes.csv", NOTES_CSV_HEADER, ["extract", "--notes", BAD, "--diagnoses", DIAGNOSES]),
        ("diagnoses.csv", DIAGNOSES, ["extract", "--notes", NOTES, "--diagnoses", BAD]),
        ("manifest.csv", MANIFEST_HEADER, ["extract", "--notes", NOTES, "--manifest", BAD]),
        ("list.json", str(data_path("list1.json")), [*EXTRACT, "--list", BAD]),
        ("config.json", b"{}", ["--config", BAD, "stats", "--builtin-fixtures"]),
        ("ner.jsonl", ANNOTATIONS, ["baseline", "--method", "ner", "--annotations", BAD]),
        ("terms.csv", TERMS, [*DICTIONARY[:-2], "--terms", BAD]),
        ("rules.csv", str(data_path("mock_rules.csv")), [*EXTRACT, "--mock-rules", BAD]),
        ("counts.csv", str(data_path("counts_list1.csv")), ["stats", "--fixture", BAD]),
        ("matrix.csv", "MATRIX", ["report", "--matrix", BAD]),
        ("diagnoses.csv", DIAGNOSES, ["cohort", "--notes", NOTES, "--diagnoses", BAD]),
        ("long_note.csv", None, ["extract", "--notes", BAD, "--diagnoses", DIAGNOSES]),
    ],
    ids=[
        "notes-jsonl", "notes-csv", "diagnoses", "manifest", "list", "config", "annotations",
        "terms", "mock-rules", "fixture", "matrix", "cohort-diagnoses", "csv-note-over-field-limit",
    ],
)
def test_unreadable_input_is_one_error_line(runner, extracted, tmp_path, name, source, command):
    """A 0xE9 byte after valid content, or a CSV note over the csv module's field limit."""
    path = tmp_path / name
    if source is None:
        path.write_bytes(NOTES_CSV_HEADER + b"N1,P1," + b"x" * 180_000 + b"\n")
    else:
        valid = source if isinstance(source, bytes) else Path(
            extracted if source == "MATRIX" else source
        ).read_bytes()
        path.write_bytes(valid + b"\xe9\n")
    out = tmp_path / "out"
    args = [str(path) if a == BAD else a for a in command]
    result = runner.invoke(main, [*args, "--out-dir", str(out)])
    assert result.exit_code == 1, result.output + result.stderr
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr
    if source is None:
        assert result.stderr.startswith(f"error: {path}:2: field larger than field limit")
    else:
        assert result.stderr.startswith(f"error: cannot read {path}: ")
    assert not out.exists() or not list(out.iterdir())


def _input_bytes(*heads):
    """Arbitrary bytes, or arbitrary UTF-8 text, after one of ``heads``."""
    tails = st.binary(max_size=120) | st.text(max_size=120).map(str.encode)
    return st.sampled_from(heads).flatmap(lambda head: tails.map(head.__add__))


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    suffix=st.sampled_from([".jsonl", ".csv"]),
    notes=_input_bytes(b"", NOTES_CSV_HEADER, Path(NOTES).read_bytes()[:300]),
    diagnoses=_input_bytes(b"", Path(DIAGNOSES).read_bytes()[:80]),
)
def test_arbitrary_input_bytes_never_end_in_a_traceback(runner, tmp_path, suffix, notes, diagnoses):
    notes_path = tmp_path / f"notes{suffix}"
    notes_path.write_bytes(notes)
    diagnoses_path = tmp_path / "diagnoses.csv"
    diagnoses_path.write_bytes(diagnoses)
    result = runner.invoke(
        main,
        ["cohort", "--notes", str(notes_path), "--diagnoses", str(diagnoses_path),
         "--out-dir", str(tmp_path / "out")],
    )
    assert result.exit_code in (0, 1, 2), result.stderr
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output + result.stderr


DEEP_JSON = "[" * 100_000 + "\n"
SURROGATE_NOTE = '{"note_id": "N\\ud800", "patient_id": "P1", "text": "x"}\n'


@pytest.mark.parametrize(
    "name, text, command, reason",
    [
        ("notes.jsonl", DEEP_JSON, ["cohort", "--notes", BAD, "--diagnoses", DIAGNOSES],
         "nested too deeply"),
        ("config.json", DEEP_JSON, ["--config", BAD, "stats", "--builtin-fixtures"],
         "nested too deeply"),
        ("list.json", DEEP_JSON, [*EXTRACT, "--list", BAD], "nested too deeply"),
        ("notes.jsonl", SURROGATE_NOTE, ["cohort", "--notes", BAD, "--diagnoses", DIAGNOSES],
         "lone surrogate"),
    ],
    ids=["deep-notes", "deep-config", "deep-list", "surrogate-note-id"],
)
def test_undecodable_json_is_one_error_line(runner, tmp_path, name, text, command, reason):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    args = [str(path) if a == BAD else a for a in command]
    result = runner.invoke(main, [*args, "--out-dir", str(out)])
    assert result.exit_code == 1, result.output + result.stderr
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: {path}") and result.stderr.count("\n") == 1
    assert "invalid JSON: " in result.stderr and reason in result.stderr, result.stderr
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("cell", ["300", "-1", "2"])
def test_matrix_cell_other_than_0_or_1_is_one_error_line(runner, extracted, tmp_path, cell):
    provenance, header, first, *rest = Path(extracted).read_text(encoding="utf-8").splitlines()
    path = tmp_path / "matrix.csv"
    fields = first.split(",")
    path.write_text("\n".join([provenance, header, ",".join([*fields[:2], cell, *fields[3:]]), *rest]))
    result = runner.invoke(main, ["stats", "--matrix", str(path), "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output + result.stderr
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr == f"error: {path}:3: feature cells must be 0 or 1\n"


@pytest.mark.parametrize(
    "command, target",
    [
        (["cohort", "--notes", NOTES, "--diagnoses", DIAGNOSES, "--out-dir", "FILE/sub"], "FILE/sub"),
        (["cohort", "--notes", NOTES, "--diagnoses", DIAGNOSES, "--out-manifest", "nodir/sub/m.csv"],
         "nodir/sub/m.csv"),
        ([*EXTRACT, "--out-dir", "FILE/sub"], "FILE/sub"),
        (["report", "--matrix", "MATRIX", "--out-dir", "FILE/sub"], "FILE/sub"),
        (["export-defaults", "--out-dir", "FILE/sub"], "FILE/sub"),
    ],
    ids=["cohort-out-dir", "cohort-out-manifest", "extract-out-dir", "report-out-dir", "export-out-dir"],
)
def test_write_failure_is_one_error_line(runner, extracted, tmp_path, command, target):
    """An output path under a regular file, or under a directory that does not exist."""
    (tmp_path / "FILE").write_text("")
    paths = {"MATRIX": str(extracted), target: str(tmp_path / target)}
    result = runner.invoke(main, [paths.get(a, a) for a in command])
    assert result.exit_code == 1, result.output + result.stderr
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: cannot write {tmp_path / target}: ")
    assert result.stderr.count("\n") == 1, result.stderr


def test_config_file_gives_the_artifacts_of_equivalent_flags(runner, tmp_path):
    flags = ["--list", "list1", "--mode", "few_shot", "--chunk-budget", 40, "--per-patient", "--seed", 4]
    invoke(runner, *EXTRACT, *flags, "--out-dir", tmp_path / "flags")
    config = tmp_path / "config.json"
    # an integer given for a float option is taken as the float a flag would give
    config.write_text(json.dumps(
        {"list": "list1", "mode": "few_shot", "chunk_budget": 40, "per_patient": True, "seed": 4,
         "temperature": 0, "out_dir": str(tmp_path / "config")}
    ))
    invoke(runner, "--config", config, *EXTRACT)
    for name in ("feature_matrix.csv", "feature_matrix_patients.csv", "manifest.csv"):
        assert (tmp_path / "flags" / name).read_bytes() == (tmp_path / "config" / name).read_bytes()
    reports = [json.loads((tmp_path / d / "run_report.json").read_text()) for d in ("flags", "config")]
    assert reports[0]["provenance"] == reports[1]["provenance"]


def test_extract_unreachable_endpoint_fails_before_artifacts(runner, tmp_path):
    out = tmp_path / "noart"
    result = runner.invoke(
        main,
        [
            "extract",
            "--notes", NOTES,
            "--diagnoses", DIAGNOSES,
            "--backend", "http",
            "--base-url", "http://127.0.0.1:9",
            "--out-dir", str(out),
        ],
    )
    assert result.exit_code == 1
    assert "unreachable" in result.stderr
    assert list(out.iterdir()) == []  # nothing was written


@pytest.mark.parametrize(
    "url",
    [
        "http://127.0.0.1:99999",
        "http://127.0.0.1:abc",
        "ftp://127.0.0.1:LIVE",
        "http://127.0.0.1:LIVE/a b",
        "http://127.0.0.1:LIVE/caf\u00e9",
    ],
    ids=["port-out-of-range", "port-not-a-number", "ftp-with-a-listener", "space", "non-ascii"],
)
def test_bad_base_url_is_one_error_line(runner, tmp_path, url):
    out = tmp_path / "out"
    # A live listener, so that only the URL's scheme or path is wrong.
    with socket.create_server(("127.0.0.1", 0)) as listener:
        url = url.replace("LIVE", str(listener.getsockname()[1]))
        result = runner.invoke(
            main,
            ["extract", "--notes", NOTES, "--diagnoses", DIAGNOSES,
             "--backend", "http", "--base-url", url, "--out-dir", str(out)],
        )
    assert result.exit_code == 1, result.output + result.stderr
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# extract (live local endpoint)


class _StaticHandler(BaseHTTPRequestHandler):
    status = 200
    document: dict = {"choices": [{"message": {"content": "none"}}]}

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        payload = json.dumps(self.document).encode("utf-8")
        self.send_response(self.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def _serve(handler):
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, f"http://127.0.0.1:{server.server_address[1]}"


def _one_note_corpus(tmp_path):
    notes = tmp_path / "one_note.jsonl"
    notes.write_text(
        json.dumps(
            {
                "note_id": "N1",
                "patient_id": "P1",
                "text": "Patient reports feeling well today.",
                "age": 70,
                "history_years": 5.0,
                "on_dementia_meds": False,
            }
        )
        + "\n"
    )
    diagnoses = tmp_path / "one_diag.csv"
    diagnoses.write_text("patient_id,icd_version,icd_code\nP1,10,I10\n")
    return notes, diagnoses


def test_extract_against_local_http_endpoint(runner, tmp_path):
    notes, diagnoses = _one_note_corpus(tmp_path)

    class AllNone(_StaticHandler):
        pass

    server, url = _serve(AllNone)
    try:
        result = invoke(
            runner,
            "extract",
            "--notes", notes,
            "--diagnoses", diagnoses,
            "--backend", "http",
            "--base-url", url,
            "--list", "list1",
            "--out-dir", tmp_path / "out",
        )
    finally:
        server.shutdown()
        server.server_close()
    assert "0 failed completions" in result.output
    matrix_lines = (tmp_path / "out" / "feature_matrix.csv").read_text().splitlines()
    assert matrix_lines[2].startswith("N1,CN,") and matrix_lines[2].endswith(",0" * 5)


def test_extract_exit_code_2_on_completion_failures(runner, tmp_path):
    notes, diagnoses = _one_note_corpus(tmp_path)

    class AlwaysBad(_StaticHandler):
        status = 400
        document = {"error": {"message": "bad request"}}

    server, url = _serve(AlwaysBad)
    try:
        result = runner.invoke(
            main,
            [
                "extract",
                "--notes", str(notes),
                "--diagnoses", str(diagnoses),
                "--backend", "http",
                "--base-url", url,
                "--list", "list1",
                "--out-dir", str(tmp_path / "out"),
            ],
        )
    finally:
        server.shutdown()
        server.server_close()
    assert result.exit_code == 2
    # the pointer names the lines that say which cells failed; run_report.json only counts them
    assert result.stderr.splitlines()[-1] == (
        "warning: 6 completions failed; the WARNING lines above "
        "name each one's note, chunk and category"
    )
    # artifacts still exist so the failure can be inspected
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert report["failures"] == 6
    assert (tmp_path / "out" / "feature_matrix.csv").exists()


@pytest.mark.parametrize(
    "status, with_diagnoses, expect",
    [
        (200, True, 0),
        (400, True, 2),  # failed completions
        (200, False, 1),  # a ConfigError after the cache is open
    ],
)
def test_extract_closes_the_cache_on_every_exit(
    runner, tmp_path, monkeypatch, status, with_diagnoses, expect
):
    notes, diagnoses = _one_note_corpus(tmp_path)
    # Hold every store the run opens, so only an explicit close ends its log.
    opened = []
    store_init = ResponseStore.__init__

    def held(self, path):
        store_init(self, path)
        opened.append(self)

    monkeypatch.setattr(ResponseStore, "__init__", held)
    server, url = _serve(type("Static", (_StaticHandler,), {"status": status}))
    cache = tmp_path / "cache"
    try:
        invoke(
            runner,
            "extract",
            "--notes", notes,
            *(["--diagnoses", diagnoses] if with_diagnoses else []),
            "--backend", "http",
            "--base-url", url,
            "--list", "list1",
            "--cache-dir", cache,
            "--out-dir", tmp_path / "out",
            expect=expect,
        )
    finally:
        server.shutdown()
        server.server_close()
    assert len(opened) == 1
    assert [p.name for p in cache.iterdir()] == ["responses.sqlite"]


def test_second_extract_with_the_same_cache_hits_every_request(runner, tmp_path):
    extract = ["extract", "--notes", NOTES, "--diagnoses", DIAGNOSES, "--list", "list1",
               "--cache-dir", tmp_path / "cache"]
    for run in ("cold", "warm"):
        invoke(runner, *extract, "--out-dir", tmp_path / run)
    cold, warm = (json.loads((tmp_path / run / "run_report.json").read_text())
                  for run in ("cold", "warm"))
    assert cold["cache_hits"] == 0
    assert warm["cache_hits"] == warm["requests"] == cold["requests"] > 0
    matrices = [(tmp_path / run / "feature_matrix.csv").read_bytes() for run in ("cold", "warm")]
    assert matrices[0] == matrices[1]


@pytest.mark.parametrize("kind", ["text file", "directory"])
def test_bad_cache_store_is_one_line_before_artifacts(runner, tmp_path, kind):
    store = tmp_path / "cache" / "responses.sqlite"
    if kind == "directory":
        store.mkdir(parents=True)
    else:
        store.parent.mkdir()
        store.write_text("not a database\n" * 100)
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["extract", "--notes", NOTES, "--diagnoses", DIAGNOSES,
         "--cache-dir", str(store.parent), "--out-dir", str(out)],
    )
    assert result.exit_code == 1
    assert result.stderr.startswith("error: cannot open the response cache")
    assert len(result.stderr.splitlines()) == 1
    assert list(out.iterdir()) == []


# numpy and the modules that use it; only stats, cluster, pca and report load them
ANALYTICS = (
    "numpy", "pheno_mine.stats", "pheno_mine.clustering", "pheno_mine.pca", "pheno_mine.figures"
)


def after_cli(args: list, expression: str, environ=os.environ):
    """The JSON value of ``expression`` in a fresh interpreter, started with ``environ``,
    that imported the CLI and ran it on ``args``, if any."""
    code = "import json, os, sys; from pheno_mine.cli import main\n"
    if args:
        code += f"main({[str(a) for a in args]!r}, standalone_mode=False)\n"
    code += f"print(json.dumps({expression}))"
    path = [str(Path(pheno_mine.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(args: list, modules) -> list:
    """Which of ``modules`` a fresh interpreter has loaded after running the CLI on ``args``."""
    return after_cli(args, f"sorted(set({list(modules)!r}) & set(sys.modules))")


def test_extract_without_a_cache_never_loads_sqlite3(tmp_path):
    args = ["extract", "--notes", NOTES, "--diagnoses", DIAGNOSES, "--out-dir", tmp_path]
    assert loaded_after(args, ("sqlite3", "requests", "urllib.request", *ANALYTICS)) == []
    assert (tmp_path / "feature_matrix.csv").is_file()


@pytest.mark.parametrize(
    "command, artifact",
    [
        (DICTIONARY, "dictionary_matrix.csv"),
        (NER, "ner_matrix.csv"),
        (["cohort", "--notes", NOTES, "--diagnoses", DIAGNOSES], "manifest.csv"),
        (["export-defaults"], "combined.json"),
    ],
)
def test_commands_other_than_analytics_never_load_numpy(tmp_path, command, artifact):
    assert loaded_after([*command, "--out-dir", tmp_path], ANALYTICS) == []
    assert (tmp_path / artifact).is_file()


def test_analytics_commands_load_numpy(extracted, tmp_path):
    args = ["pca", "--matrix", extracted, "--out-dir", tmp_path]
    assert loaded_after(args, ANALYTICS) == ["numpy", "pheno_mine.figures", "pheno_mine.pca"]


def blas_environ(**variables) -> dict:
    """This environment without any BLAS thread count (an in-process CLI run may have set
    one here), plus ``variables``."""
    environ = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    return {**environ, **variables}


def test_analytics_run_blas_on_one_thread_by_default(extracted, tmp_path):
    args = ["pca", "--matrix", extracted, "--out-dir", tmp_path]
    tasks = "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None"
    omp, threads = after_cli(args, f"[os.environ.get('OMP_NUM_THREADS'), {tasks}]", blas_environ())
    assert omp == "1"
    if threads is not None:
        assert threads == 1  # no BLAS worker thread beside the main one


def test_analytics_keep_a_blas_thread_count_the_caller_set(extracted, tmp_path):
    args = ["pca", "--matrix", extracted, "--out-dir", tmp_path]
    expression = "os.environ.get('OMP_NUM_THREADS')"
    assert after_cli(args, expression, blas_environ(OMP_NUM_THREADS="2")) == "2"


def test_importing_the_cli_sets_no_blas_thread_count():
    assert after_cli([], "os.environ.get('OMP_NUM_THREADS')", blas_environ()) is None


@pytest.mark.parametrize("source", ["demo", "generated"])
def test_cluster_artifacts_do_not_depend_on_the_blas_thread_count(extracted, tmp_path, source):
    # 37 columns, the demo's and the bench's width; a wider matrix is not covered
    matrix = extracted
    if source == "generated":
        rng = random.Random(31)
        matrix = tmp_path / "generated.csv"
        FeatureMatrix(
            note_ids=[f"N{i:04d}" for i in range(1000)],
            cohorts=[COHORTS[i % 3] for i in range(1000)],
            columns=feature_index(builtin_list("combined")),
            rows=[bytes(rng.random() < 0.3 for _ in range(37)) for _ in range(1000)],
        ).to_csv(matrix)
    artifacts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        after_cli(["cluster", "--matrix", matrix, "--out-dir", out], "None",
                  blas_environ(OMP_NUM_THREADS=threads))
        artifacts.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert artifacts[0] == artifacts[1]


# ---------------------------------------------------------------------------
# stats / cluster / pca / report


@pytest.fixture(scope="module")
def extracted(tmp_path_factory):
    out = tmp_path_factory.mktemp("extracted")
    result = CliRunner().invoke(
        main,
        [
            "extract",
            "--notes", NOTES,
            "--diagnoses", DIAGNOSES,
            "--out-dir", str(out),
            "--seed", "0",
        ],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    return out / "feature_matrix.csv"


def test_stats_from_matrix(runner, extracted, tmp_path):
    result = invoke(runner, "stats", "--matrix", extracted, "--out-dir", tmp_path)
    assert "Memory Indicators" in result.output
    csv_lines = (tmp_path / "stats_report.csv").read_text().splitlines()
    assert csv_lines[1] == "list,category,comparison,statistic,df,p_value,yates,stars"
    assert (tmp_path / "stats_report.txt").exists()


def test_stats_builtin_fixtures_reproduce_reference_stars(runner, tmp_path):
    result = invoke(runner, "stats", "--builtin-fixtures", "--out-dir", tmp_path)
    text = (tmp_path / "stats_report.txt").read_text()
    assert "[list1]" in text and "[list2]" in text
    assert "Neuroimaging findings" in text
    csv_text = (tmp_path / "stats_report.csv").read_text()
    assert "list1,Comorbidities,Overall,9.92496" in csv_text


def test_stats_uniform_fixture_is_all_ns(runner, tmp_path):
    fixture = tmp_path / "uniform.csv"
    rows = ["list,category,cohort,n_total,n_none"]
    for category in ("Flat one", "Flat two"):
        for cohort in ("CN", "MCI", "ADRD"):
            rows.append(f"u,{category},{cohort},500,250")
    fixture.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    invoke(runner, "stats", "--fixture", fixture, "--out-dir", out)
    csv_lines = (out / "stats_report.csv").read_text().splitlines()
    data = [line.split(",") for line in csv_lines[2:]]
    assert len(data) == 8
    assert all(row[-1] == "ns" for row in data)
    assert all(float(row[5]) == pytest.approx(1.0) for row in data)


def test_stats_requires_exactly_one_source(runner, extracted, tmp_path):
    result = runner.invoke(
        main,
        ["stats", "--matrix", str(extracted), "--builtin-fixtures", "--out-dir", str(tmp_path)],
    )
    assert result.exit_code == 1
    assert "exactly one" in result.stderr
    result = runner.invoke(main, ["stats", "--out-dir", str(tmp_path)])
    assert result.exit_code == 1


def test_stats_fixture_and_builtin_fixtures_is_one_error_line(runner, tmp_path):
    out = tmp_path / "out"
    fixture = str(data_path("counts_list1.csv"))
    result = runner.invoke(
        main, ["stats", "--fixture", fixture, "--builtin-fixtures", "--out-dir", str(out)]
    )
    assert result.exit_code == 1
    assert result.stderr == (
        "error: stats needs exactly one of --matrix, --fixture or --builtin-fixtures\n"
    )
    assert not out.exists() or not list(out.iterdir())


def test_builtin_fixtures_hash_no_installation_path(runner, tmp_path, monkeypatch):
    invoke(runner, "stats", "--builtin-fixtures", "--out-dir", tmp_path / "here")
    # the same fixtures installed in another directory
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    for name in ("counts_list1.csv", "counts_list2.csv"):
        shutil.copy(data_path(name), elsewhere / name)
    monkeypatch.setattr("pheno_mine.cli.data_path", lambda name: elsewhere / name)
    invoke(runner, "stats", "--builtin-fixtures", "--out-dir", tmp_path / "there")
    for name in ("stats_report.csv", "stats_report.txt"):
        assert (tmp_path / "here" / name).read_bytes() == (tmp_path / "there" / name).read_bytes()


@pytest.mark.parametrize("command", ["stats", "report"])
def test_matrix_without_phenotype_columns_is_one_error_line(runner, extracted, tmp_path, command):
    provenance = Path(extracted).read_text(encoding="utf-8").splitlines()[0]
    path = tmp_path / "matrix.csv"
    path.write_text("\n".join([provenance, "note_id,cohort", "N1,CN", "N2,MCI", "N3,ADRD", ""]))
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "--matrix", str(path), "--out-dir", str(out)])
    assert result.exit_code == 1, result.output + result.stderr
    assert result.stderr == "error: matrix has no phenotype column\n"
    assert list(out.iterdir()) == []


def test_cluster_default_settings(runner, extracted, tmp_path):
    result = invoke(runner, "cluster", "--matrix", extracted, "--out-dir", tmp_path, "--seed", 0)
    assert "k=2 collapsed_patient" in result.output
    assert "k=3 three_way" in result.output
    document = json.loads((tmp_path / "clustering_report.json").read_text())
    assert [run["setting"]["k"] for run in document["runs"]] == [2, 3]
    assert document["provenance"]["seed"] == 0
    assert (tmp_path / "clustering_report.txt").exists()


def test_cluster_refuses_a_matrix_with_no_columns(runner, tmp_path):
    invoke(runner, *COHORT, "--out-dir", tmp_path)
    # no concept of the demo reaches the default --min-doc-freq of 50
    invoke(runner, *DICTIONARY, "--manifest", tmp_path / "manifest.csv", "--out-dir", tmp_path)
    out = tmp_path / "out"
    result = invoke(
        runner, "cluster", "--matrix", tmp_path / "dictionary_matrix.csv", "--out-dir", out, expect=1
    )
    assert result.stderr == "error: feature array has no columns (30 rows x 0)\n"
    assert list(out.iterdir()) == []


def test_cluster_rejects_malformed_setting(runner, extracted, tmp_path):
    result = runner.invoke(
        main,
        ["cluster", "--matrix", str(extracted), "--setting", "banana", "--out-dir", str(tmp_path)],
    )
    assert result.exit_code == 1
    assert "invalid clustering setting" in result.stderr


def test_pca_writes_csv_and_svg(runner, extracted, tmp_path):
    result = invoke(runner, "pca", "--matrix", extracted, "--out-dir", tmp_path)
    assert "% of variance" in result.output
    svg = (tmp_path / "pca_scatter.svg").read_text()
    assert svg.startswith("<svg ")
    csv_lines = (tmp_path / "pca_scatter.csv").read_text().splitlines()
    assert csv_lines[1] == "note_id,cohort,pc1,pc2"
    assert len(csv_lines) == 2 + 30


def test_report_bundles_all_artifacts(runner, extracted, tmp_path):
    result = invoke(runner, "report", "--matrix", extracted, "--out-dir", tmp_path, "--seed", 0)
    for name in (
        "stats_report.csv",
        "stats_report.txt",
        "clustering_report.json",
        "clustering_report.txt",
        "pca_scatter.csv",
        "pca_scatter.svg",
        "summary.txt",
    ):
        assert (tmp_path / name).exists(), name
    summary = (tmp_path / "summary.txt").read_text()
    assert "rows: 30  columns: 37" in summary
    assert "'ADRD': 10" in summary
    assert result.output.strip()


# ---------------------------------------------------------------------------
# baselines


def test_baseline_dictionary_respects_manifest(runner, tmp_path):
    invoke(
        runner,
        "cohort",
        "--notes", NOTES,
        "--diagnoses", DIAGNOSES,
        "--sample-per-cohort", 5,
        "--out-dir", tmp_path,
    )
    invoke(
        runner,
        "baseline",
        "--method", "dictionary",
        "--notes", NOTES,
        "--terms", data_path("demo_terms.csv"),
        "--manifest", tmp_path / "manifest.csv",
        "--min-doc-freq", 1,
        "--out-dir", tmp_path,
    )
    lines = (tmp_path / "dictionary_matrix.csv").read_text().splitlines()
    body = [l for l in lines if l and not l.startswith("#") and not l.startswith("note_id")]
    assert len(body) == 15  # restricted to the sampled manifest
    assert all(l.split(",")[1] in ("CN", "MCI", "ADRD") for l in body)


def test_baseline_dictionary_refuses_manifest_notes_absent_from_notes(runner, tmp_path):
    invoke(runner, "cohort", "--notes", NOTES, "--diagnoses", DIAGNOSES, "--out-dir", tmp_path)
    manifest = tmp_path / "manifest.csv"
    with manifest.open("a", encoding="utf-8") as fh:
        fh.write("GHOST,PX,CN\n")
    only_ghost = tmp_path / "only_ghost.csv"
    only_ghost.write_text("note_id,patient_id,cohort\nGHOST,PX,CN\n")
    # with no listed note in the notes file, the scan would find no note at all
    for listed in (manifest, only_ghost):
        out = tmp_path / f"out_{listed.stem}"
        result = invoke(
            runner,
            "baseline",
            "--method", "dictionary",
            "--notes", NOTES,
            "--terms", data_path("demo_terms.csv"),
            "--manifest", listed,
            "--min-doc-freq", 1,
            "--out-dir", out,
            expect=1,
        )
        assert result.stderr == (
            "error: manifest references 1 note(s) absent from the notes file (first: 'GHOST')\n"
        )
        assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "command",
    [[*DICTIONARY, "--min-doc-freq", 1], NER, ["extract", "--notes", NOTES]],
    ids=["dictionary", "ner", "extract"],
)
def test_baseline_refuses_a_manifest_that_lists_no_notes(runner, tmp_path, command):
    empty = tmp_path / "empty.csv"
    empty.write_text("note_id,patient_id,cohort\n")
    out = tmp_path / "out"
    result = invoke(runner, *command, "--manifest", empty, "--out-dir", out, expect=1)
    assert result.stderr == f"error: {empty}: the manifest lists no notes\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("method", ["dictionary", "ner"])
def test_baseline_refuses_concept_ids_sharing_a_column(runner, tmp_path, method):
    # 'A:1' is renamed to the column id 'A_1', which another concept already has
    if method == "dictionary":
        source = tmp_path / "terms.csv"
        source.write_text("term,concept_id\nhypertension,A:1\nconfusion,A_1\n")
        args = ["--notes", NOTES, "--terms", source, "--min-doc-freq", 1]
    else:
        source = tmp_path / "ner.jsonl"
        source.write_text(
            '{"note_id": "N1", "concept": "A:1", "score": 0.9}\n'
            '{"note_id": "N2", "concept": "A_1", "score": 0.9}\n'
        )
        args = ["--annotations", source]
    out = tmp_path / "out"
    result = invoke(
        runner, "baseline", "--method", method, *args, "--out-dir", out, expect=1
    )
    assert result.stderr == (
        f"error: {source}: concept ids 'A:1' and 'A_1' would share one matrix column\n"
    )
    assert list(out.iterdir()) == []


def test_baseline_ner_attaches_cohorts(runner, tmp_path):
    invoke(runner, "cohort", "--notes", NOTES, "--diagnoses", DIAGNOSES, "--out-dir", tmp_path)
    result = invoke(
        runner,
        "baseline",
        "--method", "ner",
        "--annotations", data_path("demo_ner.jsonl"),
        "--manifest", tmp_path / "manifest.csv",
        "--out-dir", tmp_path,
    )
    assert "18 notes x 9 concepts" in result.output
    lines = (tmp_path / "ner_matrix.csv").read_text().splitlines()
    body = [l for l in lines if l and not l.startswith("#") and not l.startswith("note_id")]
    assert all(l.split(",")[1] in ("CN", "MCI", "ADRD") for l in body)


def test_baseline_ner_keeps_only_the_notes_of_a_sampled_manifest(runner, tmp_path):
    invoke(runner, *COHORT, "--sample-per-cohort", 4, "--out-dir", tmp_path)
    manifest = tmp_path / "manifest.csv"
    listed = {l.split(",")[0] for l in manifest.read_text().splitlines()[2:]}
    result = invoke(runner, *NER, "--manifest", manifest, "--out-dir", tmp_path / "ner")
    # C1262477 is annotated only on notes the sample left out, so its column goes too
    assert "8 notes x 8 concepts" in result.output
    header, *lines = (tmp_path / "ner" / "ner_matrix.csv").read_text().splitlines()[1:]
    assert "C1262477" not in header
    assert {l.split(",")[0] for l in lines} <= listed
    assert all(l.split(",")[1] in ("CN", "MCI", "ADRD") for l in lines)
    # the same notes as the dictionary baseline keeps: every row has a cohort label
    invoke(runner, "report", "--matrix", tmp_path / "ner" / "ner_matrix.csv",
           "--out-dir", tmp_path / "report")
    unknown = tmp_path / "unknown.csv"
    unknown.write_text("note_id,patient_id,cohort\nGHOST,PX,CN\n")
    out = tmp_path / "none"
    result = invoke(runner, *NER, "--manifest", unknown, "--out-dir", out, expect=1)
    assert result.stderr == "error: the manifest lists none of the matrix's 18 notes\n"
    assert list(out.iterdir()) == []


def test_baseline_memory_does_not_grow_with_note_text(runner, tmp_path):
    chars, small = 5_000, 20

    def peak(notes: int) -> int:
        path = tmp_path / f"{notes}.jsonl"
        path.write_text(_note_lines(notes, chars))
        args = ["baseline", "--method", "dictionary", "--notes", path,
                "--terms", data_path("demo_terms.csv"), "--min-doc-freq", 0,
                "--out-dir", tmp_path / str(notes)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            invoke(runner, *args)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    peak(small)  # loads whatever a first run loads
    added_text = 3 * small * chars
    assert peak(4 * small) - peak(small) < added_text / 3


def test_baseline_dictionary_needs_inputs(runner, tmp_path):
    result = runner.invoke(
        main, ["baseline", "--method", "dictionary", "--out-dir", str(tmp_path)]
    )
    assert result.exit_code == 1
    assert "--notes and --terms" in result.stderr


def test_baseline_dictionary_warns_when_no_concept_reaches_min_doc_freq(runner, tmp_path):
    # the default --min-doc-freq of 50 is more than the 30 demo notes
    result = invoke(runner, *DICTIONARY, "--out-dir", tmp_path / "default")
    assert "(30 notes x 0 concepts)" in result.output
    assert result.stderr.count("warning:") == 1
    assert "--min-doc-freq 50" in result.stderr and "lower --min-doc-freq" in result.stderr
    result = invoke(runner, *DICTIONARY, "--min-doc-freq", 1, "--out-dir", tmp_path / "one")
    assert " 0 concepts" not in result.output
    assert "warning" not in result.stderr


# ---------------------------------------------------------------------------
# config_hash: every option of every command is classified

COHORT = ["cohort", "--notes", NOTES, "--diagnoses", DIAGNOSES]
HTTP = [*EXTRACT, "--backend", "http", "--base-url", "URL"]
WITH_MANIFEST = ["extract", "--notes", NOTES, "--manifest", "MANIFEST"]
FIXTURE1, FIXTURE2 = str(data_path("counts_list1.csv")), str(data_path("counts_list2.csv"))
BUILTIN = ["stats", "--builtin-fixtures"]
ELSEWHERE = ["--out-dir", "RUN/elsewhere"]
ON_MATRIX = {name: [name, "--matrix", "MATRIX"] for name in ("stats", "cluster", "pca", "report")}


def copy_of(path) -> str:
    """A placeholder for a copy of ``path`` at another path: the same content, spelt otherwise."""
    return f"COPY:{path}"


def change(kind, base, *flags) -> tuple:
    """A run of ``base`` and one of ``base`` with ``flags`` added, whose option is of ``kind``."""
    return kind, base, [*base, *flags]


# (command, option) -> runs whose one difference is that option. A "hashed" option changes
# config_hash; an "unhashed" or "ignored" one leaves every artifact both runs write as it
# was; a "seed" is recorded beside config_hash and leaves the hash as it was.
OPTION_RUNS = {
    ("cohort", "notes"): [change("hashed", COHORT, "--notes", copy_of(NOTES))],
    ("cohort", "diagnoses"): [change("hashed", COHORT, "--diagnoses", copy_of(DIAGNOSES))],
    ("cohort", "out_manifest"): [change("unhashed", COHORT, "--out-manifest", "RUN/manifest.csv")],
    ("cohort", "sample_per_cohort"): [change("hashed", COHORT, "--sample-per-cohort", 4)],
    ("cohort", "draws"): [
        change("ignored", COHORT, "--draws", 3),
        change("hashed", [*COHORT, "--sample-per-cohort", 4], "--draws", 3),
    ],
    ("cohort", "seed"): [change("seed", COHORT, "--seed", 7)],
    ("cohort", "out_dir"): [change("unhashed", COHORT, *ELSEWHERE)],
    ("extract", "notes"): [change("hashed", EXTRACT, "--notes", copy_of(NOTES))],
    ("extract", "manifest"): [change("hashed", WITH_MANIFEST, "--manifest", copy_of("MANIFEST"))],
    ("extract", "diagnoses"): [
        change("hashed", EXTRACT, "--diagnoses", copy_of(DIAGNOSES)),
        change("ignored", WITH_MANIFEST, "--diagnoses", DIAGNOSES),
    ],
    ("extract", "list"): [change("hashed", EXTRACT, "--list", "list1")],
    ("extract", "mode"): [change("hashed", EXTRACT, "--mode", "few_shot")],
    ("extract", "backend"): [change("hashed", [*HTTP, "--backend", "mock"], "--backend", "http")],
    ("extract", "mock_rules"): [
        change("hashed", EXTRACT, "--mock-rules", data_path("mock_rules.csv")),
        change("ignored", HTTP, "--mock-rules", data_path("mock_rules.csv")),
    ],
    ("extract", "base_url"): [
        change("hashed", HTTP, "--base-url", "URL/"),
        change("ignored", EXTRACT, "--base-url", "URL"),
    ],
    ("extract", "model"): [change("hashed", EXTRACT, "--model", "another-model")],
    ("extract", "temperature"): [change("hashed", EXTRACT, "--temperature", 0.5)],
    ("extract", "max_output_tokens"): [change("hashed", EXTRACT, "--max-output-tokens", 32)],
    ("extract", "max_in_flight"): [change("unhashed", HTTP, "--max-in-flight", 1)],
    ("extract", "cache_dir"): [change("unhashed", EXTRACT, "--cache-dir", "RUN/cache")],
    ("extract", "chunk_budget"): [change("hashed", EXTRACT, "--chunk-budget", 40)],
    ("extract", "sample_per_cohort"): [change("hashed", EXTRACT, "--sample-per-cohort", 4)],
    ("extract", "draws"): [
        change("ignored", EXTRACT, "--draws", 3),
        change("hashed", [*EXTRACT, "--sample-per-cohort", 4], "--draws", 3),
    ],
    ("extract", "per_patient"): [change("unhashed", EXTRACT, "--per-patient")],
    ("extract", "seed"): [change("seed", EXTRACT, "--seed", 7)],
    ("extract", "out_dir"): [change("unhashed", EXTRACT, *ELSEWHERE)],
    ("stats", "matrix"): [change("hashed", ON_MATRIX["stats"], "--matrix", copy_of("MATRIX"))],
    ("stats", "fixture"): [change("hashed", ["stats", "--fixture", FIXTURE1], "--fixture", FIXTURE2)],
    ("stats", "builtin_fixtures"): [
        ("hashed", ["stats", "--fixture", FIXTURE1, "--fixture", FIXTURE2], BUILTIN)
    ],
    ("stats", "granularity"): [
        change("hashed", ON_MATRIX["stats"], "--granularity", "phenotype"),
        change("ignored", BUILTIN, "--granularity", "phenotype"),
    ],
    ("stats", "yates"): [change("hashed", BUILTIN, "--yates", "off")],
    ("stats", "seed"): [change("seed", BUILTIN, "--seed", 7)],
    ("stats", "out_dir"): [change("unhashed", BUILTIN, *ELSEWHERE)],
    ("cluster", "matrix"): [change("hashed", ON_MATRIX["cluster"], "--matrix", copy_of("MATRIX"))],
    ("cluster", "setting"): [change("hashed", ON_MATRIX["cluster"], "--setting", "2:three_way")],
    ("cluster", "restarts"): [change("hashed", ON_MATRIX["cluster"], "--restarts", 2)],
    ("cluster", "max_iter"): [change("hashed", ON_MATRIX["cluster"], "--max-iter", 5)],
    ("cluster", "tol"): [change("hashed", ON_MATRIX["cluster"], "--tol", 0.5)],
    ("cluster", "seed"): [change("seed", ON_MATRIX["cluster"], "--seed", 7)],
    ("cluster", "out_dir"): [change("unhashed", ON_MATRIX["cluster"], *ELSEWHERE)],
    ("pca", "matrix"): [change("hashed", ON_MATRIX["pca"], "--matrix", copy_of("MATRIX"))],
    ("pca", "seed"): [change("seed", ON_MATRIX["pca"], "--seed", 7)],
    ("pca", "out_dir"): [change("unhashed", ON_MATRIX["pca"], *ELSEWHERE)],
    ("baseline", "method"): [
        change("hashed", [*DICTIONARY, "--annotations", ANNOTATIONS], "--method", "ner")
    ],
    ("baseline", "notes"): [
        change("hashed", DICTIONARY, "--notes", copy_of(NOTES)),
        change("ignored", NER, "--notes", NOTES),
    ],
    ("baseline", "terms"): [
        change("hashed", DICTIONARY, "--terms", copy_of(TERMS)),
        change("ignored", NER, "--terms", TERMS),
    ],
    ("baseline", "annotations"): [
        change("hashed", NER, "--annotations", copy_of(ANNOTATIONS)),
        change("ignored", DICTIONARY, "--annotations", ANNOTATIONS),
    ],
    ("baseline", "manifest"): [
        change("hashed", DICTIONARY, "--manifest", "MANIFEST"),
        change("hashed", NER, "--manifest", "MANIFEST"),
    ],
    ("baseline", "min_term_length"): [
        change("hashed", DICTIONARY, "--min-term-length", 6),
        change("ignored", NER, "--min-term-length", 6),
    ],
    ("baseline", "min_doc_freq"): [
        change("hashed", DICTIONARY, "--min-doc-freq", 2),
        change("ignored", NER, "--min-doc-freq", 2),
    ],
    ("baseline", "similarity_threshold"): [
        change("hashed", DICTIONARY, "--similarity-threshold", 0.8),
        change("ignored", NER, "--similarity-threshold", 0.8),
    ],
    ("baseline", "min_score"): [
        change("hashed", NER, "--min-score", 0.5),
        change("ignored", DICTIONARY, "--min-score", 0.5),
    ],
    ("baseline", "seed"): [change("seed", NER, "--seed", 7)],
    ("baseline", "out_dir"): [change("unhashed", NER, *ELSEWHERE)],
    ("report", "matrix"): [change("hashed", ON_MATRIX["report"], "--matrix", copy_of("MATRIX"))],
    ("report", "yates"): [change("hashed", ON_MATRIX["report"], "--yates", "off")],
    ("report", "restarts"): [change("hashed", ON_MATRIX["report"], "--restarts", 2)],
    ("report", "seed"): [change("seed", ON_MATRIX["report"], "--seed", 7)],
    ("report", "out_dir"): [change("unhashed", ON_MATRIX["report"], *ELSEWHERE)],
    ("export-defaults", "out_dir"): [change("unhashed", ["export-defaults"], *ELSEWHERE)],
}


class OptionRuns:
    """Runs commands once per distinct argument list, each in its own directory."""

    def __init__(self, folder, places: dict):
        self.folder, self.places, self.done = folder, places, {}

    def arg(self, value, run):
        text = str(value)
        if text.startswith("COPY:"):
            source = Path(self.places.get(text[5:], text[5:]))
            copy = self.folder / "copies" / source.name
            if not copy.exists():
                copy.parent.mkdir(exist_ok=True)
                shutil.copy(source, copy)
            return str(copy)
        if text.startswith("RUN/"):
            return str(run / text[4:])
        return self.places.get(text) or text.replace("URL", self.places["URL"])

    def __call__(self, args) -> Path:
        """The directory of a run of ``args``, its artifacts under ``out`` unless it moves them."""
        key = tuple(map(str, args))
        if key not in self.done:
            run = self.folder / f"run{len(self.done)}"
            command, *rest = [self.arg(a, run) for a in args]
            invoke(CliRunner(), command, "--out-dir", run / "out", *rest)
            self.done[key] = run
        return self.done[key]


@pytest.fixture(scope="module")
def option_runs(extracted, tmp_path_factory):
    folder = tmp_path_factory.mktemp("option_runs")
    invoke(CliRunner(), *COHORT, "--out-dir", folder)
    server, url = _serve(_StaticHandler)
    try:
        yield OptionRuns(
            folder, {"MATRIX": str(extracted), "MANIFEST": str(folder / "manifest.csv"), "URL": url}
        )
    finally:
        server.shutdown()
        server.server_close()


def written(run: Path) -> dict:
    """The bytes of every file a run wrote, by name; run reports without ``elapsed_seconds``."""
    files = {}
    for path in run.rglob("*"):
        if path.is_file():
            files[path.name] = path.read_bytes()
            if path.name == "run_report.json":
                report = json.loads(files[path.name])
                del report["elapsed_seconds"]
                files[path.name] = json.dumps(report, sort_keys=True).encode()
    return files


def config_hashes(run: Path) -> set:
    """The config_hash values in a run's files: CSV and JSON provenance, and the SVG's."""
    return {h for data in written(run).values() for h in re.findall(rb"config_hash\W+(\w{12})", data)}


@pytest.mark.parametrize(
    "command, option",
    [(name, _config_key(param)) for name, cmd in main.commands.items() for param in cmd.params],
)
def test_every_option_is_classified(option_runs, command, option):
    options = {_config_key(param) for param in main.commands[command].params}
    assert set(UNHASHED.get(command, ())) <= options, "UNHASHED names no option of its command"
    runs = OPTION_RUNS.get((command, option))
    assert runs, f"{command} --{option.replace('_', '-')} is not classified here"
    for kind, first, second in runs:
        if command in UNHASHED:
            assert (option in UNHASHED[command]) == (kind in ("unhashed", "seed")), (kind, first)
        a, b = option_runs(first), option_runs(second)
        if kind == "hashed":
            assert len(config_hashes(a)) == len(config_hashes(b)) == 1, (first, second)
            assert config_hashes(a) != config_hashes(b), (first, second)
        elif kind == "seed":
            assert config_hashes(a) == config_hashes(b) != set(), (first, second)
        else:
            files_a, files_b = written(a), written(b)
            common = files_a.keys() & files_b.keys()
            assert common, (first, second)
            assert [files_a[n] for n in common] == [files_b[n] for n in common], (first, second)


# ---------------------------------------------------------------------------
# config file and defaults export


def test_config_file_supplies_defaults_and_flags_override(runner, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sample_per_cohort": 5, "seed": 3}))
    out_a = tmp_path / "a"
    invoke(
        runner,
        "--config", config,
        "cohort",
        "--notes", NOTES,
        "--diagnoses", DIAGNOSES,
        "--out-dir", out_a,
    )
    rows = [
        l for l in (out_a / "manifest.csv").read_text().splitlines()
        if l and not l.startswith("#") and not l.startswith("note_id")
    ]
    assert len(rows) == 15
    out_b = tmp_path / "b"
    invoke(
        runner,
        "--config", config,
        "cohort",
        "--notes", NOTES,
        "--diagnoses", DIAGNOSES,
        "--sample-per-cohort", 2,
        "--out-dir", out_b,
    )
    rows = [
        l for l in (out_b / "manifest.csv").read_text().splitlines()
        if l and not l.startswith("#") and not l.startswith("note_id")
    ]
    assert len(rows) == 6


def test_config_file_must_be_valid_json(runner, tmp_path):
    config = tmp_path / "config.json"
    config.write_text("{broken")
    result = runner.invoke(main, ["--config", str(config), "export-defaults"])
    assert result.exit_code == 1
    assert "invalid JSON" in result.stderr


def test_export_defaults_writes_bundled_files(runner, tmp_path):
    result = invoke(runner, "export-defaults", "--out-dir", tmp_path)
    assert "wrote 12 default files" in result.output
    for name in (
        "list1.json",
        "list2.json",
        "mock_rules.csv",
        "counts_list1.csv",
        "counts_list2.csv",
        "demo_notes.jsonl",
        "demo_diagnoses.csv",
        "demo_truth.csv",
        "demo_terms.csv",
        "demo_ner.jsonl",
        "combined.json",
        "prompt_templates.txt",
    ):
        assert (tmp_path / name).exists(), name
    templates = (tmp_path / "prompt_templates.txt").read_text()
    assert "##Note##:" in templates
    assert "zero_shot:" in templates and "few_shot:" in templates
