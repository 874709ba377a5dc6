"""Acceptance suite: ten pass/fail checks covering the pipeline's core claims.

Each test is one numbered criterion and prints an `ACCEPTANCE n PASS` line on
success, so `pytest -v tests/test_acceptance.py` reads as a checklist.
"""

import itertools
import json
import math
import os
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from oracles import (
    all_partitions,
    ari_oracle,
    chi2_sf_quad,
    fmi_oracle,
    nmi_oracle,
    pca_svd_oracle,
)
from test_prompts import GOLDEN_COMORBIDITIES_BODY, normalize_quotes
from pheno_mine.baselines import (
    build_dictionary,
    extract_dictionary_features,
    ingest_ner_annotations,
)
from pheno_mine.cli import data_path, main
from pheno_mine.clustering import (
    adjusted_rand_index,
    evaluate_clustering,
    fowlkes_mallows_index,
    kmeans_fit,
    normalized_mutual_information,
)
from pheno_mine.cohort import NoteRecord
from pheno_mine.features import FeatureMatrix
from pheno_mine.pca import pca_project
from pheno_mine.prompts import NOTE_MARKER, render_zero_shot
from pheno_mine.schema import builtin_list
from pheno_mine.stats import analyze_fixture, chi2_survival, load_counts_fixture

NOTES = str(data_path("demo_notes.jsonl"))
DIAGNOSES = str(data_path("demo_diagnoses.csv"))

COMPARISONS = ("Overall", "CN vs. MCI", "CN vs. ADRD", "MCI vs. ADRD")

# published significance grid: category -> stars per comparison
EXPECTED_STARS = {
    "Memory Indicators": ("***", "***", "***", "**"),
    "Comorbidities": ("**", "ns", "**", "ns"),
    "Family history": ("***", "ns", "***", "***"),
    "Neurobehavioral tests/ratings": ("***", "***", "***", "ns"),
    "Neuroimaging findings": ("***", "***", "***", "***"),
    "Biomarker test results": ("***", "*", "***", "ns"),
    "Memory": ("***", "***", "***", "*"),
    "Executive Functions": ("***", "***", "***", "ns"),
    "Language": ("***", "***", "***", "ns"),
    "Visuospatial Skills": ("***", "***", "***", "ns"),
    "Behavior": ("***", "***", "***", "ns"),
}

# the p-values the published tables print numerically, +-0.01 absolute
EXPECTED_P = {
    ("Comorbidities", "CN vs. MCI"): 0.179,
    ("Comorbidities", "MCI vs. ADRD"): 0.117,
    ("Family history", "CN vs. MCI"): 0.755,
    ("Neurobehavioral tests/ratings", "MCI vs. ADRD"): 0.863,
    ("Biomarker test results", "MCI vs. ADRD"): 0.125,
    ("Executive Functions", "MCI vs. ADRD"): 0.181,
    ("Language", "MCI vs. ADRD"): 0.084,
    ("Visuospatial Skills", "MCI vs. ADRD"): 0.056,
    ("Behavior", "MCI vs. ADRD"): 0.494,
}


def test_criterion_01_reference_star_grid_reproduced(tmp_path):
    started = time.perf_counter()
    counts = []
    for name in ("counts_list1.csv", "counts_list2.csv"):
        counts.extend(load_counts_fixture(data_path(name)))
    report = analyze_fixture(counts)
    elapsed = time.perf_counter() - started
    assert len(report) == 11
    for row in report:
        expected = EXPECTED_STARS[row.category]
        for comparison, stars in zip(COMPARISONS, expected):
            result = row.results[comparison]
            assert result.stars == stars, (
                f"{row.category} / {comparison}: got {result.stars} "
                f"(p={result.p_value:.4g}), expected {stars}"
            )
            printed = EXPECTED_P.get((row.category, comparison))
            if printed is not None:
                assert result.p_value == pytest.approx(printed, abs=0.01), (
                    f"{row.category} / {comparison}: p={result.p_value:.4g}, "
                    f"table prints {printed}"
                )
    assert elapsed < 1.0, f"analysis took {elapsed:.2f}s"
    # identical grid through the CLI entry point
    result = CliRunner().invoke(
        main,
        ["stats", "--builtin-fixtures", "--out-dir", str(tmp_path)],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    print(
        f"ACCEPTANCE 1 PASS: 11-category star grid and all 9 printed p-values "
        f"reproduced in {elapsed * 1000:.0f}ms"
    )


def test_criterion_02_comorbidities_overall_anchor():
    counts = load_counts_fixture(data_path("counts_list1.csv"))
    report = analyze_fixture(counts)
    row = next(r for r in report if r.category == "Comorbidities")
    overall = row.results["Overall"]
    assert overall.df == 2
    assert overall.p_value == pytest.approx(0.007, abs=0.001)
    print(f"ACCEPTANCE 2 PASS: Comorbidities overall p={overall.p_value:.5f} = 0.007 +- 0.001")


def test_criterion_03_metrics_match_bruteforce_oracles():
    checked = 0
    for n in range(2, 8):
        for a, b in itertools.product(list(all_partitions(n)), repeat=2):
            assert abs(adjusted_rand_index(a, b) - ari_oracle(a, b)) <= 1e-12
            assert abs(normalized_mutual_information(a, b) - nmi_oracle(a, b)) <= 1e-12
            assert abs(fowlkes_mallows_index(a, b) - fmi_oracle(a, b)) <= 1e-12
            checked += 1
    rng = random.Random(2024)
    for _ in range(1000):
        a = [rng.randint(0, 5) for _ in range(50)]
        b = [rng.randint(0, 5) for _ in range(50)]
        assert abs(adjusted_rand_index(a, b) - ari_oracle(a, b)) <= 1e-12
        assert abs(normalized_mutual_information(a, b) - nmi_oracle(a, b)) <= 1e-12
        assert abs(fowlkes_mallows_index(a, b) - fmi_oracle(a, b)) <= 1e-12
        checked += 1
    print(
        f"ACCEPTANCE 3 PASS: ARI/NMI/FMI within 1e-12 of brute-force oracles on "
        f"{checked} label pairs (exhaustive n<=7 plus 1000 random n=50)"
    )


def test_criterion_04_chi2_survival_accuracy():
    xs = [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 50.0]
    for x in xs:
        assert chi2_survival(x, 2) == math.exp(-x / 2.0)
    worst = 0.0
    for df in range(1, 11):
        for x in xs:
            diff = abs(chi2_survival(x, df) - chi2_sf_quad(x, df))
            worst = max(worst, diff)
            assert diff <= 1e-8, f"df={df} x={x}: off by {diff:.2e}"
    anchor = chi2_survival(3.8415, 1)
    assert anchor == pytest.approx(0.0500, abs=1e-4)
    print(
        f"ACCEPTANCE 4 PASS: df=2 closed form exact, max |sf - quad oracle| = "
        f"{worst:.1e} over df 1..10, sf(3.8415, 1) = {anchor:.6f}"
    )


def test_criterion_05_kmeans_recovers_two_blobs_over_100_seeds():
    rng = np.random.default_rng(12345)
    sigma = 0.5
    X = np.vstack(
        [
            rng.normal(0.0, sigma, size=(30, 2)),
            np.array([6.0, 0.0]) + rng.normal(0.0, sigma, size=(30, 2)),
        ]
    )  # centers 6.0 apart = 12 sigma
    labels = ["left"] * 30 + ["right"] * 30
    for seed in range(100):
        report = evaluate_clustering(X, k=2, labels=labels, seed=seed)
        assert report.ari == 1.0, f"seed {seed}: ARI {report.ari}"
        model = kmeans_fit(X, k=2, seed=seed)
        history = model.inertia_history
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier + 1e-9, f"seed {seed}: inertia rose {earlier} -> {later}"
    print("ACCEPTANCE 5 PASS: ARI = 1.0 for seeds 0..99 on 12-sigma blobs, inertia never rose")


def test_criterion_06_pca_matches_full_spectrum_oracle():
    worst_ratio = 0.0
    worst_ortho = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        X = (rng.random((200, 37)) < 0.3).astype(float)
        projection = pca_project(X)
        ratios, _ = pca_svd_oracle(X)
        for i in range(2):
            diff = abs(projection.explained_variance_ratio[i] - ratios[i])
            worst_ratio = max(worst_ratio, diff)
            assert diff <= 1e-8
        gram = projection.components @ projection.components.T
        ortho = float(np.abs(gram - np.eye(2)).max())
        worst_ortho = max(worst_ortho, ortho)
        assert ortho <= 1e-10
    print(
        f"ACCEPTANCE 6 PASS: 50 random 200x37 matrices; max ratio error "
        f"{worst_ratio:.1e}, max orthonormality error {worst_ortho:.1e}"
    )


def _run_demo_pipeline(workdir: Path, cache_dir: Path, monkeypatch) -> Path:
    """extract + stats + cluster + pca with identical relative paths."""
    workdir.mkdir(parents=True, exist_ok=True)
    monkeypatch.chdir(workdir)
    runner = CliRunner()
    commands = [
        [
            "extract",
            "--notes", NOTES,
            "--diagnoses", DIAGNOSES,
            "--cache-dir", str(cache_dir),
            "--seed", "0",
            "--out-dir", "artifacts",
        ],
        ["stats", "--matrix", "artifacts/feature_matrix.csv", "--out-dir", "artifacts"],
        ["cluster", "--matrix", "artifacts/feature_matrix.csv", "--seed", "0", "--out-dir", "artifacts"],
        ["pca", "--matrix", "artifacts/feature_matrix.csv", "--out-dir", "artifacts"],
    ]
    for command in commands:
        result = runner.invoke(main, command, catch_exceptions=False)
        assert result.exit_code == 0, f"{command[0]}: {result.output}{result.stderr}"
    return workdir / "artifacts"


def test_criterion_07_end_to_end_determinism_and_planted_truth(
    tmp_path, monkeypatch, demo_truth
):
    cache = tmp_path / "cache"
    first = _run_demo_pipeline(tmp_path / "run1", cache, monkeypatch)
    second = _run_demo_pipeline(tmp_path / "run2", cache, monkeypatch)

    report1 = json.loads((first / "run_report.json").read_text())
    report2 = json.loads((second / "run_report.json").read_text())
    assert report1["cache_hits"] == 0
    assert report2["cache_hit_rate"] == 1.0  # warm run answered entirely from cache

    artifacts = (
        "feature_matrix.csv",
        "stats_report.csv",
        "clustering_report.json",
        "pca_scatter.csv",
    )
    for name in artifacts:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name

    matrix = FeatureMatrix.from_csv(first / "feature_matrix.csv")
    keys = matrix.column_keys
    tp = fp = fn = 0
    for i, note_id in enumerate(matrix.note_ids):
        found = {keys[j] for j in range(len(keys)) if matrix.data[i, j] == 1}
        planted = demo_truth.get(note_id, set())
        tp += len(found & planted)
        fp += len(found - planted)
        fn += len(planted - found)
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    assert precision == 1.0 and recall == 1.0
    print(
        f"ACCEPTANCE 7 PASS: 4 artifacts byte-identical cold vs warm cache; "
        f"planted truth recovered with precision=recall=1.0 ({tp} cells)"
    )


def test_criterion_08_golden_comorbidities_prompt():
    category = builtin_list("list1").category("Comorbidities")
    prompt = render_zero_shot(category, "TEXT")
    body = prompt.split(f" {NOTE_MARKER}")[0]
    assert normalize_quotes(body) == normalize_quotes(GOLDEN_COMORBIDITIES_BODY)
    print("ACCEPTANCE 8 PASS: zero-shot comorbidities prompt equals the reference string")


def test_criterion_09_baseline_filters(tmp_path):
    terms = tmp_path / "terms.csv"
    terms.write_text(
        "term,concept_id\ntau,C-SHORT3\ngait,C-SHORT4\ncommon finding,C-COMMON\nrare finding,C-RARE\n"
    )
    dictionary = build_dictionary(terms)  # default length threshold 4
    assert ("tau",) not in dictionary.terms and ("gait",) not in dictionary.terms
    assert set(dictionary.terms.values()) == {"C-COMMON", "C-RARE"}

    notes = []
    for i in range(120):
        fragments = ["Routine follow-up visit."]
        if i < 50:
            fragments.append("A common finding was documented.")
        if i < 49:
            fragments.append("A rare finding was documented.")
        notes.append(
            NoteRecord(
                note_id=f"N{i:03d}",
                patient_id=f"P{i:03d}",
                text=" ".join(fragments),
                age=70.0,
                history_years=5.0,
                on_dementia_meds=False,
                cohort="CN",
            )
        )
    matrix = extract_dictionary_features(notes, dictionary)  # default min_doc_freq 50
    assert [c.phenotype_id for c in matrix.columns] == ["C-COMMON"]
    assert dictionary.document_frequency == {"C-COMMON": 50, "C-RARE": 49}

    annotations = tmp_path / "ner.jsonl"
    annotations.write_text(
        json.dumps({"note_id": "N1", "concept": "C1", "score": 0.80})
        + "\n"
        + json.dumps({"note_id": "N2", "concept": "C1", "score": 0.79})
        + "\n"
    )
    ner = ingest_ner_annotations(annotations)  # default min_score 0.8
    assert ner.note_ids == ["N1"]
    print(
        "ACCEPTANCE 9 PASS: length<=4 terms rejected, doc-freq<50 concepts dropped "
        "(49 vs 50), NER score 0.79 < 0.8 discarded"
    )


class _NoneHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        payload = json.dumps({"choices": [{"message": {"content": "none"}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def test_criterion_10_declared_limits_and_live_endpoint_smoke(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    for needle in ("0.290", "0.232", "0.666", "MIMIC-IV", "gemma-3-12b-it"):
        assert needle in readme, f"README must declare {needle!r}"
    assert "not reproducible" in readme.lower()

    # live smoke: 3 notes through the http backend, flags only
    notes_path = tmp_path / "three_notes.jsonl"
    with open(NOTES, encoding="utf-8") as fh:
        lines = [next(fh) for _ in range(3)]
    notes_path.write_text("".join(lines))

    base_url = os.environ.get("PHENO_MINE_SMOKE_BASE_URL")
    server = None
    if not base_url:
        server = ThreadingHTTPServer(("127.0.0.1", 0), _NoneHandler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base_url = f"http://127.0.0.1:{server.server_address[1]}"
        endpoint_kind = "local stand-in endpoint"
    else:
        endpoint_kind = "external endpoint from PHENO_MINE_SMOKE_BASE_URL"
    try:
        result = CliRunner().invoke(
            main,
            [
                "extract",
                "--notes", str(notes_path),
                "--diagnoses", DIAGNOSES,
                "--backend", "http",
                "--base-url", base_url,
                "--list", "list1",
                "--out-dir", str(tmp_path / "out"),
            ],
            catch_exceptions=False,
        )
    finally:
        if server is not None:
            server.shutdown()
            server.server_close()
    assert result.exit_code == 0, result.output + result.stderr
    matrix = FeatureMatrix.from_csv(tmp_path / "out" / "feature_matrix.csv")
    assert len(matrix.note_ids) == 3
    print(
        f"ACCEPTANCE 10 PASS: unreproducible reference numbers declared in README; "
        f"3-note smoke ran against {endpoint_kind}"
    )
