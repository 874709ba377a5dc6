"""K-means behaviour and external-metric correctness against brute-force oracles."""

import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_partitions,
    ari_oracle,
    fmi_oracle,
    kmeans_global_optimum,
    lloyd_reference,
    nmi_oracle,
)
from pheno_mine.clustering import (
    ClusteringReport,
    _kmeans_pp_init,
    _lloyd_run,
    adjusted_rand_index,
    collapse_labels,
    evaluate_clustering,
    fowlkes_mallows_index,
    kmeans_fit,
    normalized_mutual_information,
    write_clustering_report,
)
from pheno_mine.errors import AnalysisError, ParameterError
from pheno_mine.features import FeatureMatrix
from pheno_mine.schema import feature_index


def blobs(seed: int = 7, per: int = 20, spread: float = 0.3) -> tuple:
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    X = np.vstack([c + rng.normal(0, spread, size=(per, 2)) for c in centers])
    truth = [i for i in range(3) for _ in range(per)]
    return X, truth


# ---------------------------------------------------------------------------
# kmeans_fit


def test_kmeans_recovers_separated_blobs():
    X, truth = blobs()
    model = kmeans_fit(X, k=3, seed=0)
    assert adjusted_rand_index(truth, model.assignments.tolist()) == 1.0
    assert sorted(np.bincount(model.assignments).tolist()) == [20, 20, 20]


def test_kmeans_deterministic_for_fixed_seed():
    X, _ = blobs(seed=11)
    a = kmeans_fit(X, k=3, seed=42)
    b = kmeans_fit(X, k=3, seed=42)
    assert np.array_equal(a.assignments, b.assignments)
    assert a.inertia == b.inertia
    assert a.restart_index == b.restart_index
    assert np.array_equal(a.centroids, b.centroids)


def test_kmeans_inertia_history_non_increasing():
    X, _ = blobs(seed=3, spread=1.5)
    model = kmeans_fit(X, k=3, seed=5, restarts=4)
    history = model.inertia_history
    assert len(history) == model.iterations_run
    for earlier, later in zip(history, history[1:]):
        assert later <= earlier + 1e-9
    assert model.inertia == history[-1]


def test_kmeans_more_restarts_never_worse():
    X, _ = blobs(seed=19, spread=2.5)
    one = kmeans_fit(X, k=3, seed=2, restarts=1)
    many = kmeans_fit(X, k=3, seed=2, restarts=10)
    assert many.inertia <= one.inertia + 1e-12


def test_kmeans_matches_global_optimum_on_tiny_inputs():
    # Lloyd is a local optimizer: every run must score >= the true optimum,
    # and with 10 restarts on 6 points it should land on it almost always
    rng = np.random.default_rng(1234)
    hits = 0
    for trial in range(20):
        X = rng.normal(size=(6, 2))
        model = kmeans_fit(X, k=2, seed=trial, restarts=10)
        optimum = kmeans_global_optimum(X, 2)
        assert model.inertia >= optimum - 1e-9
        if abs(model.inertia - optimum) <= 1e-9:
            hits += 1
    assert hits >= 15


def test_kmeans_four_point_worked_example():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    model = kmeans_fit(X, k=2, seed=0)
    assert model.assignments[0] == model.assignments[1]
    assert model.assignments[2] == model.assignments[3]
    assert model.assignments[0] != model.assignments[2]
    centroids = sorted(model.centroids.tolist())
    assert centroids == [[0.0, 0.5], [10.0, 0.5]]
    assert model.inertia == pytest.approx(1.0, abs=1e-12)


def test_kmeans_k_equals_distinct_points_gives_zero_inertia():
    X = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [5.0, 5.0]])
    model = kmeans_fit(X, k=4, seed=1)
    assert sorted(model.assignments.tolist()) == [0, 1, 2, 3]
    assert model.inertia == pytest.approx(0.0, abs=1e-12)


def test_kmeans_duplicate_rows_force_empty_cluster_repair():
    # 5 identical rows and 1 outlier with k=3: seeding lands on duplicates so
    # repair must steal the farthest point to fill the third cluster
    X = np.array([[0.0, 0.0]] * 5 + [[10.0, 10.0]])
    model = kmeans_fit(X, k=3, seed=0, restarts=3)
    sizes = np.bincount(model.assignments, minlength=3)
    assert (sizes >= 1).all()
    assert model.inertia == pytest.approx(0.0, abs=1e-12)


@st.composite
def binary_matrices(draw):
    """A 0/1 matrix whose rows repeat a few distinct rows, and a k up to its row count."""
    cols = draw(st.integers(1, 8))
    row = st.lists(st.integers(0, 1), min_size=cols, max_size=cols)
    distinct = draw(st.lists(row, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=2, max_size=40))
    X = np.array([distinct[i] for i in picks], dtype=float)
    return X, draw(st.integers(2, min(5, len(X))))


@settings(max_examples=200, deadline=None)
@given(
    case=binary_matrices(),
    seed=st.integers(0, 2**16),
    max_iter=st.integers(1, 30),
    tol=st.sampled_from([0.0, 1e-4, 0.5]),
)
def test_lloyd_matches_the_per_cluster_mean_reference_bit_for_bit(case, seed, max_iter, tol):
    # cluster sums of 0/1 rows are exact integers, so sum / size is the float
    # that members.mean(axis=0) gives; few distinct rows force empty-cluster repairs
    X, k = case
    x2 = (X * X).sum(axis=1)[:, None]
    init = _kmeans_pp_init(X, k, np.random.default_rng(seed))
    got = _lloyd_run(X, x2, init.copy(), max_iter, tol)
    want = lloyd_reference(X, x2, init.copy(), max_iter, tol)
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1])
    assert got[2:] == want[2:]


def test_kmeans_accepts_feature_matrix_rows():
    columns = ["list1:A:a", "list1:A:b", "list1:B:c"]
    cells = [[1, 0, 0], [1, 1, 0], [0, 0, 1], [0, 1, 1], [1, 0, 1], [0, 0, 0]]
    matrix = FeatureMatrix(
        note_ids=[f"N{i}" for i in range(6)],
        cohorts=["CN", "CN", "MCI", "MCI", "ADRD", "ADRD"],
        columns=columns,
        rows=[bytes(r) for r in cells],
    )
    model = kmeans_fit(matrix, k=2, seed=0)
    assert model.assignments.shape == (6,)


def test_kmeans_parameter_validation():
    X = np.zeros((4, 2))
    with pytest.raises(ParameterError, match="k must be >= 2"):
        kmeans_fit(X, k=1)
    with pytest.raises(AnalysisError, match="cannot form 5 clusters"):
        kmeans_fit(X, k=5)
    with pytest.raises(ParameterError, match="restarts"):
        kmeans_fit(X, k=2, restarts=0)
    with pytest.raises(ParameterError, match="max_iter"):
        kmeans_fit(X, k=2, max_iter=0)
    for tol in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ParameterError, match="tol"):
            kmeans_fit(X, k=2, tol=tol)
    with pytest.raises(AnalysisError, match="2-dimensional"):
        kmeans_fit(np.zeros(4), k=2)
    with pytest.raises(AnalysisError, match="non-finite"):
        kmeans_fit(np.array([[0.0, np.nan], [1.0, 2.0]]), k=2)


# ---------------------------------------------------------------------------
# metrics vs oracles


def test_metrics_match_oracles_on_exhaustive_small_partitions():
    n = 5
    partitions = list(all_partitions(n))
    for a, b in itertools.product(partitions, repeat=2):
        assert adjusted_rand_index(a, b) == pytest.approx(ari_oracle(a, b), abs=1e-12)
        assert normalized_mutual_information(a, b) == pytest.approx(
            nmi_oracle(a, b), abs=1e-12
        )
        assert fowlkes_mallows_index(a, b) == pytest.approx(fmi_oracle(a, b), abs=1e-12)


def test_metrics_match_oracles_on_random_label_pairs():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(2, 40)
        a = [rng.randint(0, 4) for _ in range(n)]
        b = [rng.randint(0, 4) for _ in range(n)]
        assert adjusted_rand_index(a, b) == pytest.approx(ari_oracle(a, b), abs=1e-12)
        assert normalized_mutual_information(a, b) == pytest.approx(
            nmi_oracle(a, b), abs=1e-12
        )
        assert fowlkes_mallows_index(a, b) == pytest.approx(fmi_oracle(a, b), abs=1e-12)


@st.composite
def relabelled_pairs(draw):
    """Two labellings of one set of points, and the first relabelled by a bijection."""
    n = draw(st.integers(2, 30))
    a = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    images = draw(st.permutations(["p", "q", "r", "s", "t", 7, 8, 9]))
    return a, b, [images[label] for label in a]


@settings(max_examples=300, deadline=None)
@given(relabelled_pairs())
def test_metrics_are_invariant_under_relabelling(pair):
    a, b, relabelled = pair
    for metric in (adjusted_rand_index, normalized_mutual_information, fowlkes_mallows_index):
        expected = metric(a, b)
        assert metric(relabelled, b) == expected
        assert metric(b, relabelled) == metric(b, a)
        assert metric(relabelled, relabelled) == metric(a, a)


def test_metrics_known_values():
    # worked example: two 3-way partitions of 6 points; hand derivation:
    # joint pair agreements tp=1, same-cluster pairs 3 (true) and 4 (pred),
    # total pairs 15 -> ARI = (1 - 3*4/15) / ((3+4)/2 - 3*4/15) = 0.2/2.7
    a = [0, 0, 1, 1, 2, 2]
    b = [0, 0, 0, 1, 1, 2]
    assert adjusted_rand_index(a, b) == pytest.approx(0.2 / 2.7, abs=1e-12)
    assert fowlkes_mallows_index(a, b) == pytest.approx(1 / math.sqrt(12), abs=1e-12)
    assert normalized_mutual_information(a, b) == pytest.approx(
        nmi_oracle(a, b), abs=1e-12
    )


def test_metrics_six_point_worked_example():
    # hand derivation: joint table {(0,0):2,(0,1):1,(1,1):3} -> tp = 1+0+3 = 4;
    # true sizes 3/3 -> 6 same-cluster pairs, pred sizes 2/4 -> 1+6 = 7;
    # expected = 6*7/15 = 2.8, max = (6+7)/2 = 6.5
    # -> ARI = (4-2.8)/(6.5-2.8) = 1.2/3.7, FMI = 4/sqrt(6*7) = 4/sqrt(42)
    a = [0, 0, 0, 1, 1, 1]
    b = [0, 0, 1, 1, 1, 1]
    assert adjusted_rand_index(a, b) == pytest.approx(1.2 / 3.7, abs=1e-12)
    assert fowlkes_mallows_index(a, b) == pytest.approx(4 / math.sqrt(42), abs=1e-12)
    nmi = normalized_mutual_information(a, b)
    assert nmi == pytest.approx(nmi_oracle(a, b), abs=1e-12)
    assert nmi == pytest.approx(0.47870397138568, abs=1e-12)


def test_fmi_single_cluster_prediction_reflects_class_sizes():
    # one predicted cluster over classes of 1000/992/1000: closed form
    # FMI = sqrt(sum C(n_c,2) / C(n,2)), insensitive to the class imbalance
    truth = [0] * 1000 + [1] * 992 + [2] * 1000
    pred = [0] * 2992
    tp = sum(c * (c - 1) // 2 for c in (1000, 992, 1000))
    total = 2992 * 2991 // 2
    expected = math.sqrt(tp / total)
    assert fowlkes_mallows_index(truth, pred) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.577, abs=1e-3)


def test_ari_near_zero_on_random_data():
    values = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = (rng.random((100, 20)) < 0.5).astype(float)
        labels = ["a" if v < 0.5 else "b" for v in rng.random(100)]
        report = evaluate_clustering(X, k=2, labels=labels, seed=seed)
        assert abs(report.ari) <= 0.05
        values.append(report.ari)
    assert abs(sum(values) / len(values)) <= 0.02


def test_metrics_identical_partitions_score_one():
    labels = ["x", "y", "x", "z", "y"]
    relabeled = [{"x": 5, "y": 7, "z": 9}[v] for v in labels]
    assert adjusted_rand_index(labels, relabeled) == 1.0
    assert normalized_mutual_information(labels, relabeled) == 1.0
    assert fowlkes_mallows_index(labels, relabeled) == 1.0


def test_metrics_degenerate_conventions():
    # both partitions a single cluster: partitions coincide
    ones = [0, 0, 0, 0]
    assert adjusted_rand_index(ones, ones) == 1.0
    assert normalized_mutual_information(ones, ones) == 1.0
    assert fowlkes_mallows_index(ones, ones) == 1.0
    # one side a single cluster, the other not: no agreement signal
    split = [0, 0, 1, 1]
    assert adjusted_rand_index(ones, split) == 0.0
    assert normalized_mutual_information(ones, split) == 0.0
    assert fowlkes_mallows_index(ones, split) == pytest.approx(
        fmi_oracle(ones, split), abs=1e-12
    )
    # all singletons on both sides
    singles = [0, 1, 2, 3]
    assert adjusted_rand_index(singles, singles) == 1.0
    assert normalized_mutual_information(singles, singles) == 1.0
    # FMI has no same-cluster pairs at all: documented zero
    assert fowlkes_mallows_index(singles, singles) == 0.0


def test_metrics_validate_input_lengths():
    with pytest.raises(ParameterError, match="differ in length"):
        adjusted_rand_index([0, 1], [0, 1, 2])
    with pytest.raises(ParameterError, match="at least 2"):
        adjusted_rand_index([0], [0])
    with pytest.raises(ParameterError, match="at least 1"):
        normalized_mutual_information([], [])


# ---------------------------------------------------------------------------
# label schemes and end-to-end evaluation


def test_collapse_labels_schemes():
    cohorts = ["CN", "MCI", "ADRD", "CN"]
    assert collapse_labels(cohorts, "three_way") == cohorts
    assert collapse_labels(cohorts, "collapsed_patient") == [
        "CN",
        "patient",
        "patient",
        "CN",
    ]
    with pytest.raises(ParameterError, match="unknown label scheme"):
        collapse_labels(cohorts, "two_way")


def test_evaluate_clustering_on_feature_matrix(combined):
    columns = feature_index(combined)
    rng = np.random.default_rng(0)
    rows, cohorts = [], []
    for cohort, base in (("CN", 0.05), ("MCI", 0.45), ("ADRD", 0.9)):
        for _ in range(15):
            rows.append((rng.random(len(columns)) < base).astype(np.int8))
            cohorts.append(cohort)
    matrix = FeatureMatrix(
        note_ids=[f"N{i}" for i in range(45)],
        cohorts=cohorts,
        columns=columns,
        rows=[r.tobytes() for r in rows],
    )
    report = evaluate_clustering(matrix, k=3, label_scheme="three_way", seed=1)
    assert report.k == 3
    assert sum(report.cluster_sizes) == 45
    assert 0.0 <= report.fmi <= 1.0
    assert report.ari > 0.5  # well-separated occupancy rates
    doc = report.to_document()
    assert doc["setting"]["k"] == 3
    assert doc["setting"]["label_scheme"] == "three_way"
    assert set(doc) == {
        "setting",
        "ari",
        "nmi",
        "fmi",
        "cluster_sizes",
        "seed",
        "inertia",
    }


def test_evaluate_clustering_raw_array_requires_labels():
    X, truth = blobs(per=5)
    with pytest.raises(ParameterError, match="explicit labels"):
        evaluate_clustering(X, k=3)
    report = evaluate_clustering(X, k=3, labels=[str(t) for t in truth])
    assert report.ari == 1.0


def test_evaluate_clustering_rejects_unlabeled_rows():
    X, truth = blobs(per=4)
    labels = [str(t) for t in truth]
    labels[0] = "UNLABELED"
    with pytest.raises(AnalysisError, match="lack a cohort label"):
        evaluate_clustering(X, k=3, labels=labels)


def test_write_clustering_report(tmp_path):
    X, truth = blobs(per=5)
    labels = [str(t) for t in truth]
    runs = [
        evaluate_clustering(
            X, k=2, label_scheme="collapsed_patient",
            labels=["CN" if t == "0" else "MCI" for t in labels],
            list_id="list1", mode="zero_shot",
        ),
        evaluate_clustering(X, k=3, labels=labels, list_id="list1", mode="zero_shot"),
    ]
    out = tmp_path / "clustering_report.json"
    write_clustering_report(runs, out, provenance={"config_hash": "abc123def456", "seed": 0})
    document = json.loads(out.read_text())
    assert document["provenance"]["config_hash"] == "abc123def456"
    assert len(document["runs"]) == 2
    assert document["runs"][0]["setting"]["label_scheme"] == "collapsed_patient"
    assert document["runs"][1]["setting"]["k"] == 3
    # deterministic serialization: keys sorted, trailing newline
    text = out.read_text()
    assert text.endswith("\n")
    assert text.index('"provenance"') < text.index('"runs"')
