"""K-means clustering with external validation metrics (ARI, NMI, FMI).

The clusterer is written in plain numpy: k-means++ seeding, Lloyd iterations,
best-of-restarts selection, and farthest-point repair of empty clusters, all
deterministic for a fixed seed. The metrics are exact pair-counting/entropy
computations over the label sequences.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_json
from .errors import AnalysisError, ParameterError
from .features import DEFAULT_MAX_ITER, DEFAULT_RESTARTS, DEFAULT_TOL, FeatureMatrix

logger = logging.getLogger(__name__)

LABEL_SCHEMES = ("three_way", "collapsed_patient")


# ---------------------------------------------------------------------------
# K-means


@dataclass
class KMeansModel:
    k: int
    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    seed: int
    iterations_run: int
    inertia_history: list
    restart_index: int


def _sq_distances(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    x2 = (X * X).sum(axis=1)[:, None]
    c2 = (centroids * centroids).sum(axis=1)[None, :]
    return np.maximum(x2 + c2 - 2.0 * (X @ centroids.T), 0.0)


def _kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]), dtype=float)
    centroids[0] = X[int(rng.integers(n))]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = X[idx]
        d2 = np.minimum(d2, ((X - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _repair_empty_clusters(
    X: np.ndarray, centroids: np.ndarray, assignments: np.ndarray, d2: np.ndarray
):
    """Give each empty cluster the point farthest from its current centroid.

    Donors are restricted to clusters with more than one member so a repair
    never empties another cluster. With rows >= k a donor always exists.
    """
    k = centroids.shape[0]
    while True:
        sizes = np.bincount(assignments, minlength=k)
        empties = np.flatnonzero(sizes == 0)
        if empties.size == 0:
            return
        cluster = int(empties[0])
        own_d2 = d2[np.arange(len(assignments)), assignments]
        eligible = sizes[assignments] > 1
        if not eligible.any():
            return
        candidates = np.flatnonzero(eligible)
        farthest = int(candidates[own_d2[candidates].argmax()])
        centroids[cluster] = X[farthest]
        assignments[farthest] = cluster
        d2[:, cluster] = ((X - centroids[cluster]) ** 2).sum(axis=1)


def _lloyd_run(
    X: np.ndarray, centroids: np.ndarray, max_iter: int, tol: float
) -> tuple:
    history: list[float] = []
    assignments = np.zeros(len(X), dtype=int)
    iteration = 0
    for iteration in range(1, max_iter + 1):
        d2 = _sq_distances(X, centroids)
        assignments = d2.argmin(axis=1)
        _repair_empty_clusters(X, centroids, assignments, d2)
        inertia = float(d2[np.arange(len(X)), assignments].sum())
        history.append(inertia)
        new_centroids = centroids.copy()
        for c in range(centroids.shape[0]):
            members = X[assignments == c]
            if len(members):
                new_centroids[c] = members.mean(axis=0)
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        if shift < tol or iteration == max_iter:
            break
        centroids = new_centroids
    return centroids, assignments, history[-1], iteration, history


def kmeans_fit(
    features,
    k: int,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> KMeansModel:
    """Best-of-restarts Lloyd k-means on the rows of `features`.

    Accepts a FeatureMatrix or any 2-D array-like. Deterministic for a fixed
    seed; ties between restarts keep the earliest one.
    """
    X = features.data if isinstance(features, FeatureMatrix) else features
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise AnalysisError(f"feature array must be 2-dimensional, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise AnalysisError("feature array contains non-finite values")
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if X.shape[0] < k:
        raise AnalysisError(f"cannot form {k} clusters from {X.shape[0]} rows")
    if restarts < 1:
        raise ParameterError(f"restarts must be >= 1, got {restarts}")
    if max_iter < 1:
        raise ParameterError(f"max_iter must be >= 1, got {max_iter}")
    if not 0 <= tol < math.inf:
        raise ParameterError(f"tol must be a finite number >= 0, got {tol}")
    best: KMeansModel | None = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        init = _kmeans_pp_init(X, k, rng)
        centroids, assignments, inertia, iterations, history = _lloyd_run(
            X, init, max_iter, tol
        )
        if best is None or inertia < best.inertia:
            best = KMeansModel(
                k=k,
                centroids=centroids,
                assignments=assignments,
                inertia=inertia,
                seed=seed,
                iterations_run=iterations,
                inertia_history=history,
                restart_index=r,
            )
    return best


# ---------------------------------------------------------------------------
# External validation metrics


def _paired_labels(labels_true, labels_pred, min_length: int = 1) -> tuple:
    a = list(labels_true)
    b = list(labels_pred)
    if len(a) != len(b):
        raise ParameterError(
            f"label sequences differ in length: {len(a)} vs {len(b)}"
        )
    if len(a) < min_length:
        raise ParameterError(f"need at least {min_length} labels, got {len(a)}")
    return a, b


def _comb2(n: int) -> int:
    return n * (n - 1) // 2


def _canonical(labels: list) -> tuple:
    ids: dict = {}
    return tuple(ids.setdefault(lab, len(ids)) for lab in labels)


def adjusted_rand_index(labels_true, labels_pred) -> float:
    """Rand index adjusted for chance, via the pair-counting formula."""
    a, b = _paired_labels(labels_true, labels_pred, min_length=2)
    n = len(a)
    joint = Counter(zip(a, b))
    sum_joint = sum(_comb2(v) for v in joint.values())
    sum_a = sum(_comb2(v) for v in Counter(a).values())
    sum_b = sum(_comb2(v) for v in Counter(b).values())
    total_pairs = _comb2(n)
    expected = sum_a * sum_b / total_pairs
    max_index = (sum_a + sum_b) / 2.0
    denominator = max_index - expected
    if denominator == 0.0:
        # Both partitions trivial in the same way (all-singletons or one
        # cluster): the partitions coincide.
        return 1.0
    return (sum_joint - expected) / denominator


def normalized_mutual_information(labels_true, labels_pred) -> float:
    """MI normalized by the arithmetic mean of the two entropies (natural logs).

    Identical partitions score exactly 1.0; if either partition is a single
    cluster while the partitions differ, the score is 0.0.
    """
    a, b = _paired_labels(labels_true, labels_pred, min_length=1)
    if _canonical(a) == _canonical(b):
        return 1.0
    n = len(a)
    counts_a = Counter(a)
    counts_b = Counter(b)
    h_u = -sum((c / n) * math.log(c / n) for c in counts_a.values())
    h_v = -sum((c / n) * math.log(c / n) for c in counts_b.values())
    if h_u == 0.0 or h_v == 0.0:
        return 0.0
    joint = Counter(zip(a, b))
    mi = 0.0
    for (u, v), c in joint.items():
        p_uv = c / n
        mi += p_uv * math.log(p_uv / ((counts_a[u] / n) * (counts_b[v] / n)))
    nmi = mi / ((h_u + h_v) / 2.0)
    return min(1.0, max(0.0, nmi))


def fowlkes_mallows_index(labels_true, labels_pred) -> float:
    """TP / sqrt((TP+FP)(TP+FN)) over same-cluster pairs; 0 on zero denominator."""
    a, b = _paired_labels(labels_true, labels_pred, min_length=1)
    joint = Counter(zip(a, b))
    tp = sum(_comb2(v) for v in joint.values())
    same_true = sum(_comb2(v) for v in Counter(a).values())
    same_pred = sum(_comb2(v) for v in Counter(b).values())
    if same_true == 0 or same_pred == 0:
        return 0.0
    return tp / math.sqrt(same_true * same_pred)


# ---------------------------------------------------------------------------
# End-to-end evaluation


@dataclass
class ClusteringReport:
    k: int
    label_scheme: str
    ari: float
    nmi: float
    fmi: float
    cluster_sizes: list
    seed: int
    inertia: float
    list_id: str = ""
    mode: str = ""

    def to_document(self) -> dict:
        return {
            "setting": {
                "k": self.k,
                "label_scheme": self.label_scheme,
                "list_id": self.list_id,
                "mode": self.mode,
            },
            "ari": self.ari,
            "nmi": self.nmi,
            "fmi": self.fmi,
            "cluster_sizes": self.cluster_sizes,
            "seed": self.seed,
            "inertia": self.inertia,
        }


def collapse_labels(cohorts, scheme: str) -> list:
    """three_way keeps labels as-is; collapsed_patient folds non-CN into 'patient'."""
    if scheme == "three_way":
        return list(cohorts)
    if scheme == "collapsed_patient":
        return ["CN" if c == "CN" else "patient" for c in cohorts]
    raise ParameterError(
        f"unknown label scheme {scheme!r}; choose from {', '.join(LABEL_SCHEMES)}"
    )


def evaluate_clustering(
    features,
    k: int,
    label_scheme: str = "three_way",
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    labels=None,
    list_id: str = "",
    mode: str = "",
) -> ClusteringReport:
    """Cluster the rows and score the assignment against cohort labels.

    `features` is a FeatureMatrix (labels from its cohort column) or a raw
    2-D array with `labels` supplied explicitly.
    """
    if isinstance(features, FeatureMatrix):
        truth = list(features.cohorts) if labels is None else list(labels)
    else:
        if labels is None:
            raise ParameterError("raw feature arrays require explicit labels")
        truth = list(labels)
    bad = [t for t in truth if t in (None, "", "UNLABELED")]
    if bad:
        raise AnalysisError(
            f"{len(bad)} rows lack a cohort label; clustering truth undefined"
        )
    truth = collapse_labels(truth, label_scheme)
    model = kmeans_fit(features, k, seed=seed, restarts=restarts, max_iter=max_iter, tol=tol)
    predicted = model.assignments.tolist()
    sizes = np.bincount(model.assignments, minlength=k).tolist()
    return ClusteringReport(
        k=k,
        label_scheme=label_scheme,
        ari=adjusted_rand_index(truth, predicted),
        nmi=normalized_mutual_information(truth, predicted),
        fmi=fowlkes_mallows_index(truth, predicted),
        cluster_sizes=sizes,
        seed=seed,
        inertia=model.inertia,
        list_id=list_id,
        mode=mode,
    )


def write_clustering_report(
    reports: "list[ClusteringReport]", path: str | Path, provenance: dict | None = None
):
    document = {
        "runs": [r.to_document() for r in reports],
    }
    if provenance:
        document["provenance"] = provenance
    write_json(path, document)
