"""Two-component PCA via covariance eigendecomposition, for scatter plots."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import csv_artifact
from .errors import ParameterError
from .features import FeatureMatrix

logger = logging.getLogger(__name__)

_ZERO_VARIANCE_EPS = 1e-12


@dataclass
class PcaProjection:
    components: np.ndarray  # (2, n_features), orthonormal rows
    explained_variance: np.ndarray  # (2,)
    explained_variance_ratio: np.ndarray  # (2,)
    coordinates: np.ndarray  # (n_rows, 2)
    mean: np.ndarray  # (n_features,)
    degenerate: bool = False


def pca_project(features) -> PcaProjection:
    """Project rows onto the top-2 principal directions.

    Columns are mean-centered but not scaled. The sample covariance matrix is
    eigendecomposed symmetrically; each component's largest-magnitude
    coordinate is flipped positive so the output is sign-deterministic.
    """
    X = features.data if isinstance(features, FeatureMatrix) else features
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ParameterError(f"feature array must be 2-dimensional, got shape {X.shape}")
    rows, dims = X.shape
    if rows < 2:
        raise ParameterError(f"need at least 2 rows, got {rows}")
    if dims < 2:
        raise ParameterError(f"need at least 2 feature columns, got {dims}")
    if not np.isfinite(X).all():
        raise ParameterError("feature array contains non-finite values")
    mean = X.mean(axis=0)
    centered = X - mean
    covariance = (centered.T @ centered) / (rows - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(covariance)
    # eigh returns ascending order; flip to descending and clamp the tiny
    # negative values eigendecomposition noise can produce.
    eigenvalues = np.clip(eigenvalues[::-1], 0.0, None)
    eigenvectors = eigenvectors[:, ::-1]
    total_variance = float(eigenvalues.sum())
    components = eigenvectors[:, :2].T.copy()
    degenerate = total_variance <= _ZERO_VARIANCE_EPS
    if degenerate:
        logger.warning("matrix has zero variance; projection is degenerate")
        components = np.zeros((2, dims))
        components[0, 0] = 1.0
        components[1, 1] = 1.0
        explained = np.zeros(2)
        ratios = np.zeros(2)
    else:
        for i in range(2):
            anchor = int(np.abs(components[i]).argmax())
            if components[i, anchor] < 0:
                components[i] = -components[i]
        explained = eigenvalues[:2].copy()
        ratios = explained / total_variance
    coordinates = centered @ components.T
    return PcaProjection(
        components=components,
        explained_variance=explained,
        explained_variance_ratio=ratios,
        coordinates=coordinates,
        mean=mean,
        degenerate=degenerate,
    )


def write_pca_csv(
    projection: PcaProjection,
    note_ids,
    cohorts,
    path: str | Path,
    provenance: dict | None = None,
):
    with csv_artifact(path, provenance) as writer:
        writer.writerow(["note_id", "cohort", "pc1", "pc2"])
        for i, note_id in enumerate(note_ids):
            writer.writerow(
                [
                    note_id,
                    cohorts[i],
                    f"{projection.coordinates[i, 0]:.10g}",
                    f"{projection.coordinates[i, 1]:.10g}",
                ]
            )
