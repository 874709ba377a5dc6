"""PCA projection checks against an SVD oracle, plus CSV/SVG emission."""

import csv
from xml.etree import ElementTree

import numpy as np
import pytest

from oracles import pca_svd_oracle
from pheno_mine.errors import ParameterError
from pheno_mine.features import FeatureMatrix
from pheno_mine.figures import render_pca_svg, write_pca_svg
from pheno_mine.pca import pca_project, write_pca_csv


def random_matrix(seed: int, rows: int = 40, dims: int = 9) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((rows, dims)) < 0.4).astype(float)


def test_projection_matches_svd_oracle():
    for seed in range(8):
        X = random_matrix(seed)
        projection = pca_project(X)
        ratios, directions = pca_svd_oracle(X)
        assert projection.explained_variance_ratio[0] == pytest.approx(
            ratios[0], abs=1e-10
        )
        assert projection.explained_variance_ratio[1] == pytest.approx(
            ratios[1], abs=1e-10
        )
        for i in range(2):
            # eigenvectors are defined up to sign
            dot = abs(float(np.dot(projection.components[i], directions[i])))
            assert dot == pytest.approx(1.0, abs=1e-8)


def test_coordinates_are_centered_projections():
    X = random_matrix(3)
    projection = pca_project(X)
    centered = X - X.mean(axis=0)
    expected = centered @ projection.components.T
    assert np.allclose(projection.coordinates, expected, atol=1e-12)
    # projections of centered data have zero mean
    assert np.allclose(projection.coordinates.mean(axis=0), 0.0, atol=1e-10)


def test_components_are_orthonormal():
    projection = pca_project(random_matrix(5))
    gram = projection.components @ projection.components.T
    assert np.allclose(gram, np.eye(2), atol=1e-10)


def test_sign_convention_is_deterministic():
    X = random_matrix(7)
    a = pca_project(X)
    b = pca_project(X.copy())
    assert np.array_equal(a.components, b.components)
    for i in range(2):
        anchor = int(np.abs(a.components[i]).argmax())
        assert a.components[i, anchor] > 0


def test_explained_variance_ordering_and_total():
    X = random_matrix(11)
    projection = pca_project(X)
    assert projection.explained_variance[0] >= projection.explained_variance[1] >= 0
    assert 0 < projection.explained_variance_ratio.sum() <= 1.0 + 1e-12


def test_accepts_feature_matrix():
    data = random_matrix(1, rows=6, dims=4).astype(np.int8)
    matrix = FeatureMatrix(
        note_ids=[f"N{i}" for i in range(6)],
        cohorts=["CN"] * 3 + ["ADRD"] * 3,
        columns=[f"list1:A:p{i}" for i in range(4)],
        rows=[r.tobytes() for r in data],
    )
    projection = pca_project(matrix)
    assert projection.coordinates.shape == (6, 2)


def test_collinear_points_put_all_variance_on_pc1():
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    projection = pca_project(X)
    assert not projection.degenerate
    assert np.allclose(projection.explained_variance_ratio, [1.0, 0.0], atol=1e-12)
    r = 1 / np.sqrt(2)
    assert np.allclose(projection.components[0], [r, r], atol=1e-12)


def test_isotropic_points_split_variance_evenly():
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    projection = pca_project(X)
    assert projection.explained_variance_ratio[0] == pytest.approx(0.5, abs=1e-12)
    assert projection.explained_variance_ratio[1] == pytest.approx(0.5, abs=1e-12)


def test_top2_components_reconstruct_rank2_data():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(12, 2))  # 2 features, so 2 components span everything
    projection = pca_project(X)
    centered = X - X.mean(axis=0)
    rebuilt = projection.coordinates @ projection.components
    assert np.allclose(rebuilt, centered, atol=1e-8)


def test_degenerate_zero_variance_input():
    X = np.ones((5, 3))
    projection = pca_project(X)
    assert projection.degenerate
    assert np.array_equal(projection.explained_variance_ratio, np.zeros(2))
    # fallback components are the first two axes, coordinates all zero
    assert np.allclose(projection.coordinates, 0.0)
    gram = projection.components @ projection.components.T
    assert np.allclose(gram, np.eye(2))


def test_input_validation():
    with pytest.raises(ParameterError, match="2-dimensional"):
        pca_project(np.zeros(3))
    with pytest.raises(ParameterError, match="at least 2 rows"):
        pca_project(np.zeros((1, 5)))
    with pytest.raises(ParameterError, match="at least 2 feature columns"):
        pca_project(np.zeros((5, 1)))
    with pytest.raises(ParameterError, match="non-finite"):
        pca_project(np.array([[1.0, np.inf], [0.0, 1.0]]))


def test_write_pca_csv(tmp_path):
    X = random_matrix(2, rows=4, dims=3)
    projection = pca_project(X)
    out = tmp_path / "pca_scatter.csv"
    write_pca_csv(
        projection,
        ["N1", "N2", "N3", "N4"],
        ["CN", "CN", "MCI", "ADRD"],
        out,
        provenance={"config_hash": "deadbeef0123", "seed": 0},
    )
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# provenance: ")
    assert '"config_hash": "deadbeef0123"' in lines[0]
    reader = csv.reader(lines[1:])
    header = next(reader)
    assert header == ["note_id", "cohort", "pc1", "pc2"]
    rows = list(reader)
    assert [r[0] for r in rows] == ["N1", "N2", "N3", "N4"]
    for i, row in enumerate(rows):
        assert float(row[2]) == pytest.approx(projection.coordinates[i, 0], abs=1e-9)
        assert float(row[3]) == pytest.approx(projection.coordinates[i, 1], abs=1e-9)


def test_svg_contains_points_axes_and_legend(tmp_path):
    X = random_matrix(4, rows=9, dims=5)
    cohorts = ["CN"] * 3 + ["MCI"] * 3 + ["ADRD"] * 3
    projection = pca_project(X)
    text = render_pca_svg(projection, cohorts, provenance={"seed": 0})
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<circle ") == 9 + 3  # points plus one legend dot per cohort
    assert "PC1 (" in text and "PC2 (" in text
    for cohort in ("CN", "MCI", "ADRD"):
        assert f">{cohort}</text>" in text
    assert "provenance" in text
    out = tmp_path / "pca_scatter.svg"
    write_pca_svg(projection, cohorts, out)
    assert out.read_text().startswith("<svg ")


def test_svg_escapes_cohort_labels():
    X = random_matrix(5, rows=4, dims=3)
    cohorts = ['A<B&"C"', 'A<B&"C"', "</svg>", "</svg>"]
    svg = render_pca_svg(pca_project(X), cohorts, provenance={"list_id": "a]]>b&<"})
    root = ElementTree.fromstring(svg)
    labels = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert labels[-2:] == ['A<B&"C"', "</svg>"]
    desc = root.find("{http://www.w3.org/2000/svg}desc").text
    assert desc == 'provenance: {"list_id": "a]]>b&<"}'


def test_svg_is_byte_stable_and_flags_degenerate():
    X = random_matrix(6, rows=7, dims=4)
    cohorts = ["CN", "CN", "MCI", "MCI", "ADRD", "ADRD", "ADRD"]
    first = render_pca_svg(pca_project(X), cohorts)
    second = render_pca_svg(pca_project(X.copy()), cohorts)
    assert first == second
    flat = render_pca_svg(pca_project(np.zeros((4, 3))), ["CN"] * 4)
    assert "degenerate" in flat
