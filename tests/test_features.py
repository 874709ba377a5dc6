import numpy as np
import pytest

from pheno_mine.artifacts import csv_artifact
from pheno_mine.errors import MatrixError
from pheno_mine.features import FeatureMatrix
from pheno_mine.schema import FeatureColumn, feature_index


def small_matrix(combined):
    columns = feature_index(combined)
    data = np.zeros((3, len(columns)), dtype=np.int8)
    data[0, 0] = 1
    data[1, 5] = 1
    data[2, 0] = 1
    data[2, 36] = 1
    return FeatureMatrix(
        note_ids=["N1", "N2", "N3"],
        cohorts=["CN", "MCI", "ADRD"],
        columns=columns,
        data=data,
    )


def test_shape_and_keys(combined):
    matrix = small_matrix(combined)
    assert matrix.shape == (3, 37)
    assert len(matrix.column_keys) == 37
    assert matrix.column_keys[0] == "list1:Memory Indicators:repeating"


def test_validation_rejects_inconsistent_shapes(combined):
    columns = feature_index(combined)
    with pytest.raises(MatrixError):
        FeatureMatrix(
            note_ids=["N1"],
            cohorts=["CN", "MCI"],
            columns=columns,
            data=np.zeros((1, 37), dtype=np.int8),
        )
    with pytest.raises(MatrixError):
        FeatureMatrix(
            note_ids=["N1"],
            cohorts=["CN"],
            columns=columns,
            data=np.zeros((1, 36), dtype=np.int8),
        )


def test_validation_rejects_non_binary(combined):
    columns = feature_index(combined)
    data = np.zeros((1, 37), dtype=np.int8)
    data[0, 0] = 2
    with pytest.raises(MatrixError, match="0 or 1"):
        FeatureMatrix(note_ids=["N1"], cohorts=["CN"], columns=columns, data=data)


def test_category_groups_are_ordered(combined):
    matrix = small_matrix(combined)
    groups = matrix.category_groups()
    names = [category for (_, category) in groups]
    assert names[:6] == [
        "Memory Indicators",
        "Comorbidities",
        "Family history",
        "Neurobehavioral tests/ratings",
        "Neuroimaging findings",
        "Biomarker test results",
    ]
    assert sum(len(ix) for ix in groups.values()) == 37


def test_rows_for_cohort(combined):
    matrix = small_matrix(combined)
    assert matrix.rows_for_cohort("CN").tolist() == [0]
    assert matrix.rows_for_cohort("ADRD").tolist() == [2]
    assert matrix.rows_for_cohort("UNLABELED").tolist() == []


def test_csv_roundtrip(tmp_path, combined):
    matrix = small_matrix(combined)
    path = tmp_path / "matrix.csv"
    matrix.to_csv(path, {"config_hash": "cafe", "seed": 3})
    text = path.read_text(encoding="utf-8")
    assert text.startswith("# provenance:")
    loaded = FeatureMatrix.from_csv(path)
    assert loaded.note_ids == matrix.note_ids
    assert loaded.cohorts == matrix.cohorts
    assert loaded.column_keys == matrix.column_keys
    assert (loaded.data == matrix.data).all()


def test_csv_roundtrip_without_provenance(tmp_path, combined):
    matrix = small_matrix(combined)
    path = tmp_path / "matrix.csv"
    matrix.to_csv(path)
    assert not path.read_text(encoding="utf-8").startswith("#")
    loaded = FeatureMatrix.from_csv(path)
    assert (loaded.data == matrix.data).all()


def test_failed_write_leaves_earlier_artifact_untouched(tmp_path, combined):
    path = tmp_path / "m.csv"
    for earlier in (None, small_matrix(combined)):
        if earlier is not None:
            earlier.to_csv(path, {"run": 1})
        before = path.read_bytes() if path.exists() else None
        with pytest.raises(RuntimeError, match="disk gone"):
            with csv_artifact(path, {"run": 2}) as writer:
                writer.writerow(["note_id", "cohort"])
                raise RuntimeError("disk gone")
        assert (path.read_bytes() if path.exists() else None) == before
        assert [p.name for p in tmp_path.iterdir()] == ([] if earlier is None else ["m.csv"])


def test_from_csv_rejects_bad_cells(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "note_id,cohort,ns:cat:p\nN1,CN,maybe\n",
        encoding="utf-8",
    )
    with pytest.raises(MatrixError):
        FeatureMatrix.from_csv(path)


def test_from_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "note_id,cohort,ns:cat:p\nN1,CN\n",
        encoding="utf-8",
    )
    with pytest.raises(MatrixError):
        FeatureMatrix.from_csv(path)


def test_empty_matrix_roundtrip(tmp_path):
    columns = [FeatureColumn(0, "ns", "cat", "p")]
    matrix = FeatureMatrix(
        note_ids=[], cohorts=[], columns=columns, data=np.zeros((0, 1), dtype=np.int8)
    )
    path = tmp_path / "empty.csv"
    matrix.to_csv(path)
    loaded = FeatureMatrix.from_csv(path)
    assert loaded.shape == (0, 1)
