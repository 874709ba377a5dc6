import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pheno_mine.artifacts import atomic_file, csv_artifact, write_json, write_text
from pheno_mine.cohort import COHORTS, CohortManifest, ManifestEntry, load_manifest, write_manifest
from pheno_mine.errors import MatrixError
from pheno_mine.extraction import ExtractionProfile, RejectedToken, write_reject_log
from pheno_mine.features import FeatureMatrix
from pheno_mine.schema import FeatureColumn, feature_index


def small_matrix(combined):
    columns = feature_index(combined)
    rows = [bytearray(len(columns)) for _ in range(3)]
    rows[0][0] = 1
    rows[1][5] = 1
    rows[2][0] = 1
    rows[2][36] = 1
    return FeatureMatrix(
        note_ids=["N1", "N2", "N3"],
        cohorts=["CN", "MCI", "ADRD"],
        columns=columns,
        rows=rows,
    )


def test_shape_and_keys(combined):
    matrix = small_matrix(combined)
    assert matrix.shape == (3, 37)
    assert len(matrix.column_keys) == 37
    assert matrix.column_keys[0] == "list1:Memory Indicators:repeating"


def test_data_is_a_read_only_array_of_the_rows(combined):
    matrix = small_matrix(combined)
    assert all(type(row) is bytes for row in matrix.rows)
    assert matrix.data.dtype == np.int8 and matrix.data.shape == matrix.shape
    assert matrix.data.tolist() == [list(row) for row in matrix.rows]
    assert matrix.data is matrix.data
    with pytest.raises(ValueError, match="read-only"):
        matrix.data[0, 0] = 0


def test_validation_rejects_inconsistent_shapes(combined):
    columns = feature_index(combined)
    with pytest.raises(MatrixError, match="1 note ids but 2 cohort labels"):
        FeatureMatrix(note_ids=["N1"], cohorts=["CN", "MCI"], columns=columns, rows=[bytes(37)])
    with pytest.raises(MatrixError, match="2 note ids but 1 data rows"):
        FeatureMatrix(note_ids=["N1", "N2"], cohorts=["CN", "CN"], columns=columns, rows=[bytes(37)])
    with pytest.raises(MatrixError, match="37 columns declared but 36 data columns"):
        FeatureMatrix(note_ids=["N1"], cohorts=["CN"], columns=columns, rows=[bytes(36)])
    # a ragged matrix: every row is checked, not only the first
    with pytest.raises(MatrixError, match="37 columns declared but 38 data columns"):
        FeatureMatrix(
            note_ids=["N1", "N2"], cohorts=["CN", "CN"], columns=columns, rows=[bytes(37), bytes(38)]
        )


def test_validation_rejects_non_binary(combined):
    columns = feature_index(combined)
    for cell in (2, 255, ord("1")):
        row = bytearray(37)
        row[36] = cell
        with pytest.raises(MatrixError, match="0 or 1"):
            FeatureMatrix(
                note_ids=["N1", "N2"], cohorts=["CN", "CN"], columns=columns, rows=[bytes(37), row]
            )


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
    assert loaded.rows == matrix.rows


def test_csv_roundtrip_without_provenance(tmp_path, combined):
    matrix = small_matrix(combined)
    path = tmp_path / "matrix.csv"
    matrix.to_csv(path)
    assert not path.read_text(encoding="utf-8").startswith("#")
    loaded = FeatureMatrix.from_csv(path)
    assert loaded.rows == matrix.rows


def _via_atomic_file(path, fail):
    with atomic_file(path) as fh:
        fh.write("written\n")
        if fail:
            raise RuntimeError("disk gone")


def _via_csv_artifact(path, fail):
    with csv_artifact(path, {"run": int(fail)}) as writer:
        writer.writerow(["note_id", "cohort"])
        if fail:
            raise RuntimeError("disk gone")


def _via_write_text(path, fail):
    # a lone surrogate cannot be encoded as UTF-8
    write_text(path, "text\n\ud800" if fail else "text\n")


def _via_write_json(path, fail):
    write_json(path, {"runs": [object()] if fail else []})


def _via_reject_log(path, fail):
    rejects = [RejectedToken("N1", 0, "Memory", "misc")]
    if fail:  # an unserialisable token after a good one
        rejects.append(RejectedToken("N1", 1, "Memory", object()))
    write_reject_log([ExtractionProfile("N1", rejects=rejects)], path)


@pytest.mark.parametrize(
    "write",
    [_via_atomic_file, _via_csv_artifact, _via_write_text, _via_write_json, _via_reject_log],
    ids=["atomic_file", "csv_artifact", "write_text", "write_json", "reject_log"],
)
def test_failed_write_leaves_earlier_artifact_untouched(tmp_path, write):
    path = tmp_path / "artifact"
    for earlier in (False, True):
        if earlier:
            write(path, fail=False)
        before = path.read_bytes() if path.exists() else None
        with pytest.raises((RuntimeError, TypeError, UnicodeEncodeError)):
            write(path, fail=True)
        assert (path.read_bytes() if path.exists() else None) == before
        assert [p.name for p in tmp_path.iterdir()] == (["artifact"] if earlier else [])


# note ids, cohorts and categories from an alphabet of every character the CSV
# format treats specially, plus '#', which starts the provenance line
_FIELD = st.text(alphabet='#,"\n\r a1', max_size=6)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(_FIELD, _FIELD), max_size=6, unique_by=lambda r: r[0]),
    categories=st.lists(st.text(alphabet='#,"\n\r :a1', min_size=1, max_size=6), max_size=3),
    provenance=st.none() | st.fixed_dictionaries({"seed": st.integers(0, 9), "mode": _FIELD}),
    data=st.data(),
)
def test_matrix_csv_roundtrip_keeps_every_row(rows, categories, provenance, data):
    columns = [FeatureColumn(i, "ns", c, f"p{i}") for i, c in enumerate(categories)]
    row = st.lists(st.integers(0, 1), min_size=len(columns), max_size=len(columns)).map(bytes)
    cells = data.draw(st.lists(row, min_size=len(rows), max_size=len(rows)))
    matrix = FeatureMatrix(
        note_ids=[r[0] for r in rows], cohorts=[r[1] for r in rows], columns=columns, rows=cells
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        matrix.to_csv(path, provenance)
        loaded = FeatureMatrix.from_csv(path)
    assert loaded.note_ids == matrix.note_ids
    assert loaded.cohorts == matrix.cohorts
    assert loaded.column_keys == matrix.column_keys
    assert loaded.rows == matrix.rows == cells
    assert loaded.data.tolist() == [list(row) for row in cells]


@settings(max_examples=300, deadline=None)
@given(
    entries=st.lists(
        st.builds(ManifestEntry, _FIELD, _FIELD, st.sampled_from(COHORTS)),
        min_size=1,
        max_size=6,
        unique_by=lambda e: e.note_id,
    ),
    provenance=st.none() | st.fixed_dictionaries({"seed": st.integers(0, 9)}),
)
def test_manifest_roundtrip_keeps_every_row(entries, provenance):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.csv"
        write_manifest(CohortManifest(entries=tuple(entries)), path, provenance)
        assert load_manifest(path).entries == tuple(entries)


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


def test_from_csv_rejects_repeated_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("note_id,cohort,ns:cat:p,ns:cat:q,ns:cat:p\nN1,CN,1,0,1\n", encoding="utf-8")
    with pytest.raises(MatrixError, match="'ns:cat:p' appears more than once"):
        FeatureMatrix.from_csv(path)


def test_from_csv_rejects_repeated_note_id(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("note_id,cohort,ns:cat:p\nN1,CN,1\nN2,MCI,0\nN1,CN,1\n", encoding="utf-8")
    with pytest.raises(MatrixError, match=r"bad.csv:4: note id 'N1' appears more than once"):
        FeatureMatrix.from_csv(path)


def test_empty_matrix_roundtrip(tmp_path):
    columns = [FeatureColumn(0, "ns", "cat", "p")]
    matrix = FeatureMatrix(note_ids=[], cohorts=[], columns=columns, rows=[])
    path = tmp_path / "empty.csv"
    matrix.to_csv(path)
    loaded = FeatureMatrix.from_csv(path)
    assert loaded.shape == (0, 1)
