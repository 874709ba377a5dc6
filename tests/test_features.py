import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pheno_mine.artifacts import atomic_file, csv_artifact, write_json, write_text
from pheno_mine.cohort import COHORTS, CohortManifest, ManifestEntry, load_manifest, write_manifest
from pheno_mine.errors import MatrixError
from pheno_mine.extraction import ExtractionProfile, RejectedToken, write_reject_log
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
    rows=st.lists(st.tuples(_FIELD, _FIELD), max_size=6),
    categories=st.lists(st.text(alphabet='#,"\n\r :a1', min_size=1, max_size=6), max_size=3),
    provenance=st.none() | st.fixed_dictionaries({"seed": st.integers(0, 9), "mode": _FIELD}),
    data=st.data(),
)
def test_matrix_csv_roundtrip_keeps_every_row(rows, categories, provenance, data):
    columns = [FeatureColumn(i, "ns", c, f"p{i}") for i, c in enumerate(categories)]
    cells = data.draw(arrays(np.int8, (len(rows), len(columns)), elements=st.integers(0, 1)))
    matrix = FeatureMatrix(
        note_ids=[r[0] for r in rows], cohorts=[r[1] for r in rows], columns=columns, data=cells
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        matrix.to_csv(path, provenance)
        loaded = FeatureMatrix.from_csv(path)
    assert loaded.note_ids == matrix.note_ids
    assert loaded.cohorts == matrix.cohorts
    assert loaded.column_keys == matrix.column_keys
    assert loaded.data.tolist() == matrix.data.tolist()


@settings(max_examples=300, deadline=None)
@given(
    entries=st.lists(
        st.builds(ManifestEntry, _FIELD, _FIELD, st.sampled_from(COHORTS)),
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


def test_empty_matrix_roundtrip(tmp_path):
    columns = [FeatureColumn(0, "ns", "cat", "p")]
    matrix = FeatureMatrix(
        note_ids=[], cohorts=[], columns=columns, data=np.zeros((0, 1), dtype=np.int8)
    )
    path = tmp_path / "empty.csv"
    matrix.to_csv(path)
    loaded = FeatureMatrix.from_csv(path)
    assert loaded.shape == (0, 1)
