import pytest

from pheno_mine.cohort import (
    CohortManifest,
    DiagnosisRecord,
    ManifestEntry,
    NoteRecord,
    assign_cohort,
    build_manifest,
    label_notes,
    load_manifest,
    normalize_icd,
    sample_cohort,
    write_manifest,
)
from pheno_mine.errors import CohortError


def note(note_id="N1", patient="P1", age=70.0, years=5.0, meds=False):
    return NoteRecord(
        note_id=note_id,
        patient_id=patient,
        text="Patient seen today.",
        age=age,
        history_years=years,
        on_dementia_meds=meds,
    )


def cohort_of(note_record, diagnoses):
    return assign_cohort(
        note_record.patient_id,
        diagnoses,
        note_record.age,
        note_record.history_years,
        note_record.on_dementia_meds,
    )


def dx(code, version=10, patient="P1"):
    return DiagnosisRecord(patient, version, normalize_icd(code))


def test_normalize_icd_strips_dots_and_case():
    assert normalize_icd("G30.9") == "G309"
    assert normalize_icd(" f01.50 ") == "F0150"
    assert normalize_icd("331.0") == "3310"


@pytest.mark.parametrize(
    "code,version",
    [
        ("G30.0", 10),
        ("G30.1", 10),
        ("G30.8", 10),
        ("G30.9", 10),
        ("G31.83", 10),
        ("G31.09", 10),
        ("F01.50", 10),
        ("F01.51", 10),
        ("F02.80", 10),
        ("F02.81", 10),
        ("F03.90", 10),
        ("F03.91", 10),
        ("331.0", 9),
        ("331.11", 9),
        ("331.19", 9),
        ("331.82", 9),
        ("290.0", 9),
        ("290.40", 9),
        ("294.1", 9),
        ("294.20", 9),
        ("797", 9),
    ],
)
def test_adrd_codes(code, version):
    assert cohort_of(note(), [dx(code, version)]) == "ADRD"


@pytest.mark.parametrize("code,version", [("331.83", 9), ("G31.84", 10)])
def test_mci_codes(code, version):
    assert cohort_of(note(), [dx(code, version)]) == "MCI"


def test_mci_code_does_not_hit_adrd_prefix():
    # 331.83 normalizes to 33183, which must not match the 331.1x family
    assert cohort_of(note(), [dx("331.83", 9)]) == "MCI"
    assert cohort_of(note(), [dx("331.1", 9)]) == "ADRD"


def test_icd9_331x_non_adrd_members_are_not_adrd():
    # only 331.0, 331.1x and 331.82/331.83 families are specified
    assert cohort_of(note(), [dx("331.7", 9)]) == "CN"


def test_version_scoping():
    # an ICD-9-looking code under version 10 must not trigger ICD-9 rules
    assert cohort_of(note(), [dx("331.0", 10)]) == "CN"
    assert cohort_of(note(), [dx("G30.9", 9)]) == "CN"


def test_adrd_takes_precedence_over_mci():
    records = [dx("G31.84", 10), dx("G30.9", 10)]
    assert cohort_of(note(), records) == "ADRD"


def test_cn_requires_age_history_and_no_meds():
    assert cohort_of(note(), []) == "CN"
    assert cohort_of(note(age=40.0), []) == "UNLABELED"  # strictly over 40
    assert cohort_of(note(age=40.1), []) == "CN"
    assert cohort_of(note(years=0.5), []) == "UNLABELED"
    assert cohort_of(note(years=1.0), []) == "CN"  # one year suffices
    assert cohort_of(note(meds=True), []) == "UNLABELED"
    assert cohort_of(note(age=None), []) == "UNLABELED"
    assert cohort_of(note(years=None), []) == "UNLABELED"
    assert cohort_of(note(meds=None), []) == "UNLABELED"


def test_label_notes_and_build_manifest_drop_unlabeled():
    notes = [
        note("N1", "P1"),
        note("N2", "P2", age=30.0),
        note("N3", "P3"),
    ]
    diagnoses = {"P3": [dx("G30.9", patient="P3")]}
    labeled = label_notes(notes, diagnoses)
    assert [n.cohort for n in labeled] == ["CN", "UNLABELED", "ADRD"]
    manifest = build_manifest(labeled, seed=1)
    assert manifest.counts == {"CN": 1, "MCI": 0, "ADRD": 1}
    assert {e.note_id for e in manifest.entries} == {"N1", "N3"}


def test_manifest_rejects_duplicate_note_ids():
    entries = (
        ManifestEntry("N1", "P1", "CN"),
        ManifestEntry("N1", "P2", "MCI"),
    )
    with pytest.raises(CohortError, match="duplicate"):
        CohortManifest(entries=entries, seed=0)


def test_duplicates_of_a_large_manifest_are_named_sorted_first_five():
    ids = [f"N{i:06d}" for i in range(100_000)]
    ids += ["N099999", "N000007", "N050000", "N000007", "N000003", "N070000", "N000042"]
    entries = tuple(ManifestEntry(i, "P1", "CN") for i in ids)
    expected = "['N000003', 'N000007', 'N000042', 'N050000', 'N070000']"
    with pytest.raises(CohortError) as info:
        CohortManifest(entries=entries, seed=0)
    assert str(info.value) == f"duplicate note ids in manifest: {expected}"


def test_sampling_is_deterministic_and_sized():
    entries = tuple(ManifestEntry(f"N{i}", f"P{i}", "CN") for i in range(20))
    manifest = CohortManifest(entries=entries, seed=0)
    once = sample_cohort(manifest, "CN", 5, seed=42)
    again = sample_cohort(manifest, "CN", 5, seed=42)
    assert [e.note_id for e in once.entries] == [e.note_id for e in again.entries]
    assert once.counts["CN"] == 5
    other_seed = sample_cohort(manifest, "CN", 5, seed=43)
    assert [e.note_id for e in once.entries] != [e.note_id for e in other_seed.entries]


def test_sampling_draws_union_grows():
    entries = tuple(ManifestEntry(f"N{i}", f"P{i}", "CN") for i in range(100))
    manifest = CohortManifest(entries=entries, seed=0)
    one_draw = sample_cohort(manifest, "CN", 10, seed=7, draws=1)
    two_draws = sample_cohort(manifest, "CN", 10, seed=7, draws=2)
    ids_one = {e.note_id for e in one_draw.entries}
    ids_two = {e.note_id for e in two_draws.entries}
    assert ids_one <= ids_two
    assert len(ids_two) > len(ids_one)  # ten draws of 10 from 100 rarely coincide
    assert len(ids_two) <= 20


def test_sampling_more_than_available_errors():
    entries = (ManifestEntry("N1", "P1", "MCI"),)
    manifest = CohortManifest(entries=entries, seed=0)
    with pytest.raises(CohortError, match="only 1 available"):
        sample_cohort(manifest, "MCI", 5, seed=0)


def test_manifest_roundtrip(tmp_path, demo_manifest):
    path = tmp_path / "manifest.csv"
    write_manifest(demo_manifest, path, {"config_hash": "abc", "seed": 0})
    loaded = load_manifest(path)
    assert loaded.counts == demo_manifest.counts
    assert [e.note_id for e in loaded.entries] == [e.note_id for e in demo_manifest.entries]
    assert loaded.cohort_of() == demo_manifest.cohort_of()


def test_demo_cohorts_balanced(demo_manifest):
    assert demo_manifest.counts == {"CN": 10, "MCI": 10, "ADRD": 10}
