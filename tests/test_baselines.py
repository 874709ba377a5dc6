"""Dictionary-matching and NER-ingestion baseline behaviour."""

import json
import logging
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pheno_mine import baselines
from pheno_mine.baselines import (
    ConceptDictionary,
    attach_cohorts,
    build_dictionary,
    extract_dictionary_features,
    ingest_ner_annotations,
)
from pheno_mine.cohort import NoteRecord, UNLABELED
from pheno_mine.errors import BaselineError, ParameterError

from oracles import note_concepts_exact_oracle, note_concepts_jaccard_oracle


def note(note_id: str, text: str, cohort: str = "CN") -> NoteRecord:
    return NoteRecord(
        note_id=note_id,
        patient_id=f"P-{note_id}",
        text=text,
        age=70.0,
        history_years=5.0,
        on_dementia_meds=False,
        cohort=cohort,
    )


def write_terms(tmp_path, rows, name="terms.csv"):
    path = tmp_path / name
    path.write_text("term,concept_id\n" + "".join(f"{t},{c}\n" for t, c in rows))
    return path


def by_tokens(terms: dict) -> dict:
    """A dictionary's term map from the oracles' space-joined terms."""
    return {tuple(term.split()): concept for term, concept in terms.items()}


# ---------------------------------------------------------------------------
# dictionary construction


def test_build_dictionary_drops_short_terms(tmp_path):
    path = write_terms(tmp_path, [("tau", "C1"), ("gait", "C2"), ("tremor", "C3")])
    dictionary = build_dictionary(path)
    # length <= 4 characters is dropped: 'tau' (3) and 'gait' (4) go
    assert dictionary.terms == {("tremor",): "C3"}


def test_build_dictionary_keeps_first_duplicate(tmp_path, caplog):
    path = write_terms(
        tmp_path, [("memory loss", "C1"), ("Memory  Loss", "C2"), ("aphasia", "C3")]
    )
    with caplog.at_level(logging.WARNING):
        dictionary = build_dictionary(path)
    assert dictionary.terms["memory", "loss"] == "C1"
    assert any("duplicate term" in r.message for r in caplog.records)


def test_build_dictionary_sanitizes_concept_ids(tmp_path, caplog):
    rows = [("memory loss", "SNOMED:12345"), ("aphasia", "C2"), ("memory lapse", "SNOMED:12345")]
    rows += [(f"finding {i:04d}", f"SNOMED:{i}") for i in range(5_000)]
    with caplog.at_level(logging.WARNING):
        dictionary = build_dictionary(write_terms(tmp_path, rows))
    assert dictionary.terms["memory", "loss"] == dictionary.terms["memory", "lapse"]
    assert dictionary.terms["memory", "loss"] == "SNOMED_12345"
    assert dictionary.terms[("aphasia",)] == "C2"
    assert dictionary.terms["finding", "4999"] == "SNOMED_4999"
    # one warning for the file, with the count and the first renamed id
    assert [r.getMessage() for r in caplog.records] == [
        f"{tmp_path / 'terms.csv'}: 5001 concept id(s) contain ':'; renamed with '_' for "
        "matrix columns (first: 'SNOMED:12345' -> 'SNOMED_12345')"
    ]


@pytest.mark.parametrize(
    "concepts, pair",
    [
        (["A:1", "A_1"], ("A:1", "A_1")),
        (["A_1", "B", "A:1"], ("A_1", "A:1")),
        (["X:_1", "X_:1"], ("X:_1", "X_:1")),
    ],
)
def test_column_renames_refuse_two_ids_sharing_a_column(concepts, pair):
    message = f"terms.csv: concept ids {pair[0]!r} and {pair[1]!r} would share one matrix column"
    with pytest.raises(BaselineError) as raised:
        baselines._column_renames(concepts, "terms.csv")
    assert str(raised.value) == message


def test_build_dictionary_requires_expected_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("word,code\nmemory loss,C1\n")
    with pytest.raises(BaselineError, match="term,concept_id"):
        build_dictionary(path)
    with pytest.raises(BaselineError, match="cannot read"):
        build_dictionary(tmp_path / "missing.csv")
    # a file with no header line fails the same check as a wrong header
    (tmp_path / "empty.csv").write_bytes(b"")
    with pytest.raises(BaselineError, match="term,concept_id"):
        build_dictionary(tmp_path / "empty.csv")


def test_build_dictionary_reads_short_long_and_repeated_columns(tmp_path, caplog):
    path = tmp_path / "terms.csv"
    path.write_text(
        "term,concept_id,extra\nmemory loss\nhypertension,C2\n,C3\ntremor of hands,C4,x,y\n"
    )
    with caplog.at_level(logging.WARNING):
        dictionary = build_dictionary(path)
    # a short record's missing fields are empty; fields past the header are ignored
    assert dictionary.terms == {("hypertension",): "C2", ("tremor", "of", "hands"): "C4"}
    assert sum("empty term or concept" in r.message for r in caplog.records) == 2
    # a repeated column name reads its last column
    path.write_text("term,concept_id,term\nignored words,C1,memory loss\n")
    assert build_dictionary(path).terms == {("memory", "loss"): "C1"}


def test_build_dictionary_max_term_tokens(tmp_path):
    path = write_terms(
        tmp_path, [("memory loss", "C1"), ("mini mental status exam score", "C2")]
    )
    dictionary = build_dictionary(path)
    assert dictionary.max_term_tokens == 5


# ---------------------------------------------------------------------------
# dictionary extraction


def test_exact_matching_requires_exact_ngram(tmp_path):
    path = write_terms(tmp_path, [("memory loss", "C1"), ("hypertension", "C2")])
    dictionary = build_dictionary(path)
    notes = [
        note("N1", "Reports memory loss and hypertension."),
        note("N2", "Some memory complaints only."),
        note("N3", "History of hypertension."),
    ]
    matrix = extract_dictionary_features(notes, dictionary, min_doc_freq=1)
    assert [c.phenotype_id for c in matrix.columns] == ["C1", "C2"]
    assert matrix.data.tolist() == [[1, 1], [0, 0], [0, 1]]
    assert dictionary.document_frequency == {"C1": 1, "C2": 2}


def test_matching_is_case_insensitive_and_punctuation_tolerant(tmp_path):
    path = write_terms(tmp_path, [("memory loss", "C1")])
    dictionary = build_dictionary(path)
    notes = [note("N1", "MEMORY LOSS, noted."), note("N2", "memory-loss suspected")]
    matrix = extract_dictionary_features(notes, dictionary, min_doc_freq=1)
    assert matrix.data.tolist() == [[1], [1]]


def test_jaccard_threshold_allows_token_reordering(tmp_path):
    path = write_terms(tmp_path, [("memory loss", "C1")])
    dictionary = build_dictionary(path)
    notes = [note("N1", "loss memory documented"), note("N2", "memory intact")]
    exact = extract_dictionary_features(notes, dictionary, min_doc_freq=1)
    assert exact.data.shape[1] == 0  # reordered tokens never match exactly
    fuzzy = extract_dictionary_features(
        notes, dictionary, min_doc_freq=1, similarity_threshold=0.99
    )
    # the bigram {loss, memory} has Jaccard 1.0 with the term's token set
    assert [c.phenotype_id for c in fuzzy.columns] == ["C1"]
    assert fuzzy.data.tolist() == [[1], [0]]


def test_jaccard_partial_overlap_at_half_threshold(tmp_path):
    path = write_terms(tmp_path, [("severe memory loss", "C1")])
    dictionary = build_dictionary(path)
    notes = [note("N1", "memory loss noted")]
    # {memory, loss} vs {severe, memory, loss}: intersection 2, union 3
    hit = extract_dictionary_features(
        notes, dictionary, min_doc_freq=1, similarity_threshold=2 / 3
    )
    assert hit.data.tolist() == [[1]]
    miss = extract_dictionary_features(
        notes, dictionary, min_doc_freq=1, similarity_threshold=0.7
    )
    assert miss.data.shape[1] == 0


def test_jaccard_worked_example_reordered_with_filler(tmp_path):
    path = write_terms(tmp_path, [("memory loss", "C1")])
    dictionary = build_dictionary(path)
    notes = [note("N1", "losses of memory")]
    # "losses" does not equal "loss", so the best candidate n-gram is the
    # unigram {memory}: Jaccard 1/2 = 0.5 against {memory, loss}
    matrix = extract_dictionary_features(
        notes, dictionary, min_doc_freq=1, similarity_threshold=0.8
    )
    assert matrix.data.shape[1] == 0
    at_max = extract_dictionary_features(
        notes, dictionary, min_doc_freq=1, similarity_threshold=0.5
    )
    assert at_max.data.tolist() == [[1]]
    above_max = extract_dictionary_features(
        notes, dictionary, min_doc_freq=1, similarity_threshold=0.51
    )
    assert above_max.data.shape[1] == 0


def test_exact_matching_equals_token_boundary_oracle(tmp_path):
    import random

    path = write_terms(
        tmp_path,
        [
            ("memory loss", "C1"),
            ("hypertension", "C2"),
            ("mini mental status exam", "C3"),
            ("gait instability", "C4"),
        ],
    )
    dictionary = build_dictionary(path)
    pool = (
        "memory loss hypertension mini mental status exam gait instability "
        "patient stable denies reports daily follow up"
    ).split()
    rng = random.Random(17)
    notes = [
        note(f"N{i}", " ".join(rng.choice(pool) for _ in range(rng.randint(3, 20))))
        for i in range(40)
    ]
    matrix = extract_dictionary_features(notes, dictionary, min_doc_freq=0)
    concept_of = {c.phenotype_id: j for j, c in enumerate(matrix.columns)}
    for i, record in enumerate(notes):
        padded = f" {' '.join(record.text.split())} "
        for term, concept in dictionary.terms.items():
            expected = 1 if f" {' '.join(term)} " in padded else 0
            j = concept_of.get(concept)
            got = int(matrix.data[i, j]) if j is not None else 0
            assert got == expected, (record.note_id, term)


# a small alphabet makes overlaps common; x0 and x1 occur in no term
TERM_TOKENS = [f"t{i}" for i in range(10)]
thresholds = st.one_of(
    st.integers(1, 10).map(lambda k: k / 10),
    st.sampled_from([1 / 3, 2 / 3]),
    # every ratio a gram of <= 5 and a term of <= 10 tokens can reach, so
    # some term sits exactly at the threshold
    st.tuples(st.integers(1, 15), st.integers(1, 15)).map(lambda p: min(p) / max(p)),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
term_dictionaries = st.dictionaries(
    st.lists(st.sampled_from(TERM_TOKENS), min_size=1, max_size=10).map(" ".join),
    st.sampled_from(["C0", "C1", "C2", "C3", "C4"]),
    max_size=12,
)
note_tokens = st.lists(st.sampled_from(TERM_TOKENS + ["x0", "x1"]), max_size=30)
# notes of one run that repeat phrases, so they share start windows across
# and within notes, mixed with notes shorter than a window and empty ones
run_notes = st.lists(note_tokens, min_size=1, max_size=4).flatmap(
    lambda phrases: st.lists(
        st.one_of(
            st.lists(st.sampled_from(phrases), max_size=4).map(lambda ps: sum(ps, [])),
            note_tokens.map(lambda tokens: tokens[: baselines.MAX_NGRAM - 1]),
        ),
        max_size=6,
    )
)


@settings(max_examples=400, deadline=None)
@given(terms=term_dictionaries, notes=st.lists(note_tokens, max_size=4), threshold=thresholds)
def test_jaccard_index_equals_all_pairs_oracle(terms, notes, threshold):
    dictionary = ConceptDictionary(terms=by_tokens(terms), min_term_length=0)
    index = baselines._JaccardIndex(dictionary, threshold)
    for tokens in notes:
        expected = note_concepts_jaccard_oracle(tokens, terms, baselines.MAX_NGRAM, threshold)
        assert index.note_concepts(tokens) == expected


class SizeRecordingDict(dict):
    """A dict that remembers the most entries it ever held."""

    largest = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.largest = max(self.largest, len(self))


@settings(max_examples=300, deadline=None)
@given(terms=term_dictionaries, notes=run_notes, threshold=thresholds)
def test_jaccard_window_walk_equals_all_pairs_oracle(terms, notes, threshold):
    dictionary = ConceptDictionary(terms=by_tokens(terms), min_term_length=0)
    index = baselines._JaccardIndex(dictionary, threshold)
    # the second pass meets every window from the memo
    for tokens in notes + notes:
        expected = note_concepts_jaccard_oracle(tokens, terms, baselines.MAX_NGRAM, threshold)
        assert index.note_concepts(tokens) == expected


@pytest.mark.parametrize("bound", [1, 2, 3])
@settings(max_examples=200, deadline=None)
@given(terms=term_dictionaries, notes=run_notes, threshold=thresholds)
def test_jaccard_memo_never_exceeds_its_bound(bound, terms, notes, threshold):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(baselines, "GRAM_MEMO_LIMIT", bound)
        dictionary = ConceptDictionary(terms=by_tokens(terms), min_term_length=0)
        index = baselines._JaccardIndex(dictionary, threshold)
        index.memo = SizeRecordingDict()
        index.window_memo = SizeRecordingDict()
        # the second pass meets windows and grams the memos kept, evicted or never held
        for tokens in notes + notes:
            expected = note_concepts_jaccard_oracle(tokens, terms, baselines.MAX_NGRAM, threshold)
            assert index.note_concepts(tokens) == expected
            assert index.memo.largest <= bound
            assert index.window_memo.largest <= bound


class QueryCountingDict(dict):
    """A dict that counts its ``get`` calls."""

    queries = 0

    def get(self, key, default=None):
        self.queries += 1
        return super().get(key, default)


def test_jaccard_work_per_demo_run(monkeypatch):
    # each distinct gram of the run is matched once, and the window memo is
    # queried at most once per token position
    from pheno_mine.cli import data_path
    from pheno_mine.cohort import read_notes

    probed, queries = [], []

    class CountingIndex(baselines._JaccardIndex):
        def __init__(self, *args):
            super().__init__(*args)
            self.window_memo = QueryCountingDict()

        def note_concepts(self, tokens):
            before = self.window_memo.queries
            found = super().note_concepts(tokens)
            queries.append((self.window_memo.queries - before, len(tokens)))
            return found

        def _gram_matches(self, gram):
            probed.append(gram)
            return super()._gram_matches(gram)

    monkeypatch.setattr(baselines, "_JaccardIndex", CountingIndex)
    notes = list(read_notes(data_path("demo_notes.jsonl")))
    dictionary = build_dictionary(data_path("demo_terms.csv"))
    extract_dictionary_features(notes, dictionary, min_doc_freq=1, similarity_threshold=0.8)
    grams = {
        gram
        for record in notes
        for gram in baselines._note_grams(baselines._tokenize(record.text), baselines.MAX_NGRAM)
    }
    assert len(probed) == len(set(probed)) == len(grams)
    assert set(probed) == grams
    assert len(queries) == len(notes)
    assert all(count <= positions for count, positions in queries)


@settings(max_examples=300, deadline=None)
@given(
    terms=term_dictionaries,
    notes=st.lists(note_tokens, min_size=1, max_size=4),
    max_n=st.integers(1, baselines.MAX_NGRAM),
)
def test_exact_pass_equals_joined_window_oracle(terms, notes, max_n):
    dictionary = ConceptDictionary(terms=by_tokens(terms), min_term_length=0)
    for tokens in notes:
        expected = note_concepts_exact_oracle(tokens, terms, max_n)
        assert baselines._note_concepts_exact(tokens, dictionary, max_n) == expected
    # through the extraction, which picks its window itself
    matrix = extract_dictionary_features(
        [note(f"N{i}", " ".join(tokens)) for i, tokens in enumerate(notes)],
        dictionary,
        min_doc_freq=0,
    )
    for row, tokens in zip(matrix.data, notes):
        found = {c.phenotype_id for c, cell in zip(matrix.columns, row) if cell}
        assert found == note_concepts_exact_oracle(tokens, terms, baselines.MAX_NGRAM)


def test_jaccard_match_exactly_at_threshold_survives_rounding():
    # a gram of 3 inside a term of 187 tokens has Jaccard 3 / 187, but
    # 3 / 187 * 187 > 3 in floats: a size filter or a minimum overlap computed
    # from t * s would drop this match; the gram's tokens rank last in the term
    term = " ".join(f"w{i:03d}" for i in range(187))
    dictionary = ConceptDictionary(terms=by_tokens({term: "C1"}), min_term_length=0)
    at, above = 3 / 187, math.nextafter(3 / 187, 1.0)
    for gram in (["w000", "w001", "w002"], ["w184", "w185", "w186"]):
        assert baselines._JaccardIndex(dictionary, at).note_concepts(gram) == {"C1"}
        assert baselines._JaccardIndex(dictionary, above).note_concepts(gram) == set()


def test_jaccard_index_is_built_once_per_extraction(tmp_path, monkeypatch):
    built = []

    class CountingIndex(baselines._JaccardIndex):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(baselines, "_JaccardIndex", CountingIndex)
    dictionary = build_dictionary(write_terms(tmp_path, [("memory loss", "C1")]))
    for count in (1, 7):
        built.clear()
        notes = [note(f"N{i}", "loss of memory") for i in range(count)]
        extract_dictionary_features(notes, dictionary, min_doc_freq=0, similarity_threshold=0.5)
        assert len(built) == 1
    built.clear()
    extract_dictionary_features(notes, dictionary, min_doc_freq=0)
    assert built == []  # exact matching needs no index


def test_doc_freq_filter_never_changes_surviving_cells(tmp_path):
    path = write_terms(tmp_path, [("memory loss", "C1"), ("hypertension", "C2")])
    notes = [
        note("N1", "memory loss and hypertension"),
        note("N2", "hypertension"),
        note("N3", "unremarkable"),
    ]
    full = extract_dictionary_features(notes, build_dictionary(path), min_doc_freq=0)
    filtered = extract_dictionary_features(notes, build_dictionary(path), min_doc_freq=2)
    kept = {c.phenotype_id for c in filtered.columns}
    for concept in kept:
        j_full = next(j for j, c in enumerate(full.columns) if c.phenotype_id == concept)
        j_filt = next(j for j, c in enumerate(filtered.columns) if c.phenotype_id == concept)
        assert full.data[:, j_full].tolist() == filtered.data[:, j_filt].tolist()


def test_min_doc_freq_filters_rare_concepts(tmp_path):
    path = write_terms(tmp_path, [("memory loss", "C1"), ("hypertension", "C2")])
    dictionary = build_dictionary(path)
    notes = [
        note("N1", "memory loss and hypertension"),
        note("N2", "hypertension again"),
        note("N3", "nothing relevant"),
    ]
    matrix = extract_dictionary_features(notes, dictionary, min_doc_freq=2)
    assert [c.phenotype_id for c in matrix.columns] == ["C2"]
    # document_frequency still records the dropped concept's count
    assert dictionary.document_frequency == {"C1": 1, "C2": 2}


def test_extraction_parameter_validation(tmp_path):
    path = write_terms(tmp_path, [("memory loss", "C1")])
    dictionary = build_dictionary(path)
    with pytest.raises(BaselineError, match="non-empty"):
        extract_dictionary_features([], dictionary)
    with pytest.raises(ParameterError, match="threshold"):
        extract_dictionary_features([note("N1", "x")], dictionary, similarity_threshold=0.0)
    with pytest.raises(ParameterError, match="min_doc_freq"):
        extract_dictionary_features([note("N1", "x")], dictionary, min_doc_freq=-1)


def test_extraction_reads_any_iterable_once(tmp_path):
    dictionary = build_dictionary(write_terms(tmp_path, [("memory loss", "C1")]))
    notes = [note("N1", "memory loss", "ADRD"), note("N2", "fine", "CN")]
    streamed = extract_dictionary_features(iter(notes), dictionary, min_doc_freq=0)
    listed = extract_dictionary_features(notes, dictionary, min_doc_freq=0)
    assert streamed.note_ids == listed.note_ids == ["N1", "N2"]
    assert streamed.cohorts == listed.cohorts
    assert streamed.data.tolist() == listed.data.tolist()
    for threshold in (1.0, 0.5):
        with pytest.raises(BaselineError, match="non-empty"):
            extract_dictionary_features(
                (n for n in notes if False), dictionary, similarity_threshold=threshold
            )


def test_matrix_carries_note_ids_and_cohorts(tmp_path):
    path = write_terms(tmp_path, [("memory loss", "C1")])
    dictionary = build_dictionary(path)
    notes = [note("N1", "memory loss", "ADRD"), note("N2", "fine", "CN")]
    matrix = extract_dictionary_features(notes, dictionary, min_doc_freq=1)
    assert matrix.note_ids == ["N1", "N2"]
    assert matrix.cohorts == ["ADRD", "CN"]
    assert matrix.columns[0].list_id == "dict"


# ---------------------------------------------------------------------------
# NER ingestion


def write_annotations(tmp_path, docs, name="ner.jsonl"):
    path = tmp_path / name
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))
    return path


def test_ner_ingestion_filters_by_score(tmp_path):
    path = write_annotations(
        tmp_path,
        [
            {"note_id": "N1", "concept": "C-mem", "score": 0.95},
            {"note_id": "N1", "concept": "C-htn", "score": 0.79},
            {"note_id": "N2", "concept": "C-htn", "score": 0.80},
        ],
    )
    matrix = ingest_ner_annotations(path)
    assert matrix.note_ids == ["N1", "N2"]
    assert [c.phenotype_id for c in matrix.columns] == ["C-htn", "C-mem"]
    assert matrix.data.tolist() == [[0, 1], [1, 0]]
    assert matrix.cohorts == [UNLABELED, UNLABELED]


def test_ner_ingestion_skips_malformed_lines(tmp_path, caplog):
    path = tmp_path / "ner.jsonl"
    path.write_text(
        json.dumps({"note_id": "N1", "concept": "C1", "score": 0.9})
        + "\n"
        + "{not json}\n"
        + json.dumps({"note_id": "N2", "score": 0.9})
        + "\n"
        + json.dumps({"note_id": "N3", "concept": "C1", "score": 1.5})
        + "\n"
        + json.dumps({"note_id": 5, "concept": "C1", "score": 0.9})
        + "\n\n"
        + "[" * 100_000  # nested too deeply to decode
        + "\n"
    )
    with caplog.at_level(logging.WARNING):
        matrix = ingest_ner_annotations(path)
    assert matrix.note_ids == ["N1"]
    assert sum("malformed" in r.message for r in caplog.records) == 5


def test_ner_ingestion_rejects_empty_note_id_and_boolean_score(tmp_path, caplog):
    bad = [
        {"note_id": "", "concept": "C1", "score": 0.9},
        {"note_id": "N2", "concept": "C1", "score": True},
    ]
    path = write_annotations(tmp_path, [{"note_id": "N1", "concept": "C2", "score": 0.9}] + bad)
    with caplog.at_level(logging.WARNING):
        matrix = ingest_ner_annotations(path)
    assert matrix.note_ids == ["N1"]
    assert [c.phenotype_id for c in matrix.columns] == ["C2"]
    assert sum("malformed" in r.message for r in caplog.records) == 2
    with pytest.raises(BaselineError, match="all 2 annotation lines"):
        ingest_ner_annotations(write_annotations(tmp_path, bad, name="bad.jsonl"))


def test_ner_score_must_be_a_json_number(tmp_path, caplog):
    strings = [
        {"note_id": "N2", "concept": "C1", "score": "0.9"},
        {"note_id": "N3", "concept": "C1", "score": " 1e-0 "},
    ]
    path = write_annotations(tmp_path, [{"note_id": "N1", "concept": "C2", "score": 1}] + strings)
    with caplog.at_level(logging.WARNING):
        matrix = ingest_ner_annotations(path)
    assert matrix.note_ids == ["N1"]
    assert [c.phenotype_id for c in matrix.columns] == ["C2"]
    assert sum("not a JSON number" in r.message for r in caplog.records) == 2
    with pytest.raises(BaselineError, match="all 2 annotation lines"):
        ingest_ner_annotations(write_annotations(tmp_path, strings, name="bad.jsonl"))


def test_ner_ingestion_all_malformed_is_error(tmp_path):
    path = tmp_path / "ner.jsonl"
    path.write_text("{oops}\n{also bad}\n")
    with pytest.raises(BaselineError, match="all 2 annotation lines"):
        ingest_ner_annotations(path)
    with pytest.raises(BaselineError, match="cannot read"):
        ingest_ner_annotations(tmp_path / "missing.jsonl")


@pytest.mark.parametrize("min_score", [-0.1, 1.5, float("inf"), float("nan")])
def test_ner_min_score_must_be_in_unit_interval(tmp_path, min_score):
    path = write_annotations(tmp_path, [{"note_id": "N1", "concept": "C1", "score": 0.9}])
    with pytest.raises(ParameterError, match="min_score"):
        ingest_ner_annotations(path, min_score=min_score)


def test_ner_ingestion_renames_concept_ids_with_one_warning(tmp_path, caplog):
    docs = [{"note_id": f"N{i}", "concept": f"SNOMED:{i % 3}", "score": 0.9} for i in range(6)]
    path = write_annotations(tmp_path, docs + [{"note_id": "N0", "concept": "C9", "score": 0.9}])
    with caplog.at_level(logging.WARNING):
        matrix = ingest_ner_annotations(path)
    assert [c.phenotype_id for c in matrix.columns] == ["C9", "SNOMED_0", "SNOMED_1", "SNOMED_2"]
    assert matrix.data.tolist()[:2] == [[1, 1, 0, 0], [0, 0, 1, 0]]
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: 3 concept id(s) contain ':'; renamed with '_' for matrix columns "
        "(first: 'SNOMED:0' -> 'SNOMED_0')"
    ]


def test_ner_duplicate_annotations_collapse(tmp_path):
    path = write_annotations(
        tmp_path,
        [
            {"note_id": "N1", "concept": "C1", "score": 0.9},
            {"note_id": "N1", "concept": "C1", "score": 0.99},
        ],
    )
    matrix = ingest_ner_annotations(path)
    assert matrix.data.tolist() == [[1]]


def test_ner_ingestion_is_deterministic(tmp_path):
    rows = [
        {"note_id": "N2", "concept": "C2", "score": 0.9},
        {"note_id": "N1", "concept": "C1", "score": 0.85},
        {"note_id": "N1", "concept": "C2", "score": 0.95},
    ]
    first = ingest_ner_annotations(write_annotations(tmp_path, rows, name="a.jsonl"))
    second = ingest_ner_annotations(write_annotations(tmp_path, rows, name="b.jsonl"))
    assert first.note_ids == second.note_ids
    assert [c.key for c in first.columns] == [c.key for c in second.columns]
    assert first.data.tolist() == second.data.tolist()


def test_empty_term_file_builds_empty_dictionary(tmp_path, caplog):
    path = tmp_path / "terms.csv"
    path.write_text("term,concept_id\n")
    with caplog.at_level("WARNING"):
        dictionary = build_dictionary(path)
    assert dictionary.terms == {}
    assert any("empty dictionary" in r.getMessage() for r in caplog.records)


def test_attach_cohorts_maps_known_and_defaults_unlabeled(tmp_path):
    path = write_annotations(
        tmp_path,
        [
            {"note_id": "N1", "concept": "C1", "score": 0.9},
            {"note_id": "N2", "concept": "C1", "score": 0.9},
        ],
    )
    matrix = ingest_ner_annotations(path)
    attached = attach_cohorts(matrix, {"N1": "ADRD"})
    assert attached.cohorts == ["ADRD", UNLABELED]
    # original is untouched
    assert matrix.cohorts == [UNLABELED, UNLABELED]
    assert attached.data is not matrix.data


def test_bundled_demo_baseline_files():
    from pheno_mine.cli import data_path
    from pheno_mine.cohort import read_notes

    notes = list(read_notes(data_path("demo_notes.jsonl")))
    dictionary = build_dictionary(data_path("demo_terms.csv"))
    # 'tau' is dropped by the length filter; the duplicate hypertension row
    # keeps the first concept id
    assert ("tau",) not in dictionary.terms
    assert dictionary.terms[("hypertension",)] == "C0020538"
    matrix = extract_dictionary_features(notes, dictionary, min_doc_freq=1)
    assert len(matrix.note_ids) == 30
    ner = ingest_ner_annotations(data_path("demo_ner.jsonl"))
    assert len(ner.note_ids) == 18
    assert len(ner.columns) == 9
