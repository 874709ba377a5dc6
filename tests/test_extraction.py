import dataclasses
import json
import sqlite3
import tempfile
import tracemalloc
from contextlib import closing

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from pheno_mine import chunking, cli, extraction, prompts
from pheno_mine.cohort import CohortManifest, ManifestEntry, NoteRecord
from pheno_mine.errors import MatrixError
from pheno_mine.extraction import (
    ExtractionProfile,
    aggregate_by_patient,
    build_feature_matrix,
    extract_notes,
    normalize_token,
    parse_response,
    write_reject_log,
)
from pheno_mine.chunking import chunk_text
from pheno_mine.cli import data_path, main
from pheno_mine.errors import ParameterError, TransientBackendError
from pheno_mine.gateway import (
    WINDOW_PER_WORKER,
    CompletionRequest,
    LlmGateway,
    MockBackend,
    MockRuleTable,
)
from pheno_mine.schema import builtin_list, feature_index, parse_phenotype_list

COMBINED = builtin_list("combined")
CATEGORIES = list(COMBINED.categories)
# names and aliases of every category, so a response names other categories' ids too
NAMES = sorted(
    {name for c in CATEGORIES for p in c.candidates for name in (p.display_name, *p.aliases)}
)


def found(row, plist, category_key):
    """The phenotype ids whose cells are set in a matrix row, among one category's columns."""
    return {
        c.phenotype_id
        for c in feature_index(plist)
        if f"{c.list_id}:{c.category}" == category_key and row[c.index]
    }


def test_normalize_token():
    assert normalize_token("  Hypertension ") == "hypertension"
    assert normalize_token("'misplacing'") == "misplacing"
    assert normalize_token("‘repeating’") == "repeating"
    assert normalize_token("atrophy.") == "atrophy"
    assert normalize_token("two   words") == "two words"


def test_parse_response_maps_display_names_and_aliases(list1):
    memory = list1.category("Memory Indicators")
    assert parse_response("repeating, misplacing", memory) == {"repeating", "misplacing"}
    assert parse_response("Repeats questions", memory) == {"repeating"}
    assert parse_response("none", memory) == set()
    assert parse_response("None.", memory) == set()
    assert parse_response("", memory) == set()
    assert parse_response("   ", memory) == set()


@pytest.mark.parametrize(
    "candidate, reply",
    [
        ({"display_name": "Memory  loss"}, "Memory  loss"),  # two spaces
        ({"display_name": "Gait disorder."}, "Gait disorder."),
        ({"display_name": "x", "aliases": ["Dr. visit."]}, "Dr. visit."),
        ({"display_name": "x", "aliases": ["'quoted'"]}, "'quoted'"),
    ],
)
def test_a_reply_that_echoes_a_name_exactly_matches_it(candidate, reply):
    category = one_category({"id": "p", **candidate})
    rejects: list[str] = []
    assert parse_response(reply, category, rejects) == {"p"}
    assert rejects == []


def test_the_first_candidate_keeps_a_shared_token():
    category = one_category(
        {"id": "p", "display_name": "Apathy", "aliases": ["withdrawn"]},
        {"id": "q", "display_name": "Withdrawn."},
    )
    assert parse_response("Withdrawn., apathy", category) == {"p"}


def one_category(*candidates):
    doc = {"list_id": "x", "categories": [{"name": "A", "candidates": list(candidates)}]}
    return parse_phenotype_list(doc).categories[0]


def test_parse_response_collects_rejects(list1):
    memory = list1.category("Memory Indicators")
    rejects: list[str] = []
    ids = parse_response("repeating, flying, none, misplacing", memory, rejects)
    assert ids == {"repeating", "misplacing"}
    assert rejects == ["flying"]


def test_parse_response_duplicate_tokens_collapse(list1):
    memory = list1.category("Memory Indicators")
    assert parse_response("repeating, repeating, repetition", memory) == {"repeating"}


response_texts = st.one_of(
    st.text(),
    st.lists(st.one_of(st.sampled_from(NAMES), st.text(max_size=8)), max_size=8).map(", ".join),
    st.lists(st.sampled_from(NAMES + ["none", "None.", " ", "'"]), max_size=8).map(",".join),
)


@settings(max_examples=300, deadline=None)
@given(text=response_texts, category=st.sampled_from(CATEGORIES))
def test_parse_response_never_raises_and_stays_in_its_category(text, category):
    rejects: list[str] = []
    ids = parse_response(text, category, rejects)
    assert ids <= {p.id for p in category.candidates}
    assert all(isinstance(token, str) and token for token in rejects)


def counted_renders(monkeypatch) -> list:
    """Patch ``extraction.render_prompt`` to count its calls into the returned list."""
    calls = []
    real_render = extraction.render_prompt

    def counting_render(*args, **kwargs):
        calls.append(args)
        return real_render(*args, **kwargs)

    monkeypatch.setattr(extraction, "render_prompt", counting_render)
    return calls


def test_extract_plans_chunk_by_category(mock_gateway, combined, monkeypatch):
    # an uncached run renders every request, in the order extract_notes plans them
    text = "First sentence here. Second sentence here."
    chunks = chunk_text(text, 6, "N1")
    assert len(chunks) == 2
    renders = counted_renders(monkeypatch)
    extract_notes([NoteRecord("N1", "P1", text)], combined, mock_gateway, chunk_budget=6)
    plan = [(chunk, category, mode) for category, chunk, mode, _ in renders]
    # deterministic order: chunk-major, category-minor
    assert plan == [
        (chunk, category, "zero_shot") for chunk in chunks for category in combined.categories
    ]


def test_extract_note_unions_chunks(mock_gateway, combined):
    text = (
        "Past medical history includes hypertension managed with lisinopril. "
        "Imaging showed generalized cortical atrophy."
    )
    note = NoteRecord("N1", "P1", text)
    # budget of 15 tokens forces the two sentences into separate chunks
    (profile,), failures = extract_notes([note], combined, mock_gateway, chunk_budget=15)
    assert failures == 0
    assert not profile.incomplete
    assert found(profile.row, combined, "list1:Comorbidities") == {"hypertension"}
    assert found(profile.row, combined, "list1:Neuroimaging findings") == {"atrophy"}


class SometimesDownBackend:
    """Fails every completion whose prompt mentions a chosen category."""

    backend_id = "flaky"

    def __init__(self, inner, broken_phrase):
        self.inner = inner
        self.broken_phrase = broken_phrase

    def complete_text(self, request):
        if self.broken_phrase in request.prompt:
            raise TransientBackendError("backend down for this category")
        return self.inner.complete_text(request)


def test_extract_note_marks_incomplete_but_continues(combined, mock_gateway):
    backend = SometimesDownBackend(mock_gateway.backend, "comorbidities of ADRD")
    gateway = LlmGateway(backend, max_attempts=2, sleep=lambda _: None)
    text = (
        "Past medical history includes hypertension managed with lisinopril. "
        "Imaging showed generalized cortical atrophy."
    )
    note = NoteRecord("N1", "P1", text)
    (profile,), failures = extract_notes([note], combined, gateway)
    assert failures == 1
    assert profile.incomplete == [(0, "list1:Comorbidities")]
    # the unaffected category still extracted
    assert found(profile.row, combined, "list1:Neuroimaging findings") == {"atrophy"}
    assert found(profile.row, combined, "list1:Comorbidities") == set()


def test_extract_notes_counts_failures(combined, mock_gateway):
    backend = SometimesDownBackend(mock_gateway.backend, "comorbidities of ADRD")
    gateway = LlmGateway(backend, max_attempts=1, sleep=lambda _: None)
    notes = [
        NoteRecord("N1", "P1", "Note text one."),
        NoteRecord("N2", "P2", "Note text two."),
    ]
    profiles, failures = extract_notes(notes, combined, gateway)
    assert failures == 2  # one failed category per note
    assert all(p.incomplete for p in profiles)


def test_inline_and_threaded_paths_agree(combined, mock_gateway, demo_notes):
    results = []
    for never_waits in (True, False):
        backend = SometimesDownBackend(mock_gateway.backend, "comorbidities of ADRD")
        backend.never_waits = never_waits
        gateway = LlmGateway(backend, max_attempts=1, sleep=lambda _: None)
        profiles, failures = extract_notes(
            demo_notes, combined, gateway, chunk_budget=40, max_in_flight=2
        )
        assert sum(p.requests for p in profiles) > 2 * WINDOW_PER_WORKER  # the window slides
        results.append(([dataclasses.asdict(p) for p in profiles], failures))
    assert results[0] == results[1]
    profiles, failures = results[0]
    assert failures == sum(len(p["incomplete"]) for p in profiles) > 0
    assert any(any(p["row"]) for p in profiles)


def test_a_warm_run_reads_the_cache_one_window_at_a_time(combined, demo_notes, tmp_path):
    table = MockRuleTable.from_csv(data_path("mock_rules.csv"))
    runs = []
    for _ in range(2):  # cold, then warm
        with closing(LlmGateway(MockBackend(table, combined), cache_dir=tmp_path)) as gateway:
            statements: list[str] = []
            gateway.cache._store._db.set_trace_callback(statements.append)
            profiles, failures = extract_notes(demo_notes, combined, gateway)
        runs.append(([p.row for p in profiles], statements))
    (cold_rows, _), (warm_rows, statements) = runs
    requests = sum(p.requests for p in profiles)
    assert failures == 0 and sum(p.cache_hits for p in profiles) == requests > WINDOW_PER_WORKER
    assert warm_rows == cold_rows
    selects = [s for s in statements if s.startswith("SELECT")]
    assert len(selects) == len(statements) == -(-requests // WINDOW_PER_WORKER)


def mock_cache_gateway(plist, cache_dir):
    table = MockRuleTable.from_csv(data_path("mock_rules.csv"))
    return LlmGateway(MockBackend(table, plist), cache_dir=cache_dir)


def test_a_cache_hit_renders_no_prompt(combined, demo_notes, tmp_path, monkeypatch):
    renders = counted_renders(monkeypatch)
    runs = []
    for _ in range(2):  # cold, then warm
        renders.clear()
        with closing(mock_cache_gateway(combined, tmp_path)) as gateway:
            profiles, failures = extract_notes(demo_notes, combined, gateway)
        assert failures == 0
        runs.append(
            (len(renders), sum(p.requests for p in profiles), sum(p.cache_hits for p in profiles))
        )
    (cold_renders, requests, cold_hits), warm = runs
    assert requests > WINDOW_PER_WORKER
    assert (cold_renders, cold_hits) == (requests, 0)
    assert warm == (0, requests, requests)


def test_a_cache_filled_one_request_at_a_time_serves_every_request(
    combined, demo_notes, tmp_path
):
    settings = {"model": "m", "temperature": 0.5, "max_output_tokens": 16}
    with closing(mock_cache_gateway(combined, tmp_path)) as gateway:
        for note in demo_notes:
            for chunk in chunk_text(note.text, 60, note.note_id):
                for category in combined.categories:
                    prompt = prompts.render_prompt(category, chunk, "few_shot")
                    gateway.complete(CompletionRequest(prompt, **settings))
        profiles, failures = extract_notes(
            demo_notes, combined, gateway, mode="few_shot", chunk_budget=60, **settings
        )
    requests = sum(p.requests for p in profiles)
    assert failures == 0 and sum(p.cache_hits for p in profiles) == requests > WINDOW_PER_WORKER


@pytest.mark.parametrize("bad", [{"temperature": float("nan")}, {"max_output_tokens": 0}])
def test_bad_settings_raise_on_a_warm_cache(combined, demo_notes, tmp_path, monkeypatch, bad):
    with closing(mock_cache_gateway(combined, tmp_path)) as gateway:
        extract_notes(demo_notes, combined, gateway)
        renders = counted_renders(monkeypatch)
        with pytest.raises(ParameterError):
            extract_notes(demo_notes, combined, gateway, **bad)
    assert renders == []


def test_a_failed_window_query_fails_only_its_requests(combined, demo_notes, tmp_path):
    planned = [
        (note.note_id, chunk.chunk_index, category.key())
        for note in demo_notes
        for chunk in chunk_text(note.text, 40, note.note_id)
        for category in combined.categories
    ]
    assert len(planned) > 3 * WINDOW_PER_WORKER
    with closing(mock_cache_gateway(combined, tmp_path)) as gateway:
        cold, _ = extract_notes(demo_notes, combined, gateway, chunk_budget=40)
        store_get = gateway.cache._store.get
        calls = []

        def get(keys):  # the second window's query fails, as a damaged store would
            calls.append(len(keys))
            if len(calls) == 2:
                raise sqlite3.DatabaseError("database disk image is malformed")
            return store_get(keys)

        gateway.cache._store.get = get
        profiles, failures = extract_notes(demo_notes, combined, gateway, chunk_budget=40)
    failed = [(p.note_id, *cell) for p in profiles for cell in p.incomplete]
    assert failed == planned[WINDOW_PER_WORKER : 2 * WINDOW_PER_WORKER]
    assert failures == WINDOW_PER_WORKER
    assert sum(p.cache_hits for p in profiles) == len(planned) - WINDOW_PER_WORKER
    untouched = {note_id for note_id, _, _ in planned} - {note_id for note_id, _, _ in failed}
    assert [p.row for p in profiles if p.note_id in untouched] == [
        p.row for p in cold if p.note_id in untouched
    ]


def test_a_repeated_reply_logs_rejects_for_each_of_its_cells(combined):
    class OddBackend:  # the same reply, with one unknown token, for every request
        backend_id = "odd"
        never_waits = True

        def complete_text(self, request):
            return "flying, hypertension"

    unknown = {}  # category key -> the reply's tokens that it does not know, in order
    for category in combined.categories:
        parse_response("flying, hypertension", category, unknown.setdefault(category.key(), []))
    notes = [NoteRecord("N1", "P1", "One. Two."), NoteRecord("N2", "P2", "Three.")]
    profiles, _ = extract_notes(notes, combined, LlmGateway(OddBackend()), chunk_budget=2)
    for profile, note in zip(profiles, notes):
        chunks = len(chunk_text(note.text, 2))
        assert [(r.note_id, r.chunk_index, r.category, r.token) for r in profile.rejects] == [
            (note.note_id, i, c.key(), token)
            for i in range(chunks)
            for c in combined.categories
            for token in unknown[c.key()]
        ]
        assert found(profile.row, combined, "list1:Comorbidities") == {"hypertension"}


class PhrasesDownBackend:
    """Fails every completion that asks about one of the ``broken`` category phrases."""

    backend_id = "flaky"

    def __init__(self, inner, broken, never_waits):
        self.inner = inner
        self.broken = broken
        self.never_waits = never_waits

    def complete_text(self, request):
        if prompts.category_phrase_of(request.prompt) in self.broken:
            raise TransientBackendError("backend down for this category")
        return self.inner.complete_text(request)


@settings(max_examples=12, deadline=None)
@given(
    broken=st.sets(st.sampled_from([c.phrase() for c in CATEGORIES])),
    budget=st.integers(min_value=10, max_value=80),
)
def test_requests_hits_and_failures_add_up(demo_notes, broken, budget):
    chunks = {n.note_id: [c.text for c in chunk_text(n.text, budget)] for n in demo_notes}
    failing = [c.key() for c in CATEGORIES if c.phrase() in broken]
    count = sum(len(texts) for texts in chunks.values())
    requests = count * len(CATEGORIES)
    failures = count * len(failing)
    # The demo notes share sentences, so below a budget of about 60 tokens some
    # chunks recur, and a recurring prompt that completed is a hit in the first run.
    repeats = count - len({text for texts in chunks.values() for text in texts})
    table = MockRuleTable.from_csv(data_path("mock_rules.csv"))
    results = []
    for never_waits in (True, False):
        backend = PhrasesDownBackend(MockBackend(table, COMBINED), broken, never_waits)
        runs = []
        with tempfile.TemporaryDirectory() as cache_dir:
            for _ in range(2):  # cold, then warm on the same cache
                with closing(
                    LlmGateway(backend, cache_dir=cache_dir, max_attempts=1, sleep=lambda _: None)
                ) as gateway:
                    profiles, failed = extract_notes(
                        demo_notes, COMBINED, gateway, chunk_budget=budget, max_in_flight=2
                    )
                for p in profiles:
                    assert p.requests == len(chunks[p.note_id]) * len(CATEGORIES)
                    assert sorted(p.incomplete) == sorted(
                        (i, key) for i in range(len(chunks[p.note_id])) for key in failing
                    )
                assert failed == sum(len(p.incomplete) for p in profiles) == failures
                runs.append((sum(p.cache_hits for p in profiles), [p.row for p in profiles]))
        (cold_hits, rows), (warm_hits, warm_rows) = runs
        expected_cold_hits = repeats * (len(CATEGORIES) - len(failing))
        if never_waits:
            assert cold_hits == expected_cold_hits  # 0 when every chunk is distinct
        else:  # two requests for one prompt in flight at once both miss
            assert cold_hits <= expected_cold_hits
        assert warm_hits == requests - failures  # only the failed requests are sent again
        assert warm_rows == rows
        results.append(rows)
    assert results[0] == results[1]


@settings(max_examples=20, deadline=None)
@given(
    data=st.data(),
    broken=st.sets(st.sampled_from([c.phrase() for c in CATEGORIES])),
    budget=st.integers(min_value=10, max_value=80),
)
def test_row_is_the_or_over_the_notes_chunks(demo_notes, data, broken, budget):
    picks = data.draw(st.sets(st.sampled_from(range(len(demo_notes))), min_size=1, max_size=6))
    notes = [demo_notes[i] for i in sorted(picks)]
    table = MockRuleTable.from_csv(data_path("mock_rules.csv"))
    backend = PhrasesDownBackend(MockBackend(table, COMBINED), broken, never_waits=True)
    gateway = LlmGateway(backend, max_attempts=1, sleep=lambda _: None)

    def rows(notes, budget):
        profiles, _ = extract_notes(notes, COMBINED, gateway, chunk_budget=budget)
        return [p.row for p in profiles]

    whole = 10**6  # a budget no chunk reaches: each chunk is run alone, as a one-chunk note
    for note, row in zip(notes, rows(notes, budget)):
        texts = [c.text for c in chunk_text(note.text, budget)]
        assert all([c.text for c in chunk_text(t, whole)] == [t] for t in texts)
        alone = rows([NoteRecord(f"{note.note_id}#{i}", note.patient_id, t)
                      for i, t in enumerate(texts)], whole)
        assert row == bytearray(map(max, bytes(len(row)), *alone))
        for c in CATEGORIES:
            if c.phrase() in broken:
                assert found(row, COMBINED, c.key()) == set()


def test_extract_chunks_each_note_once(tmp_path, monkeypatch):
    calls = []

    def counting_chunk_text(text, *args, **kwargs):
        calls.append(text)
        return chunk_text(text, *args, **kwargs)

    # every module that could chunk a note, whether or not it imports the name
    for module in (chunking, extraction, cli):
        monkeypatch.setattr(module, "chunk_text", counting_chunk_text, raising=False)
    notes = data_path("demo_notes.jsonl")
    result = CliRunner().invoke(
        main,
        ["extract", "--notes", str(notes), "--diagnoses", str(data_path("demo_diagnoses.csv")),
         "--chunk-budget", "40", "--out-dir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    texts = [json.loads(line)["text"] for line in notes.read_text().splitlines() if line]
    assert sorted(calls) == sorted(texts)
    report = json.loads((tmp_path / "run_report.json").read_text())
    assert report["note_token_estimate"] == sum(
        c.estimated_tokens for t in texts for c in chunk_text(t, 40)
    )


def manifest_for(notes, cohorts):
    entries = tuple(
        ManifestEntry(n.note_id, n.patient_id, c) for n, c in zip(notes, cohorts)
    )
    return CohortManifest(entries=entries, seed=0)


def test_build_feature_matrix_rows_follow_manifest(combined, mock_gateway):
    notes = [
        NoteRecord("N1", "P1", "Past medical history includes hypertension managed with lisinopril."),
        NoteRecord("N2", "P2", "Imaging showed generalized cortical atrophy."),
    ]
    profiles, failures = extract_notes(notes, combined, mock_gateway)
    assert failures == 0
    manifest = manifest_for(notes, ["CN", "ADRD"])
    matrix = build_feature_matrix(profiles, combined, manifest)
    assert matrix.note_ids == ["N1", "N2"]
    assert matrix.cohorts == ["CN", "ADRD"]
    assert matrix.shape == (2, 37)
    by_key = {c.key: c.index for c in matrix.columns}
    assert matrix.data[0, by_key["list1:Comorbidities:hypertension"]] == 1
    assert matrix.data[1, by_key["list1:Neuroimaging findings:atrophy"]] == 1
    assert matrix.data.sum() == 2


def test_build_feature_matrix_missing_profile_is_an_error(combined, mock_gateway):
    notes = [NoteRecord("N1", "P1", "Past medical history includes hypertension managed with lisinopril.")]
    profiles, _ = extract_notes(notes, combined, mock_gateway)
    manifest = manifest_for(
        [notes[0], NoteRecord("N2", "P2", "x")], ["CN", "ADRD"]
    )
    with pytest.raises(MatrixError, match="'N2' has no extraction profile"):
        build_feature_matrix(profiles, combined, manifest)


def test_build_feature_matrix_unknown_note_rejected(combined, mock_gateway):
    notes = [NoteRecord("N1", "P1", "text")]
    profiles, _ = extract_notes(notes, combined, mock_gateway)
    manifest = manifest_for([NoteRecord("N9", "P9", "y")], ["CN"])
    with pytest.raises(MatrixError, match="N1"):
        build_feature_matrix(profiles, combined, manifest)


def test_build_feature_matrix_repeated_note_rejected(combined, mock_gateway):
    notes = [NoteRecord("N1", "P1", "Past medical history includes hypertension.")]
    (profile,), _ = extract_notes(notes, combined, mock_gateway)
    assert any(profile.row)
    # a second, empty profile for the same note must not replace the first
    repeated = [profile, ExtractionProfile("N1", bytearray(len(combined)))]
    with pytest.raises(MatrixError, match="'N1' has more than one extraction profile"):
        build_feature_matrix(repeated, combined, manifest_for(notes, ["CN"]))


def test_aggregate_by_patient_ors_rows_and_keeps_severe_cohort(combined, mock_gateway):
    notes = [
        NoteRecord("N1", "P1", "Past medical history includes hypertension managed with lisinopril."),
        NoteRecord("N2", "P1", "Imaging showed generalized cortical atrophy."),
        NoteRecord("N3", "P2", "Nothing to report."),
    ]
    profiles, _ = extract_notes(notes, combined, mock_gateway)
    manifest = manifest_for(notes, ["CN", "ADRD", "MCI"])
    matrix = build_feature_matrix(profiles, combined, manifest)
    per_patient = aggregate_by_patient(matrix, manifest)
    assert per_patient.note_ids == ["P1", "P2"]
    assert per_patient.cohorts == ["ADRD", "MCI"]
    by_key = {c.key: c.index for c in per_patient.columns}
    assert per_patient.data[0, by_key["list1:Comorbidities:hypertension"]] == 1
    assert per_patient.data[0, by_key["list1:Neuroimaging findings:atrophy"]] == 1
    assert per_patient.data[1].sum() == 0


def test_reject_log_jsonl(tmp_path, combined):
    profile = ExtractionProfile(note_id="N1")
    rejects: list[str] = []
    parse_response("flying car", combined.category("Comorbidities"), rejects)
    from pheno_mine.extraction import RejectedToken

    profile.rejects.append(RejectedToken("N1", 0, "list1:Comorbidities", rejects[0]))
    path = tmp_path / "rejects.jsonl"
    write_reject_log([profile], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc == {
        "note_id": "N1",
        "chunk_index": 0,
        "category": "list1:Comorbidities",
        "token": "flying car",
    }


def test_profiles_hold_few_bytes_per_note(combined, mock_gateway):
    def held(count: int) -> int:
        notes = (
            NoteRecord(f"N{i}", f"P{i}", f"Seen on day {i}. Past medical history includes hypertension.")
            for i in range(count)
        )
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            profiles, failures = extract_notes(notes, combined, mock_gateway)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert failures == 0 and all(any(p.row) for p in profiles)
        return held

    held(20)  # loads whatever a first run loads
    small, large = 200, 1_000
    assert (held(large) - held(small)) / (large - small) < 512


def test_demo_corpus_against_truth(demo_notes, demo_manifest, demo_truth, combined, mock_gateway):
    profiles, failures = extract_notes(demo_notes, combined, mock_gateway)
    assert failures == 0
    matrix = build_feature_matrix(profiles, combined, demo_manifest)
    for i, note_id in enumerate(matrix.note_ids):
        got = {c.key for c, v in zip(matrix.columns, matrix.data[i]) if v}
        assert got == demo_truth.get(note_id, set()), note_id


@pytest.mark.parametrize("mode", ["zero_shot", "few_shot"])
def test_extract_renders_each_prompt_body_once_per_category(
    mock_gateway, combined, monkeypatch, mode
):
    bodies = []
    real_body = prompts._body

    def counting_body(category):
        bodies.append(category.key())
        return real_body(category)

    monkeypatch.setattr(prompts, "_body", counting_body)
    notes = [
        NoteRecord(f"N{i}", f"P{i}", "Gait steady today. Seen for memory loss. " * (i + 2))
        for i in range(4)
    ]
    sent = []
    real_complete = mock_gateway.complete

    def recording_complete(request):
        sent.append(request.prompt)
        return real_complete(request)

    monkeypatch.setattr(mock_gateway, "complete", recording_complete)
    _, failures = extract_notes(notes, combined, mock_gateway, mode=mode, chunk_budget=12)
    assert failures == 0
    assert sorted(bodies) == sorted(c.key() for c in combined.categories)
    # the memoised heads give the same prompts as rendering each one afresh
    expected = [
        prompts.render_prompt(category, chunk, mode)
        for note in notes
        for chunk in chunk_text(note.text, 12, note.note_id)
        for category in combined.categories
    ]
    assert len(expected) > 2 * len(notes) * len(combined.categories)  # multi-chunk notes
    assert sent == expected
