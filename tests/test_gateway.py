import base64
import http.server
import json
import logging
import os
import select
import shutil
import socket
import sqlite3
import ssl
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from contextlib import closing, contextmanager, suppress
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import pheno_mine
from conftest import rows
from oracles import cache_key_oracle
from pheno_mine.cli import data_path, main
from pheno_mine.errors import (
    BackendError,
    ConfigError,
    ParameterError,
    ProtocolError,
    TransientBackendError,
    TransportError,
)
from pheno_mine.gateway import (
    API_KEY_ENV_VAR,
    DEFAULT_MODEL,
    CompletionRequest,
    HttpChatBackend,
    LlmGateway,
    MockBackend,
    MockRuleTable,
    ResponseCache,
    WINDOW_PER_WORKER,
    _digest,
    _key_state,
)
from pheno_mine.prompts import prompt_head, render_zero_shot
from pheno_mine.schema import builtin_list


def request_for(category, text, **kwargs):
    return CompletionRequest(prompt=render_zero_shot(category, text), **kwargs)


# ---------------------------------------------------------------------------
# request validation


def test_request_validation():
    with pytest.raises(ParameterError):
        CompletionRequest(prompt="")
    with pytest.raises(ParameterError):
        CompletionRequest(prompt="x", temperature=-0.1)
    for temperature in (float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="finite"):
            CompletionRequest(prompt="x", temperature=temperature)
    with pytest.raises(ParameterError):
        CompletionRequest(prompt="x", max_output_tokens=0)
    ok = CompletionRequest(prompt="x")
    assert ok.temperature == 0.0
    assert ok.max_output_tokens == 64


# ---------------------------------------------------------------------------
# mock backend


def test_mock_rules_csv_requires_header(tmp_path):
    bad = tmp_path / "rules.csv"
    bad.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="category,trigger,phenotype"):
        MockRuleTable.from_csv(bad)


def test_mock_rules_csv_rejects_empty_fields(tmp_path):
    bad = tmp_path / "rules.csv"
    bad.write_text("category,trigger,phenotype\nMemory,,misplacing\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="empty field"):
        MockRuleTable.from_csv(bad)


def test_mock_rules_validated_against_list(combined, tmp_path):
    bad = tmp_path / "rules.csv"
    bad.write_text(
        "category,trigger,phenotype\nNope,anything,misplacing\n", encoding="utf-8"
    )
    table = MockRuleTable.from_csv(bad)
    with pytest.raises(ConfigError, match="unknown category"):
        MockBackend(table, combined)
    bad.write_text(
        "category,trigger,phenotype\nMemory,anything,not a phenotype\n", encoding="utf-8"
    )
    table = MockRuleTable.from_csv(bad)
    with pytest.raises(ConfigError, match="display name"):
        MockBackend(table, combined)


@pytest.fixture()
def mock_backend(combined):
    return MockBackend(MockRuleTable.from_csv(data_path("mock_rules.csv")), combined)


def test_mock_fires_only_for_matching_category(mock_backend, combined):
    note = "She frequently misplaces her keys around the home."
    memory1 = combined.category("Memory Indicators")
    memory2 = combined.category("Memory")
    comorbid = combined.category("Comorbidities")
    assert mock_backend.complete_text(request_for(memory1, note)) == "misplacing"
    assert mock_backend.complete_text(request_for(memory2, note)) == "misplacing"
    assert mock_backend.complete_text(request_for(comorbid, note)) == "none"


def test_mock_emits_comma_separated_in_rule_order(mock_backend, combined):
    note = "Has hypertension. History notable for depression treated in the past."
    comorbid = combined.category("Comorbidities")
    assert mock_backend.complete_text(request_for(comorbid, note)) == (
        "hypertension, depression"
    )


def test_mock_case_insensitive_triggers(mock_backend, combined):
    comorbid = combined.category("Comorbidities")
    assert mock_backend.complete_text(request_for(comorbid, "HYPERTENSION noted")) == (
        "hypertension"
    )


def test_mock_backend_completes_through_gateway(mock_gateway, combined):
    req = request_for(combined.category("Comorbidities"), "hypertension present")
    resp = mock_gateway.complete(req)
    assert resp.text == "hypertension"
    assert not resp.cached


# ---------------------------------------------------------------------------
# cache


def test_cache_roundtrip_and_hit_counters(tmp_path, combined):
    backend = MockBackend(MockRuleTable.from_csv(data_path("mock_rules.csv")), combined)
    gateway = LlmGateway(backend, cache_dir=tmp_path / "cache")
    req = request_for(combined.category("Comorbidities"), "hypertension noted")
    first = gateway.complete(req)
    second = gateway.complete(req)
    assert first.text == second.text == "hypertension"
    assert not first.cached
    assert second.cached


def test_cache_key_depends_on_prompt_model_temperature():
    a = CompletionRequest(prompt="p", model="m", temperature=0.0)
    b = CompletionRequest(prompt="p", model="m", temperature=0.5)
    c = CompletionRequest(prompt="q", model="m", temperature=0.0)
    d = CompletionRequest(prompt="p", model="n", temperature=0.0)
    e = CompletionRequest(prompt="p", model="m", temperature=0.0, max_output_tokens=6)
    keys = {ResponseCache.key("x", r) for r in (a, b, c, d, e)}
    assert len(keys) == 5
    assert ResponseCache.key("x", a) != ResponseCache.key("y", a)
    assert ResponseCache.key("x", a) == ResponseCache.key("x", a)
    # a field's text moved into its neighbour is another request
    shifted = [
        ("x", CompletionRequest(prompt="\np", model="m")),
        ("x\n", CompletionRequest(prompt="p", model="m")),
        ("x", CompletionRequest(prompt="p", model="m\n")),
        ("x", CompletionRequest(prompt='"]\np', model="m")),
    ]
    assert len({ResponseCache.key(*pair) for pair in shifted} | keys) == 9


@pytest.mark.parametrize("first", [0, 0.0, -0.0])
def test_cache_key_is_one_for_every_spelling_of_zero(first):
    # whichever spelling the memo sees first, the others get the same header
    pheno_mine.gateway._key_state.cache_clear()
    keys = [
        ResponseCache.key("x", CompletionRequest(prompt="p", temperature=t))
        for t in (first, 0, 0.0, -0.0)
    ]
    assert len(set(keys)) == 1
    assert keys[0].hex() == cache_key_oracle("x", CompletionRequest(prompt="p", temperature=0.0))


# quotes, backslashes, control characters, non-ASCII and astral characters
KEY_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\\x00\x1f\n\x7fé\u2028𝄞'),
        st.characters(blacklist_categories=("Cs",)),
    )
)


@settings(max_examples=150, deadline=None)
@given(
    prompt=KEY_TEXT.filter(bool),
    backend_id=st.one_of(st.sampled_from(["mock", "http", 'a"b']), KEY_TEXT),
    model=st.one_of(st.just(DEFAULT_MODEL), KEY_TEXT),
    temperature=st.one_of(
        st.floats(min_value=0, allow_nan=False, allow_infinity=False),
        st.integers(min_value=0),
        st.sampled_from([0, 0.0, -0.0, 1, 1.0]),
    ),
    max_output_tokens=st.integers(min_value=1),
)
def test_cache_key_equals_the_one_shot_oracle(prompt, backend_id, model, temperature, max_output_tokens):
    request = CompletionRequest(
        prompt=prompt, model=model, temperature=temperature, max_output_tokens=max_output_tokens
    )
    assert ResponseCache.key(backend_id, request).hex() == cache_key_oracle(backend_id, request)


def head_key(backend_id, request, head):
    """The key of a request whose prompt starts with ``head``, from the state memoised for it."""
    state = _key_state(
        backend_id, request.max_output_tokens, request.model, request.temperature, head
    )
    return _digest(state, request.prompt[len(head) :])


# every bundled category's zero-shot and few-shot head; combined holds both lists
BUNDLED_HEADS = [
    prompt_head(category, mode)
    for category in builtin_list("combined").categories
    for mode in ("zero_shot", "few_shot")
]


@settings(max_examples=150, deadline=None)
@given(
    head=st.one_of(st.just(""), st.sampled_from(BUNDLED_HEADS), KEY_TEXT),
    text=KEY_TEXT,
    backend_id=st.one_of(st.sampled_from(["mock", "http"]), KEY_TEXT),
    temperature=st.one_of(
        st.sampled_from([0, 0.0, -0.0]), st.floats(min_value=0, max_value=2, allow_nan=False)
    ),
    max_output_tokens=st.integers(min_value=1, max_value=4096),
)
def test_head_state_key_equals_the_one_shot_oracle(
    head, text, backend_id, temperature, max_output_tokens
):
    if not head + text:
        return  # no request has an empty prompt
    request = CompletionRequest(head + text, DEFAULT_MODEL, temperature, max_output_tokens)
    assert head_key(backend_id, request, head).hex() == cache_key_oracle(backend_id, request)
    assert head_key(backend_id, request, head) == ResponseCache.key(backend_id, request)


@pytest.mark.parametrize("first", [0, 0.0, -0.0])
def test_every_bundled_head_keys_as_its_whole_prompt(first):
    # whichever spelling of zero the memo sees first, every head's state gives the oracle's key
    pheno_mine.gateway._key_state.cache_clear()
    for head in BUNDLED_HEADS:
        for text in ("Seen for memory loss.", "é 𝄞\n\"quoted\""):
            for temperature in (first, 0, 0.0, -0.0):
                request = CompletionRequest(head + text, temperature=temperature)
                assert head_key("mock", request, head).hex() == cache_key_oracle("mock", request)


def test_corrupt_cache_entry_is_a_miss(tmp_path, combined, caplog):
    backend = MockBackend(MockRuleTable.from_csv(data_path("mock_rules.csv")), combined)
    cache_dir = tmp_path / "cache"
    with closing(LlmGateway(backend, cache_dir=cache_dir)) as gateway:
        req = request_for(combined.category("Comorbidities"), "hypertension noted")
        gateway.complete(req)
        (key,) = rows(cache_dir)
        # only a BLOB gets past the text column's TEXT affinity
        for bad in (b"hypertension", b"\xff", b""):
            with closing(sqlite3.connect(cache_dir / "responses.sqlite")) as db, db:
                db.execute("UPDATE reply SET text = ?", (bad,))
            caplog.clear()
            resp = gateway.complete(req)
            assert not resp.cached
            assert resp.text == "hypertension"
            assert [r.getMessage() for r in caplog.records] == [
                f"ignoring corrupt cache entry {key}"
            ]
            # the corrupt entry was rewritten with a good one
            assert rows(cache_dir)[key] == "hypertension"


@settings(max_examples=100, deadline=None)
@given(text=st.text(st.characters(blacklist_categories=("Cs",))))  # no lone surrogates
def test_cache_round_trips_any_text_exactly(text):
    request = CompletionRequest(prompt=f"prompt {text}", model="m", temperature=0.5)
    key = ResponseCache.key("x", request)
    with tempfile.TemporaryDirectory() as directory:
        cache = ResponseCache(directory)
        cache.put(key, text)
        assert cache.get([key]) == [text]
        cache.close()
        reopened = ResponseCache(directory)
        assert reopened.get([key]) == [text]
        reopened.close()
        # a row is the key's digest and the text itself
        assert rows(directory) == {key.hex(): text}
        assert os.listdir(directory) == ["responses.sqlite"]


def test_fresh_store_holds_only_the_reply_table(tmp_path):
    ResponseCache(tmp_path).close()
    with closing(sqlite3.connect(tmp_path / "responses.sqlite")) as db:
        assert db.execute("SELECT type, name, sql FROM sqlite_master").fetchall() == [
            (
                "table",
                "reply",
                "CREATE TABLE reply(key BLOB PRIMARY KEY, text TEXT NOT NULL) WITHOUT ROWID",
            )
        ]


class EchoBackend:
    """Answers at once, from worker threads (no ``never_waits``)."""

    backend_id = "echo"

    def complete_text(self, request):
        return f"echo {request.prompt}"


def test_cache_survives_concurrent_writes_of_one_prompt(tmp_path, caplog):
    # 100 distinct prompts, each 8 times in a row, 8 in flight on a fresh
    # cache: threads finishing the same prompt write the same entry at once.
    gateway = LlmGateway(EchoBackend(), cache_dir=tmp_path / "cache")
    jobs = [(i, "prompt ", str(i // 8)) for i in range(800)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with caplog.at_level(logging.WARNING, logger="pheno_mine.gateway"):
            results = list(gateway.complete_stream(jobs, max_in_flight=8))
    finally:
        sys.setswitchinterval(interval)
    assert [error for _, _, error in results if error] == []
    assert [tag for tag, _, _ in results] == list(range(800))
    assert all(resp.text == f"echo prompt {tag // 8}" for tag, resp, _ in results)
    assert not [r for r in caplog.records if "corrupt cache entry" in r.getMessage()]
    assert len(rows(tmp_path / "cache")) == 100
    assert not list((tmp_path / "cache").glob("*.tmp.*"))


def test_two_gateways_share_one_cache_directory(tmp_path):
    # Two connections to one store, 4 writer threads each, racing on the same
    # 1,000 prompts while a third connection holds the write lock for a while,
    # as another process would: a write that gave up on the lock would fail
    # its request with "database is locked".
    cache_dir = tmp_path / "cache"
    jobs = [(i, "prompt ", str(i)) for i in range(1000)]
    results = {}
    first = LlmGateway(EchoBackend(), cache_dir=cache_dir)
    second = LlmGateway(EchoBackend(), cache_dir=cache_dir)
    with closing(first), closing(second):
        threads = [
            threading.Thread(
                target=lambda g=gateway: results.setdefault(g, list(g.complete_stream(jobs, 4)))
            )
            for gateway in (first, second)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            other = sqlite3.connect(cache_dir / "responses.sqlite", isolation_level=None)
            with closing(other):
                other.execute("BEGIN IMMEDIATE")
                for thread in threads:
                    thread.start()
                time.sleep(0.2)
                other.execute("COMMIT")
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 2
    for streamed in results.values():
        assert [error for _, _, error in streamed if error] == []
        assert all(resp.text == f"echo prompt {tag}" for tag, resp, _ in streamed)
    assert len(rows(cache_dir)) == 1000
    assert os.listdir(cache_dir) == ["responses.sqlite"]


# ---------------------------------------------------------------------------
# retry policy (fake backend)


class FlakyBackend:
    backend_id = "flaky"

    def __init__(self, failures, text="ok"):
        self.failures = failures
        self.text = text
        self.calls = 0

    def complete_text(self, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientBackendError(f"boom {self.calls}")
        return self.text


def test_transient_errors_retry_with_exponential_backoff():
    sleeps = []
    backend = FlakyBackend(failures=2)
    gateway = LlmGateway(backend, max_attempts=3, backoff_base=1.0, sleep=sleeps.append)
    resp = gateway.complete(CompletionRequest(prompt="p"))
    assert resp.text == "ok"
    assert backend.calls == 3
    assert sleeps == [1.0, 2.0]


def test_retries_exhausted_raise_transport_error():
    sleeps = []
    backend = FlakyBackend(failures=10)
    gateway = LlmGateway(backend, max_attempts=3, backoff_base=0.5, sleep=sleeps.append)
    with pytest.raises(TransportError, match="after 3 attempts"):
        gateway.complete(CompletionRequest(prompt="p"))
    assert backend.calls == 3
    assert sleeps == [0.5, 1.0]


class PermanentlyBrokenBackend:
    backend_id = "broken"

    def __init__(self):
        self.calls = 0

    def complete_text(self, request):
        self.calls += 1
        raise BackendError("HTTP 400")


def test_permanent_errors_do_not_retry():
    backend = PermanentlyBrokenBackend()
    gateway = LlmGateway(backend, max_attempts=3, sleep=lambda _: None)
    with pytest.raises(BackendError):
        gateway.complete(CompletionRequest(prompt="p"))
    assert backend.calls == 1


def test_batch_preserves_order_and_reports_failures(combined):
    class EvenFailBackend:
        backend_id = "evens"

        def complete_text(self, request):
            n = int(request.prompt.rsplit(" ", 1)[1])
            if n % 2 == 0:
                raise BackendError(f"no {n}")
            return f"text {n}"

    # more requests than either window holds, so later requests are submitted
    # while earlier results are being drained
    count = 2 * WINDOW_PER_WORKER + 7
    for never_waits, in_flight in ((False, 2), (True, 1), (False, 1)):
        backend = EvenFailBackend()
        backend.never_waits = never_waits
        gateway = LlmGateway(backend, sleep=lambda _: None)
        jobs = ((i, "req ", str(i)) for i in range(count))
        results = list(gateway.complete_stream(jobs, max_in_flight=in_flight))
        assert [tag for tag, _, _ in results] == list(range(count))
        for i, response, error in results:
            if i % 2:
                assert response.text == f"text {i}" and error is None
            else:
                assert response is None and error == f"no {i}"


class PromptBackend:
    """Echoes a prompt, or fails it for good when it names a ``failing`` prompt."""

    backend_id = "prompt"

    def __init__(self, failing, never_waits):
        self.failing = failing
        self.never_waits = never_waits

    def complete_text(self, request):
        if request.prompt in self.failing:
            raise BackendError(f"no {request.prompt}")
        return f"echo {request.prompt}"


@settings(max_examples=40, deadline=None)
@given(
    # more requests than one lookup window, drawn from few prompts so that many repeat
    picks=st.lists(st.integers(0, 11), max_size=3 * WINDOW_PER_WORKER),
    cached=st.sets(st.integers(0, 11)),
    failing=st.sets(st.integers(0, 11)),
)
def test_stream_agrees_with_one_request_at_a_time(picks, cached, failing):
    prompts = [f"p{i}" for i in range(12)]
    jobs = [(tag, "p", str(i)) for tag, i in enumerate(picks)]

    def run(never_waits, stream):
        backend = PromptBackend({prompts[i] for i in failing}, never_waits)
        with tempfile.TemporaryDirectory() as directory:
            with closing(LlmGateway(backend, cache_dir=directory, max_attempts=1)) as gateway:
                for i in cached:
                    key = ResponseCache.key(backend.backend_id, CompletionRequest(prompt=prompts[i]))
                    gateway.cache.put(key, f"cached {prompts[i]}")
                if stream:
                    # one worker: two copies of one uncached prompt in flight at once
                    # would both miss, with the window lookup or without it
                    results = list(gateway.complete_stream(iter(jobs), max_in_flight=1))
                else:
                    results = []
                    for tag, head, text in jobs:
                        try:
                            request = CompletionRequest(prompt=head + text)
                            results.append((tag, gateway.complete(request), None))
                        except BackendError as exc:
                            results.append((tag, None, str(exc)))
            store = rows(directory)
        outcomes = [
            (tag, response and response.text, response and response.cached, error)
            for tag, response, error in results
        ]
        return outcomes, store

    for never_waits in (True, False):
        assert run(never_waits, stream=True) == run(never_waits, stream=False)


@pytest.mark.parametrize("never_waits", [True, False])
def test_failed_lookup_fails_its_window_and_the_stream_goes_on(tmp_path, never_waits):
    backend = PromptBackend(set(), never_waits)
    jobs = [(i, "p", str(i)) for i in range(WINDOW_PER_WORKER + 5)]
    with closing(LlmGateway(backend, cache_dir=tmp_path)) as gateway:
        store_get = gateway.cache._store.get
        calls = []

        def get(keys):  # the first query fails, as a locked or damaged store would
            calls.append(len(keys))
            if len(calls) == 1:
                raise sqlite3.OperationalError("disk I/O error")
            return store_get(keys)

        gateway.cache._store.get = get
        results = list(gateway.complete_stream(iter(jobs), max_in_flight=2))
    assert [tag for tag, _, _ in results] == list(range(len(jobs)))
    assert [error for _, _, error in results[:WINDOW_PER_WORKER]] == (
        ["disk I/O error"] * WINDOW_PER_WORKER
    )
    assert all(r.text == f"echo p{tag}" and e is None for tag, r, e in results[WINDOW_PER_WORKER:])
    # one query per window, then one per miss as it is completed
    assert calls == [WINDOW_PER_WORKER, 5, 1, 1, 1, 1, 1]


def test_hits_share_one_response_per_reply_text(tmp_path):
    backend = PromptBackend(set(), never_waits=True)
    jobs = [(i, "p", str(i % 3)) for i in range(2 * WINDOW_PER_WORKER)]
    with closing(LlmGateway(backend, cache_dir=tmp_path)) as gateway:
        cold = list(gateway.complete_stream(jobs))
        warm = list(gateway.complete_stream(jobs))
    assert [(tag, r.text) for tag, r, _ in warm] == [(tag, r.text) for tag, r, _ in cold]
    assert all(r.cached and e is None for _, r, e in warm)
    assert len({id(r) for _, r, _ in warm}) == 3


def test_batch_rejects_bad_parallelism(mock_gateway):
    # rejected when called, before any request is drawn
    for bad in (0, -1):
        with pytest.raises(ParameterError):
            mock_gateway.complete_stream(iter(()), max_in_flight=bad)


# ---------------------------------------------------------------------------
# HTTP backend against a real local server


class ScriptedHandler(http.server.BaseHTTPRequestHandler):
    script = []  # list of (status, body) or (status, body, headers); a body may be a callable
    seen = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length)) if length else None
        type(self).seen.append((self.path, dict(self.headers), payload))
        entry = self.script[min(len(self.seen) - 1, len(self.script) - 1)]
        status, body, headers = (*entry, {})[:3]
        body = body(payload) if callable(body) else body  # a reply made from the request
        data = (body if isinstance(body, str) else json.dumps(body)).encode("utf-8")
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST  # a followed 301/302/303 arrives as a bodiless GET

    def log_message(self, *args):
        pass


@contextmanager
def serving(handler, tls=None):
    """Serve ``handler`` on a loopback port, over TLS with the ``tls`` context if given;
    yield the base URL."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    if tls is not None:
        server.socket = tls.wrap_socket(server.socket, server_side=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"{'https' if tls else 'http'}://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture()
def scripted_server():
    ScriptedHandler.seen = []
    with serving(ScriptedHandler) as base_url:
        yield base_url, ScriptedHandler


def completion_body(text):
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


NOTES = str(data_path("demo_notes.jsonl"))
DIAGNOSES = str(data_path("demo_diagnoses.csv"))


def extract_run(out, *args) -> tuple:
    """Run ``extract`` on three demo notes into ``out``; its cache hits and matrix bytes."""
    result = CliRunner().invoke(
        main,
        ["extract", "--notes", NOTES, "--diagnoses", DIAGNOSES, "--sample-per-cohort", "1",
         *map(str, args), "--out-dir", str(out)],
    )
    assert result.exit_code == 0, result.output + result.stderr
    report = json.loads((out / "run_report.json").read_text())
    return report["cache_hits"], (out / "feature_matrix.csv").read_bytes()


def test_cache_misses_a_reply_cut_at_another_max_output_tokens(scripted_server, tmp_path):
    base_url, handler = scripted_server
    # an endpoint that cuts its reply at max_tokens characters
    handler.script = [(200, lambda payload: completion_body("hypertension"[: payload["max_tokens"]]))]
    http = ["--list", "list1", "--backend", "http", "--base-url", base_url]
    cache = ["--cache-dir", tmp_path / "cache"]
    _, cut = extract_run(tmp_path / "cut", *http, *cache, "--max-output-tokens", 6)
    hits, warm = extract_run(tmp_path / "warm", *http, *cache, "--max-output-tokens", 64)
    _, fresh = extract_run(tmp_path / "fresh", *http, "--max-output-tokens", 64)
    assert hits == 0
    assert warm == fresh != cut


def test_cache_misses_a_reply_of_other_mock_rules(tmp_path):
    rules = data_path("mock_rules.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    (tmp_path / "all.csv").write_text("".join(rules), encoding="utf-8")
    (tmp_path / "fewer.csv").write_text("".join(rules[:-1]), encoding="utf-8")
    cache = ["--cache-dir", tmp_path / "cache"]
    extract_run(tmp_path / "all", "--mock-rules", tmp_path / "all.csv", *cache)
    hits, _ = extract_run(tmp_path / "fewer", "--mock-rules", tmp_path / "fewer.csv", *cache)
    assert hits == 0
    again, _ = extract_run(tmp_path / "again", "--mock-rules", tmp_path / "fewer.csv", *cache)
    assert again > 0


def test_mock_backend_id_names_its_rule_table(combined):
    table = MockRuleTable.from_csv(data_path("mock_rules.csv"))
    first, again = MockBackend(table, combined), MockBackend(table, combined)
    fewer = MockBackend(MockRuleTable(table.rules[:-1]), combined)
    assert first.backend_id == again.backend_id != fewer.backend_id
    assert first.backend_id.startswith("mock:") and len(first.backend_id) == 17
    # another process computes the same id, as a salted hash() would not
    code = (
        "from pheno_mine.cli import data_path, builtin_list\n"
        "from pheno_mine.gateway import MockBackend, MockRuleTable\n"
        "table = MockRuleTable.from_csv(data_path('mock_rules.csv'))\n"
        "print(MockBackend(table, builtin_list('combined')).backend_id)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(pheno_mine.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.stdout == f"{first.backend_id}\n", proc.stderr


def test_http_backend_round_trip(scripted_server, monkeypatch):
    base_url, handler = scripted_server
    handler.script = [(200, completion_body("hypertension"))]
    monkeypatch.setenv(API_KEY_ENV_VAR, "sekret")
    backend = HttpChatBackend(base_url)
    backend.preflight()
    req = CompletionRequest(prompt="PROMPT", model="test-model", temperature=0.25)
    assert backend.complete_text(req) == "hypertension"
    path, headers, payload = handler.seen[0]
    assert path == "/v1/chat/completions"
    assert headers["Authorization"] == "Bearer sekret"
    assert payload == {
        "model": "test-model",
        "messages": [{"role": "user", "content": "PROMPT"}],
        "temperature": 0.25,
        "max_tokens": 64,
    }


def test_http_backend_key_from_environment_only(scripted_server, monkeypatch):
    base_url, handler = scripted_server
    handler.script = [(200, completion_body("x"))]
    monkeypatch.delenv(API_KEY_ENV_VAR, raising=False)
    backend = HttpChatBackend(base_url)
    backend.complete_text(CompletionRequest(prompt="p"))
    _, headers, _ = handler.seen[0]
    assert "Authorization" not in headers


def test_http_429_then_success_via_gateway(scripted_server):
    base_url, handler = scripted_server
    handler.script = [
        (429, {"error": "slow down"}),
        (429, {"error": "slow down"}),
        (200, completion_body("recovered")),
    ]
    sleeps = []
    gateway = LlmGateway(HttpChatBackend(base_url), sleep=sleeps.append)
    resp = gateway.complete(CompletionRequest(prompt="p"))
    assert resp.text == "recovered"
    assert len(handler.seen) == 3
    assert sleeps == [1.0, 2.0]


@pytest.mark.parametrize(
    "retry_after, sleeps",
    [
        ("7", [7.0]),
        (" 7 ", [7.0]),
        ("0", [1.0]),  # shorter than the backoff
        ("Wed, 21 Oct 2015 07:28:00 GMT", [1.0]),
        ("1.5", [1.0]),  # delta-seconds are whole
    ],
)
def test_http_429_waits_for_delta_seconds_retry_after(scripted_server, retry_after, sleeps):
    base_url, handler = scripted_server
    handler.script = [
        (429, {"error": "slow down"}, {"Retry-After": retry_after}),
        (200, completion_body("recovered")),
    ]
    slept = []
    gateway = LlmGateway(HttpChatBackend(base_url), sleep=slept.append)
    assert gateway.complete(CompletionRequest(prompt="p")).text == "recovered"
    assert slept == sleeps


def test_http_500_is_transient(scripted_server):
    base_url, handler = scripted_server
    handler.script = [(503, "overloaded")]
    backend = HttpChatBackend(base_url)
    with pytest.raises(TransientBackendError, match="503"):
        backend.complete_text(CompletionRequest(prompt="p"))


def test_http_400_is_permanent(scripted_server):
    base_url, handler = scripted_server
    handler.script = [(400, {"error": "bad request"})]
    backend = HttpChatBackend(base_url)
    with pytest.raises(BackendError, match="400"):
        backend.complete_text(CompletionRequest(prompt="p"))


def test_http_malformed_body_is_protocol_error(scripted_server):
    base_url, handler = scripted_server
    handler.script = [(200, {"unexpected": "shape"})]
    backend = HttpChatBackend(base_url)
    with pytest.raises(ProtocolError):
        backend.complete_text(CompletionRequest(prompt="p"))
    handler.script = [(200, "not json at all")]
    handler.seen = []
    with pytest.raises(ProtocolError):
        backend.complete_text(CompletionRequest(prompt="p"))


def test_http_redirect_is_permanent(scripted_server):
    """urllib follows no 307 or 308 for a POST."""
    base_url, handler = scripted_server
    handler.script = [(307, {"error": "moved"}, {"Location": f"{base_url}/v2/chat/completions"})]
    backend = HttpChatBackend(base_url)
    with pytest.raises(BackendError, match="307"):
        backend.complete_text(CompletionRequest(prompt="p"))
    assert [path for path, _, _ in handler.seen] == ["/v1/chat/completions"]


def test_http_followed_redirect_carries_no_key(scripted_server, monkeypatch):
    class Target(ScriptedHandler):
        script = [(200, completion_body("moved"))]
        seen = []

    with serving(Target) as target_url:
        base_url, handler = scripted_server
        handler.script = [(302, {"error": "moved"}, {"Location": f"{target_url}/elsewhere"})]
        monkeypatch.setenv(API_KEY_ENV_VAR, "sekret")
        assert HttpChatBackend(base_url).complete_text(CompletionRequest(prompt="p")) == "moved"
    assert handler.seen[0][1]["Authorization"] == "Bearer sekret"
    [(path, headers, payload)] = Target.seen
    assert (path, payload) == ("/elsewhere", None)
    assert "Authorization" not in headers


@pytest.fixture(scope="module")
def self_signed(tmp_path_factory):
    """A self-signed certificate for IP 127.0.0.1 and its key, as PEM files."""
    openssl = shutil.which("openssl")
    if openssl is None:
        pytest.skip("no openssl binary on PATH to make a self-signed certificate with")
    folder = tmp_path_factory.mktemp("tls")
    cert, key = folder / "cert.pem", folder / "key.pem"
    subprocess.run(
        [openssl, "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
         "-nodes", "-keyout", key, "-out", cert, "-days", "1", "-subj", "/CN=127.0.0.1",
         "-addext", "subjectAltName=IP:127.0.0.1"],
        check=True,
        capture_output=True,
    )
    return cert, key


@pytest.fixture()
def tls_server(self_signed, monkeypatch):
    """A scripted server over TLS; no certificate file or directory is trusted beyond the
    system's, so a test trusts the server's certificate by setting SSL_CERT_FILE to it."""
    cert, key = self_signed
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    for name in ("SSL_CERT_FILE", "SSL_CERT_DIR"):
        monkeypatch.delenv(name, raising=False)
    ScriptedHandler.seen = []
    with serving(ScriptedHandler, context) as base_url:
        yield base_url, ScriptedHandler


def test_https_completion_with_a_trusted_certificate(tls_server, self_signed, monkeypatch):
    base_url, handler = tls_server
    handler.script = [(200, completion_body("hypertension"))]
    monkeypatch.setenv("SSL_CERT_FILE", str(self_signed[0]))
    assert HttpChatBackend(base_url).complete_text(CompletionRequest(prompt="p")) == "hypertension"
    assert [path for path, _, _ in handler.seen] == ["/v1/chat/completions"]


def test_untrusted_certificate_is_permanent(tls_server):
    base_url, handler = tls_server
    handler.script = [(200, completion_body("hypertension"))]
    backend = HttpChatBackend(base_url)
    posts = []
    send = backend.complete_text

    def counted(request):
        posts.append(request)
        return send(request)

    backend.complete_text = counted
    sleeps = []
    gateway = LlmGateway(backend, sleep=sleeps.append)
    with pytest.raises(BackendError, match="CERTIFICATE_VERIFY_FAILED"):
        gateway.complete(CompletionRequest(prompt="p"))
    assert len(posts) == 1
    assert sleeps == []
    assert handler.seen == []  # no request got past the handshake


def test_preflight_completes_the_tls_handshake(tls_server, self_signed, monkeypatch):
    base_url, handler = tls_server
    with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"):
        HttpChatBackend(base_url).preflight()
    monkeypatch.setenv("SSL_CERT_FILE", str(self_signed[0]))
    HttpChatBackend(base_url).preflight()
    assert handler.seen == []  # the probe sends no request


def test_untrusted_certificate_ends_extract_before_artifacts(tls_server, tmp_path):
    base_url, handler = tls_server
    handler.script = [(200, completion_body("none"))]
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main,
        ["extract", "--notes", str(data_path("demo_notes.jsonl")),
         "--diagnoses", str(data_path("demo_diagnoses.csv")), "--backend", "http",
         "--base-url", base_url, "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(out)],
    )
    assert result.exit_code == 1
    assert result.stderr.startswith(f"error: completion endpoint {base_url} is unreachable")
    assert "CERTIFICATE_VERIFY_FAILED" in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert list(out.iterdir()) == []
    assert not (tmp_path / "cache").exists()
    assert handler.seen == []


def test_connection_error_is_transient():
    with socket.create_server(("127.0.0.1", 0)) as closed:
        port = closed.getsockname()[1]
    backend = HttpChatBackend(f"http://127.0.0.1:{port}")
    with pytest.raises(TransientBackendError):
        backend.complete_text(CompletionRequest(prompt="p"))


def test_timeout_is_transient():
    # The kernel completes the handshake, but nothing ever answers.
    with socket.create_server(("127.0.0.1", 0)) as silent:
        backend = HttpChatBackend(f"http://127.0.0.1:{silent.getsockname()[1]}", timeout=0.2)
        with pytest.raises(TransientBackendError):
            backend.complete_text(CompletionRequest(prompt="p"))


def test_preflight_unreachable_endpoint():
    backend = HttpChatBackend("http://127.0.0.1:9")
    with pytest.raises(TransportError, match="unreachable"):
        backend.preflight()


# A host that never resolves (RFC 6761), so only a proxy can reach it.
PROXIED_URL = "http://llm.internal.invalid:8000"


@pytest.fixture()
def proxy_env(monkeypatch):
    """Clear every proxy variable; yield a setter for the ones a test needs.

    urlopen reads the proxy variables once, when it builds its default opener,
    so the opener is dropped before and after the test.
    """
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    urllib.request.install_opener(None)
    yield monkeypatch.setenv
    urllib.request.install_opener(None)


def test_preflight_and_requests_go_through_the_proxy(scripted_server, proxy_env):
    proxy_url, handler = scripted_server
    handler.script = [(200, completion_body("hypertension"))]
    proxy_env("http_proxy", proxy_url)
    backend = HttpChatBackend(PROXIED_URL)
    backend.preflight()
    assert handler.seen == []  # the probe sends no request
    assert backend.complete_text(CompletionRequest(prompt="p")) == "hypertension"
    assert [path for path, _, _ in handler.seen] == [f"{PROXIED_URL}/v1/chat/completions"]


def test_preflight_goes_direct_to_a_host_that_no_proxy_names(scripted_server, proxy_env):
    proxy_url, handler = scripted_server
    proxy_env("http_proxy", proxy_url)
    proxy_env("no_proxy", "llm.internal.invalid")
    with pytest.raises(TransportError, match="unreachable"):
        HttpChatBackend(PROXIED_URL).preflight()
    assert handler.seen == []


def test_preflight_fails_when_the_proxy_is_down(proxy_env):
    with socket.create_server(("127.0.0.1", 0)) as closed:
        port = closed.getsockname()[1]
    proxy_env("http_proxy", f"http://127.0.0.1:{port}")
    with pytest.raises(TransportError, match="unreachable"):
        HttpChatBackend(PROXIED_URL).preflight()


class TunnelHandler(http.server.BaseHTTPRequestHandler):
    """A CONNECT proxy that records each tunnel's target and relays it to that port on
    127.0.0.1."""

    targets = []

    def do_CONNECT(self):
        type(self).targets.append(self.path)
        with socket.create_connection(("127.0.0.1", int(self.path.rpartition(":")[2]))) as far:
            self.send_response(200)
            self.end_headers()
            ends = {self.connection: far, far: self.connection}
            with suppress(ConnectionError):  # a refused handshake resets
                while True:
                    readable, _, _ = select.select(list(ends), [], [], 5.0)
                    data = readable and readable[0].recv(65536)
                    if not data:
                        break
                    ends[readable[0]].sendall(data)
        self.close_connection = True

    def log_message(self, *args):
        pass


def test_https_preflight_and_requests_tunnel_through_the_proxy(
    tls_server, self_signed, proxy_env, monkeypatch
):
    base_url, handler = tls_server
    handler.script = [(200, completion_body("hypertension"))]
    TunnelHandler.targets = []
    with serving(TunnelHandler) as proxy_url:
        proxy_env("https_proxy", proxy_url)
        backend = HttpChatBackend(base_url)
        with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"):
            backend.preflight()  # the handshake runs through the tunnel
        monkeypatch.setenv("SSL_CERT_FILE", str(self_signed[0]))
        backend.preflight()
        assert handler.seen == []
        assert backend.complete_text(CompletionRequest(prompt="p")) == "hypertension"
    target = base_url.removeprefix("https://")
    assert TunnelHandler.targets == [target, target, target]
    assert [path for path, _, _ in handler.seen] == ["/v1/chat/completions"]


class LoginTunnelHandler(TunnelHandler):
    """A CONNECT proxy that answers 407 to a tunnel request without its login."""

    login = "Basic " + base64.b64encode(b"us er:p@ss").decode("ascii")

    def do_CONNECT(self):
        if self.headers.get("Proxy-Authorization") != self.login:
            self.send_response(407)
            self.send_header("Proxy-Authenticate", 'Basic realm="proxy"')
            self.send_header("Content-Length", "0")
            self.end_headers()
            self.close_connection = True
            return
        super().do_CONNECT()


def test_https_preflight_and_requests_log_in_to_the_proxy(
    tls_server, self_signed, proxy_env, monkeypatch
):
    base_url, handler = tls_server
    handler.script = [(200, completion_body("hypertension"))]
    monkeypatch.setenv("SSL_CERT_FILE", str(self_signed[0]))
    LoginTunnelHandler.targets = []
    with serving(LoginTunnelHandler) as proxy_url:
        proxy_env("https_proxy", proxy_url)
        with pytest.raises(TransportError, match="407"):
            HttpChatBackend(base_url).preflight()
        # quoted, as a URL writes them; urllib unquotes both before encoding
        proxy_env("https_proxy", proxy_url.replace("//", "//us%20er:p%40ss@"))
        backend = HttpChatBackend(base_url)
        backend.preflight()
        assert handler.seen == []
        assert backend.complete_text(CompletionRequest(prompt="p")) == "hypertension"
    target = base_url.removeprefix("https://")
    assert LoginTunnelHandler.targets == [target, target]
    assert [path for path, _, _ in handler.seen] == ["/v1/chat/completions"]


def test_base_url_required():
    with pytest.raises(ConfigError):
        HttpChatBackend("")
