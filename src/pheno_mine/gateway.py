"""Completion gateway: HTTP chat backend, deterministic mock, cache, streaming fan-out.

``LlmGateway.complete`` consults a content-addressed on-disk cache first and
retries transient backend failures with exponential backoff, waiting longer
when a 429 or 5xx response's ``Retry-After`` asks for it. ``complete_stream``
looks a window of jobs up in the cache at once, builds requests only for the
misses, fans them out with a bounded number in flight and yields each result,
or its failure, in input order.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import logging
import math
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import unquote, urlparse

from .artifacts import ResponseStore, read_csv_rows
from .errors import (
    BackendError,
    ConfigError,
    ParameterError,
    ProtocolError,
    TransientBackendError,
    TransportError,
)
from .prompts import category_phrase_of, note_section_of
from .schema import PhenotypeList

logger = logging.getLogger(__name__)

DEFAULT_MODEL = "gemma-3-12b-it"
DEFAULT_MAX_OUTPUT_TOKENS = 64
API_KEY_ENV_VAR = "PHENO_MINE_API_KEY"
DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_BACKOFF_BASE = 1.0
# Jobs per cache query, and most requests outstanding per worker on the
# threaded path. The window is refilled only once it has drained to half, so a
# worker always finds the next request queued, also while the oldest is
# retried, and jobs are drawn (and rendered) in batches: drawing one after
# every result made a 2-in-flight loopback HTTP run measurably slower.
WINDOW_PER_WORKER = 64
# Cache-key hash states memoised, one per (backend, max_tokens, model,
# temperature, head); a run uses one per category head and one for whole prompts.
KEY_MEMO_SIZE = 256
# Shared hit responses a stream keeps, by reply text; cleared when full.
RESPONSE_MEMO_LIMIT = 1 << 12


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    model: str = DEFAULT_MODEL
    temperature: float = 0.0
    max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS

    def __post_init__(self):
        if not self.prompt:
            raise ParameterError("prompt must be non-empty")
        _check_settings(self.temperature, self.max_output_tokens)


def _check_settings(temperature, max_output_tokens):
    """Raise ParameterError for a temperature or output limit that no request may carry."""
    if not 0 <= temperature < math.inf:  # also false for nan
        raise ParameterError(f"temperature must be a finite number >= 0, got {temperature}")
    if max_output_tokens < 1:
        raise ParameterError(f"max_output_tokens must be >= 1, got {max_output_tokens}")


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    cached: bool
    latency_ms: float


@dataclass(frozen=True)
class MockRule:
    category: str
    trigger: str  # lowercase substring searched in the note section
    phenotype: str  # emitted display name


@dataclass(frozen=True)
class MockRuleTable:
    rules: tuple[MockRule, ...]

    @classmethod
    def from_csv(cls, path: str | Path) -> "MockRuleTable":
        rules = []
        columns = ("category", "trigger", "phenotype")
        for lineno, row in read_csv_rows(path, ConfigError, "mock rules file", columns):
            trigger = (row["trigger"] or "").strip().lower()
            if not row["category"] or not trigger or not row["phenotype"]:
                raise ConfigError(f"{path}:{lineno}: empty field in mock rule")
            rules.append(MockRule(row["category"].strip(), trigger, row["phenotype"].strip()))
        return cls(rules=tuple(rules))

    def restricted_to(self, plist: PhenotypeList) -> "MockRuleTable":
        """Drop rules for categories outside the active list.

        Lets one rule file cover a superset vocabulary while extraction runs
        on a narrower list.
        """
        known = {cat.name for cat in plist.categories}
        return MockRuleTable(rules=tuple(r for r in self.rules if r.category in known))

    def validate_against(self, plist: PhenotypeList):
        """Every rule must name a category and display name of the active list."""
        names_by_category: dict[str, set[str]] = {}
        for cat in plist.categories:
            names_by_category.setdefault(cat.name, set()).update(
                p.display_name.lower() for p in cat.candidates
            )
        for rule in self.rules:
            if rule.category not in names_by_category:
                raise ConfigError(
                    f"mock rule names unknown category {rule.category!r}"
                )
            if rule.phenotype.lower() not in names_by_category[rule.category]:
                raise ConfigError(
                    f"mock rule emits {rule.phenotype!r}, which is not a display name "
                    f"in category {rule.category!r}"
                )


class MockBackend:
    """Deterministic rule-based stand-in for the chat model.

    A rule fires when its trigger substring occurs (case-insensitively) in the
    prompt's note section and its category matches the prompt's category
    phrase exactly. Fired display names are emitted comma-separated in rule
    order; no hits emits "none".
    """

    # Pure computation: a worker thread would only contend for the interpreter
    # lock, so the gateway completes mock requests inline.
    never_waits = True

    def __init__(self, table: MockRuleTable, plist: PhenotypeList):
        table.validate_against(plist)
        self.table = table
        # The rules decide every reply, so the cache key names them; never hash(),
        # which is salted per process.
        rules = json.dumps([[r.category, r.trigger, r.phenotype] for r in table.rules])
        self.backend_id = "mock:" + hashlib.sha256(rules.encode("utf-8")).hexdigest()[:12]
        # Map prompt phrase -> category names carrying that phrase. Exact
        # phrase equality keeps look-alike categories ("Memory" vs "Memory
        # Indicators") from cross-firing.
        self._categories_by_phrase: dict[str, list[str]] = {}
        for cat in plist.categories:
            self._categories_by_phrase.setdefault(cat.phrase().lower(), []).append(cat.name)

    def complete_text(self, request: CompletionRequest) -> str:
        phrase = category_phrase_of(request.prompt).lower()
        note = note_section_of(request.prompt).lower()
        active = set(self._categories_by_phrase.get(phrase, []))
        emitted: list[str] = []
        for rule in self.table.rules:
            if rule.category in active and rule.trigger in note:
                if rule.phenotype not in emitted:
                    emitted.append(rule.phenotype)
        return ", ".join(emitted) if emitted else "none"


class HttpChatBackend:
    """Chat-completions HTTP backend (message list + model + temperature)."""

    backend_id = "http"

    def __init__(self, base_url: str, api_key: str | None = None, timeout: float = 60.0):
        if not base_url:
            raise ConfigError("http backend requires a base URL")
        if " " in base_url or not (base_url.isascii() and base_url.isprintable()):
            raise ConfigError(f"base URL must be printable ASCII without spaces, got {base_url!r}")
        self.base_url = base_url.rstrip("/")
        try:
            parsed = urlparse(self.base_url)
            parsed.port  # raises for a port outside 0-65535 or not a number
        except ValueError as exc:  # that, or a bad [IPv6]
            raise ConfigError(f"cannot parse base URL {base_url!r}: {exc}") from None
        if parsed.scheme not in ("http", "https") or not parsed.hostname:
            raise ConfigError(f"base URL needs an http or https scheme and a host, got {base_url!r}")
        # host and port as the URL writes them, which is how urllib routes them
        self.tls, self.netloc = parsed.scheme == "https", parsed.netloc.rpartition("@")[2]
        self.url = f"{self.base_url}/v1/chat/completions"
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV_VAR)
        self.timeout = timeout

    def preflight(self):
        """Fail fast with one clear message when the endpoint is unreachable or untrusted.

        The probe takes the route of a request, through any proxy that urllib would use and
        tunnelling to https; it completes the TLS handshake but sends the endpoint no request."""
        import base64
        import http.client
        import urllib.request

        proxy = urllib.request.getproxies().get("https" if self.tls else "http")
        login = {}
        if proxy and urllib.request.proxy_bypass(self.netloc):
            proxy = None
        elif proxy:  # "host:port", "user:password@host:port" or a URL, as urllib takes it
            parsed = urlparse(proxy if "://" in proxy else f"//{proxy}")
            proxy = parsed.netloc.rpartition("@")[2]
            if parsed.username and parsed.password:  # sent as urllib sends them
                pair = f"{unquote(parsed.username)}:{unquote(parsed.password)}".encode()
                login["Proxy-Authorization"] = "Basic " + base64.b64encode(pair).decode("ascii")
        connection = http.client.HTTPSConnection if self.tls else http.client.HTTPConnection
        try:
            conn = connection(proxy or self.netloc, timeout=5.0)
            if proxy and self.tls:
                conn.set_tunnel(self.netloc, headers=login)
            conn.connect()
            conn.close()
        except (OSError, http.client.HTTPException) as exc:  # ssl.SSLError is an OSError
            message = f"completion endpoint {self.base_url} is unreachable: {exc}"
            raise TransportError(message) from exc

    def complete_text(self, request: CompletionRequest) -> str:
        import http.client  # these four are loaded only by runs that use HTTP
        import ssl
        import urllib.error
        import urllib.request

        body = json.dumps({
            "model": request.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }).encode("utf-8")
        post = urllib.request.Request(self.url, body, {"Content-Type": "application/json"})
        if self.api_key:  # urllib copies no unredirected header onto a redirect
            post.add_unredirected_header("Authorization", f"Bearer {self.api_key}")
        try:
            try:
                with urllib.request.urlopen(post, timeout=self.timeout) as resp:
                    status, reply_headers, raw = resp.status, resp.headers, resp.read()
            except urllib.error.HTTPError as exc:  # every non-2xx status
                with exc:
                    status, reply_headers, raw = exc.code, exc.headers, exc.read()
        except (OSError, http.client.HTTPException) as exc:  # HTTPError is an OSError too
            if isinstance(getattr(exc, "reason", exc), ssl.SSLCertVerificationError):
                # no retry gets past a certificate that the client does not trust
                raise BackendError(f"request to {self.url} failed: {exc}") from exc
            raise TransientBackendError(f"request to {self.url} failed: {exc}") from exc
        if status == 429 or status >= 500:
            # only the delta-seconds form; an HTTP-date keeps the usual backoff
            header = reply_headers.get("Retry-After", "").strip()
            raise TransientBackendError(
                f"HTTP {status} from {self.url}",
                retry_after=float(header) if header.isascii() and header.isdigit() else None,
            )
        if status >= 300:
            raise BackendError(f"HTTP {status} from {self.url}: {raw[:200].decode(errors='replace')}")
        try:
            text = json.loads(raw)["choices"][0]["message"]["content"]
            if not isinstance(text, str):
                raise TypeError("message content is not a string")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            logger.error("malformed completion body from %s: %r", self.url, raw[:500])
            raise ProtocolError(f"cannot parse completion response: {exc}") from exc
        return text


class ResponseCache:
    """Content-addressed completion responses in ``<directory>/responses.sqlite``.

    The key hashes every request field that can change a reply: backend_id,
    max_tokens, model, prompt and temperature. A row holds its digest and the
    reply text, which a hit replays byte-identically.
    """

    def __init__(self, directory: str | Path):
        self._store = ResponseStore(Path(directory) / "responses.sqlite")

    @staticmethod
    def key(backend_id: str, request: CompletionRequest) -> bytes:
        """The 32-byte sha256 of the request's header line, then its prompt as UTF-8."""
        state = _key_state(
            backend_id, request.max_output_tokens, request.model, request.temperature, ""
        )
        return _digest(state, request.prompt)

    def get(self, keys: list) -> list:
        """The reply cached under each key, in order; None for a miss."""
        return self._store.get(keys)

    def put(self, key: bytes, text: str):
        self._store.put(key, text)

    def close(self):
        self._store.close()


@functools.lru_cache(maxsize=KEY_MEMO_SIZE)
def _key_state(backend_id: str, max_tokens: int, model: str, temperature, head: str):
    """sha256 fed the header line and then ``head``; callers copy it, never update it.

    The header is the JSON array of backend, max_tokens, model and temperature,
    and a newline. No JSON text holds a raw newline, so the header ends at the
    first one. The numbers are canonical, since the memo takes 0, 0.0 and -0.0
    for one key. A prompt is a head plus a text, and sha256 streams, so a copy
    of the head's state fed the text gives the whole prompt's key.
    """
    fields = [backend_id, int(max_tokens), model, float(temperature) + 0.0]
    return hashlib.sha256((json.dumps(fields) + "\n" + head).encode("utf-8"))


def _digest(state, text: str) -> bytes:
    """The digest of ``state`` fed ``text`` as UTF-8; ``state`` itself is left as it was."""
    state = state.copy()
    state.update(text.encode("utf-8"))
    return state.digest()


class LlmGateway:
    """Backend-agnostic completion entry point with cache and retry policy."""

    def __init__(
        self,
        backend,
        cache_dir: str | Path | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        sleep=time.sleep,
    ):
        if max_attempts < 1:
            raise ParameterError(f"max_attempts must be >= 1, got {max_attempts}")
        self.backend = backend
        self.cache = ResponseCache(cache_dir) if cache_dir else None
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self._sleep = sleep

    def close(self):
        """Close the response cache, if there is one."""
        if self.cache is not None:
            self.cache.close()

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        key = None
        if self.cache is not None:
            key = ResponseCache.key(self.backend.backend_id, request)
            (hit,) = self.cache.get([key])
            if hit is not None:
                return CompletionResponse(text=hit, cached=True, latency_ms=0.0)
        start = time.perf_counter()
        text = self._complete_with_retries(request)
        latency_ms = (time.perf_counter() - start) * 1000.0
        if key is not None:
            self.cache.put(key, text)
        return CompletionResponse(text=text, cached=False, latency_ms=latency_ms)

    def _complete_with_retries(self, request: CompletionRequest) -> str:
        last_error = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                return self.backend.complete_text(request)
            except TransientBackendError as exc:
                last_error = exc
                if attempt < self.max_attempts:
                    delay = max(self.backoff_base * (2 ** (attempt - 1)), exc.retry_after or 0.0)
                    logger.warning(
                        "transient backend failure (attempt %d/%d): %s; retrying in %.1fs",
                        attempt,
                        self.max_attempts,
                        exc,
                        delay,
                    )
                    self._sleep(delay)
        raise TransportError(
            f"backend failed after {self.max_attempts} attempts: {last_error}"
        ) from last_error

    def complete_stream(
        self, jobs, max_in_flight: int = 4, render=None, model: str = DEFAULT_MODEL,
        temperature: float = 0.0, max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS,
    ):
        """Complete ``(tag, head, text)`` jobs, yielding ``(tag, response, error)``.

        A job's prompt is ``head + text``; ``render(tag)``, when given, builds it
        instead and must return the same string. Every request carries ``model``,
        ``temperature`` and ``max_output_tokens``, checked once here. Results come
        back in input order. A failed request yields ``(tag, None, message)`` and
        the stream goes on. ``jobs`` is consumed lazily. With a cache, a window of
        ``WINDOW_PER_WORKER`` jobs is looked up in one query (a failed one fails the
        window), each key a copy of the memoised state of its header and head fed
        the text. A hit renders nothing and yields the stream's one response for
        its reply text. Only a miss becomes a ``CompletionRequest``, which goes to
        ``complete``, whose own lookup serves a copy completed meanwhile; without
        a cache every job does. A backend that never waits completes each request
        inline; any other gets ``max_in_flight`` worker threads with at most
        ``WINDOW_PER_WORKER`` requests per worker outstanding.
        """
        if max_in_flight < 1:
            raise ParameterError(f"max_in_flight must be >= 1, got {max_in_flight}")
        _check_settings(temperature, max_output_tokens)

        def request_of(tag, head, text):
            prompt = head + text if render is None else render(tag)
            return CompletionRequest(prompt, model, temperature, max_output_tokens)

        if self.cache:
            key_state = functools.partial(
                _key_state, self.backend.backend_id, max_output_tokens, model, temperature
            )
            jobs = self._looked_up(iter(jobs), key_state, request_of)
        else:
            jobs = ((job[0], request_of(*job), None) for job in jobs)
        if getattr(self.backend, "never_waits", False):
            return (
                _settled(tag, found or functools.partial(self.complete, request))
                for tag, request, found in jobs
            )
        return self._stream_threaded(jobs, max_in_flight)

    def _looked_up(self, jobs, key_state, request_of):
        """``(tag, request, found)`` per job: a miss's request and None, or None and the hit's
        response or the failed lookup's exception."""
        responses: dict = {}  # reply text -> the response every hit on it shares
        while window := list(itertools.islice(jobs, WINDOW_PER_WORKER)):
            keys = [_digest(key_state(head), text) for _, head, text in window]
            try:
                texts = self.cache.get(keys)
            except Exception as exc:  # noqa: BLE001 - reported per request
                texts = [exc] * len(window)
            for job, text in zip(window, texts):
                if text is None:
                    yield job[0], request_of(*job), None
                elif isinstance(text, Exception):
                    yield job[0], None, text
                else:
                    response = responses.get(text)
                    if response is None:
                        if len(responses) >= RESPONSE_MEMO_LIMIT:
                            responses.clear()
                        response = responses[text] = CompletionResponse(text, True, 0.0)
                    yield job[0], None, response

    def _stream_threaded(self, jobs, max_in_flight: int):
        window: deque = deque()
        limit = max_in_flight * WINDOW_PER_WORKER
        pool = ThreadPoolExecutor(max_workers=max_in_flight)
        try:
            for tag, request, found in jobs:
                window.append((tag, found or pool.submit(self.complete, request).result))
                if len(window) >= limit:
                    while len(window) > limit // 2:
                        yield _settled(*window.popleft())
            while window:
                yield _settled(*window.popleft())
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


def _settled(tag, outcome):
    """``(tag, response, None)``, or ``(tag, None, message)`` for a failure.

    ``outcome`` is a response, the exception of a failed lookup, or a call that
    returns a response or raises.
    """
    if isinstance(outcome, CompletionResponse):
        return tag, outcome, None
    if isinstance(outcome, Exception):
        return tag, None, str(outcome)
    try:
        return tag, outcome(), None
    except Exception as exc:  # noqa: BLE001 - reported per request
        return tag, None, str(exc)
