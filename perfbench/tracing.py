"""Outside-in tracing of pheno_mine: spans recorded around its public functions.

``Tracer.install`` replaces functions and methods at the names the program
looks them up by (``cli.chunk_text`` as well as ``extraction.chunk_text``,
``LlmGateway.complete`` on the class, ...), so nothing under ``src/`` changes.
Spans are kept in memory and written once, when the traced run ends.
``layer_metrics`` turns a span file into the per-layer metrics.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder; safe to use from gateway worker threads."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # (span id, parent id, name, start, end, attributes or None)
        self.spans: list = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        # What could not be traced, for the run to report on stderr.
        self.notices: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, attrs: "dict | None" = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, parent, name, start, end, attrs))

    def wrap(self, owner, attr: str, name: str, describe=None):
        """Replace ``owner.attr`` with a function that records a span per call.

        ``describe(args, kwargs, result, error)`` returns the span's attributes.
        A target that ``owner`` no longer defines is skipped, so its metrics
        read 0; a ``describe`` that fails leaves the span without attributes.
        Neither fails the run: only the output checks do.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.notices.append(f"{owner.__name__}.{attr} not found; {name} not traced")
            return
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        tracer = self

        def traced(*args, **kwargs):
            attrs: dict = {}
            with tracer.span(name, attrs):
                result = error = None
                try:
                    result = original(*args, **kwargs)
                    return result
                except BaseException as exc:
                    error = exc
                    raise
                finally:
                    if describe is not None:
                        try:
                            attrs.update(describe(args, kwargs, result, error))
                        except Exception as exc:
                            tracer._describe_failed(name, exc)
                    if error is not None:
                        attrs.setdefault("failed", True)

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    def _describe_failed(self, name: str, exc: Exception):
        notice = f"attributes of {name} unavailable: {exc!r}"
        with self._lock:
            if notice not in self.notices:
                self.notices.append(notice)

    def install(self):
        """Wrap every layer boundary of the imported pheno_mine package."""
        from pheno_mine import (
            baselines,
            cli,
            cohort,
            extraction,
            features,
            figures,
            gateway,
            pca,
            stats,
        )

        for fn in ("load_notes", "load_diagnoses", "label_notes", "build_manifest"):
            self.wrap(cohort, fn, f"cohort.{fn}")
        self.wrap(extraction, "extract_notes", "extraction.extract_notes")
        self.wrap(extraction, "chunk_text", "chunking.chunk_text", _chunks("extraction"))
        self.wrap(cli, "chunk_text", "chunking.chunk_text", _chunks("cli"))
        self.wrap(extraction, "render_prompt", "prompts.render_prompt", _rendered)
        self.wrap(extraction, "parse_response", "extraction.parse_response", _rejects)
        self.wrap(extraction, "build_feature_matrix", "extraction.build_feature_matrix")
        self.wrap(gateway.LlmGateway, "complete_batch", "gateway.complete_batch")
        self.wrap(gateway.LlmGateway, "complete", "gateway.complete", _completion)
        self.wrap(gateway.ResponseCache, "get", "gateway.cache_get")
        self.wrap(gateway.ResponseCache, "put", "gateway.cache_put")
        for backend in (gateway.MockBackend, gateway.HttpChatBackend):
            self.wrap(backend, "complete_text", "gateway.backend", _backend_prompt)
        self.wrap(features.FeatureMatrix, "to_csv", "features.to_csv")
        self.wrap(features.FeatureMatrix, "from_csv", "features.from_csv")
        self.wrap(stats, "analyze_matrix", "stats.analyze_matrix")
        self.wrap(cli, "evaluate_clustering", "clustering.evaluate_clustering")
        self.wrap(pca, "pca_project", "pca.pca_project")
        self.wrap(figures, "write_pca_svg", "figures.write_pca_svg")
        self.wrap(baselines, "build_dictionary", "baselines.build_dictionary", _terms)
        self.wrap(
            baselines,
            "extract_dictionary_features",
            "baselines.extract_dictionary_features",
            _threshold,
        )

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def _chunks(caller):
    def describe(args, kwargs, result, error):
        return {"caller": caller, "chunks": len(result) if result is not None else 0}

    return describe


def _rendered(args, kwargs, result, error):
    return {"chars": len(result) if result is not None else 0}


def _rejects(args, kwargs, result, error):
    rejects = kwargs.get("rejects")
    return {"rejects": len(rejects) if rejects else 0}


def _request_of(args, kwargs):
    return kwargs["request"] if "request" in kwargs else args[1]


def _completion(args, kwargs, result, error):
    attrs = {"prompt": hash(_request_of(args, kwargs).prompt)}
    if error is not None:
        attrs["failed"] = True
    else:
        attrs["cached"] = result.cached
        attrs["latency_ms"] = result.latency_ms
    return attrs


def _backend_prompt(args, kwargs, result, error):
    return {"prompt": hash(_request_of(args, kwargs).prompt), "failed": error is not None}


def _terms(args, kwargs, result, error):
    return {"terms": len(result.terms) if result is not None else 0}


def _threshold(args, kwargs, result, error):
    return {"threshold": kwargs.get("similarity_threshold", 1.0)}


# ---------------------------------------------------------------------------
# Span file -> per-layer metrics


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return float(sorted_values[rank - 1])


def layer_metrics(span_file, notes: int) -> dict:
    """Per-layer metrics of one traced run, keyed by metric name.

    ``notes`` is the corpus size the extract command ran on (0 for runs
    without one); per-note ratios are 0 when it is 0.
    """
    with open(span_file, encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    by_name: dict = {}
    children: dict = {}
    for span in spans:
        span_id, parent, name, start, end, attrs = span
        by_name.setdefault(name, []).append((end - start, attrs or {}))
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)

    def count(name):
        return len(by_name.get(name, ()))

    def busy(*names, where=lambda a: True):
        return sum(d for n in names for d, a in by_name.get(n, ()) if where(a))

    def attr_sum(name, key, where=lambda a: True):
        return sum(a.get(key, 0) for _, a in by_name.get(name, ()) if where(a))

    def per_note(value):
        return value / notes if notes else 0.0

    completes = [a for _, a in by_name.get("gateway.complete", ())]
    requests = len(completes)
    hits = sum(1 for a in completes if a.get("cached"))
    latencies = sorted(
        a["latency_ms"] for a in completes if "latency_ms" in a and not a.get("cached")
    )
    backend = [a for _, a in by_name.get("gateway.backend", ())]
    distinct_backend = len({a.get("prompt") for a in backend})
    distinct_requests = len({a.get("prompt") for a in completes})
    cli_self = sum(
        (end - start) - children.get(span_id, 0.0)
        for span_id, _, name, start, end, _ in spans
        if name.startswith("cli.")
    )
    return {
        "cohort.load_s": busy(
            "cohort.load_notes",
            "cohort.load_diagnoses",
            "cohort.label_notes",
            "cohort.build_manifest",
        ),
        "chunking.calls": count("chunking.chunk_text"),
        "chunking.calls_per_note": per_note(count("chunking.chunk_text")),
        "chunking.chunks_per_note": per_note(
            attr_sum("chunking.chunk_text", "chunks", lambda a: a.get("caller") == "extraction")
        ),
        "chunking.busy_s": busy("chunking.chunk_text"),
        "prompts.renders": count("prompts.render_prompt"),
        "prompts.render_s": busy("prompts.render_prompt"),
        "prompts.rendered_mb": attr_sum("prompts.render_prompt", "chars") / 2**20,
        "gateway.requests": requests,
        "gateway.batch_s": busy("gateway.complete_batch"),
        "gateway.complete_s": busy("gateway.complete"),
        "gateway.backend_calls": len(backend),
        "gateway.backend_s": busy("gateway.backend"),
        "gateway.cache_hits": hits,
        "gateway.cache_hit_ratio": hits / requests if requests else 0.0,
        "gateway.cache_get_s": busy("gateway.cache_get"),
        "gateway.cache_put_s": busy("gateway.cache_put"),
        "gateway.latency_ms.p50": _percentile(latencies, 50),
        "gateway.latency_ms.p99": _percentile(latencies, 99),
        "gateway.latency_ms.n": len(latencies),
        "gateway.backend_calls_per_distinct_prompt": (
            len(backend) / distinct_backend if distinct_backend else 0.0
        ),
        "gateway.dup_prompt_share": 1.0 - distinct_requests / requests if requests else 0.0,
        "gateway.failed": sum(1 for a in completes if a.get("failed")),
        "extraction.parse_s": busy("extraction.parse_response"),
        "extraction.matrix_s": busy("extraction.build_feature_matrix"),
        "extraction.rejects": attr_sum("extraction.parse_response", "rejects"),
        "features.write_s": busy("features.to_csv"),
        "features.read_s": busy("features.from_csv"),
        "stats.analyze_s": busy("stats.analyze_matrix"),
        "clustering.evaluate_s": busy("clustering.evaluate_clustering"),
        "pca.project_s": busy("pca.pca_project"),
        "figures.svg_s": busy("figures.write_pca_svg"),
        "baselines.dictionary_build_s": busy("baselines.build_dictionary"),
        "baselines.exact_s": busy(
            "baselines.extract_dictionary_features", where=lambda a: a.get("threshold") == 1.0
        ),
        "baselines.jaccard_s": busy(
            "baselines.extract_dictionary_features", where=lambda a: a.get("threshold", 1.0) != 1.0
        ),
        "baselines.terms": max(
            (a.get("terms", 0) for _, a in by_name.get("baselines.build_dictionary", ())),
            default=0,
        ),
        "cli.self_s": cli_self,
    }
