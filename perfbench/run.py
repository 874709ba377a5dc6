"""Offline benchmark of the pheno-mine pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of the workloads below, or ``all`` to run each in turn.
Inputs are generated from ``--seed``. A run repeats the workload's commands
in fresh processes (``child.py``) until ``--seconds`` have passed, at least
``MIN_REPS`` times, checks every repetition's artifacts against independent
oracles (``checks.py``) and prints, as its last stdout line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. Every metric is the median over repetitions. A traced run
alternates untraced and traced repetitions; the traced ones wrap the
package's functions from outside (``tracing.py``) and give the per-layer
metrics, and the difference of the two medians is the tracing overhead.
Exits 1 when a check fails and 2 when the checkout has no source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import checks
import corpus
from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "pheno_mine" / "data"

MIN_REPS = 3  # untraced repetitions of a run
MIN_TRACED_REPS = 2  # of each kind, in a traced run
MAX_REPS = 40
CHILD_TIMEOUT_S = 120
CATEGORIES = 11  # categories of the combined list: requests per chunk
# Two assumptions of extract_short_http, neither measured on a real corpus or
# endpoint. The delay keeps its 1,056 requests within one run; a real endpoint
# at the ~20 req/s of ROADMAP.md would, at 2 in flight, take ~100 ms each. One
# note in COPY_EVERY repeats an earlier one, so the share of duplicated
# prompts, and any gain from sending each distinct prompt once, is set here.
ENDPOINT_DELAY_MS = 10
COPY_EVERY = 4
# At most as many in flight as the 2 cores of the baseline machine; more would
# only add threads and connections.
MAX_IN_FLIGHT = 2


class Failure(Exception):
    """A repetition, or the set-up it needs, could not run."""


def allocated_mb(path: Path) -> float:
    """Disk space allocated to the files under ``path``, in MiB."""
    if not path.exists():
        return 0.0
    blocks = sum(p.lstat().st_blocks for p in path.rglob("*") if p.is_file())
    return blocks * 512 / 2**20


class ExtractWorkload:
    """``extract`` over a generated corpus, optionally followed by ``report``."""

    def __init__(
        self, notes, chars, backend="mock", copy_every=0, prefill=False, report=False,
        in_flight=MAX_IN_FLIGHT,
    ):
        self.notes = notes
        self.chars = chars
        self.backend = backend
        self.copy_every = copy_every
        self.prefill = prefill
        self.report = report
        self.in_flight = in_flight
        self.endpoint = None
        self.base_url = None
        self.prefill_cache = None
        self.prefill_requests = 0

    def describe(self) -> str:
        return (
            f"{self.corpus.notes} notes of {self.corpus.chars_per_note:.0f} chars, "
            f"{self.corpus.copies} copied, backend {self.backend}, {self.in_flight} in flight"
            + (", every response prefilled in the cache" if self.prefill else "")
        )

    def prepare(self, demo: corpus.Demo, work: Path, seed: int):
        self.demo = demo
        self.corpus = corpus.write_corpus(
            demo, work / "inputs", seed, self.notes, self.chars, self.copy_every
        )
        self.warmup_corpus = corpus.write_corpus(demo, work / "warmup", seed + 1, 1, self.chars)
        if self.backend == "http":
            self._start_endpoint(work)
        if self.prefill:
            self._prefill(work)

    def _start_endpoint(self, work: Path):
        log = (work / "endpoint.log").open("w")
        self.endpoint = subprocess.Popen(
            [sys.executable, str(HERE / "endpoint.py"), str(SRC), str(ENDPOINT_DELAY_MS)],
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
            env=child_env(),
        )
        log.close()
        port = self.endpoint.stdout.readline().strip()
        if not port.isdigit():
            raise Failure("the stand-in endpoint did not start; see endpoint.log")
        self.base_url = f"http://127.0.0.1:{port}"

    def served(self) -> int:
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(f"{self.base_url}/served", timeout=10) as resp:
            return json.load(resp)["served"]

    def _prefill(self, work: Path):
        """Fill a cache with every response of the corpus, through the CLI under test.

        The timed run then only reads the cache. Creating a cache entry cost
        from 0.06 ms to 0.7 ms on the shared file system of the baseline
        machine, minute by minute, so a timed run that also writes entries
        swung by a factor of three between runs; reading one stayed near
        0.02 ms.
        """
        self.prefill_cache = work / "prefill_cache"
        args = self._extract_args(self.corpus.notes_path, work / "prefill", self.prefill_cache)
        proc = subprocess.run(
            [sys.executable, "-m", "pheno_mine.cli", *args],
            env=dict(child_env(), PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise Failure(f"cache prefill failed: {proc.stderr.strip()[-500:]}")
        report = json.loads((work / "prefill" / "run_report.json").read_text(encoding="utf-8"))
        self.prefill_requests = report["requests"]

    def _extract_args(self, notes_path: Path, out: Path, cache: "Path | None") -> list:
        args = [
            "extract",
            "--notes", str(notes_path),
            "--diagnoses", str(self.corpus.diagnoses_path),
            "--list", "combined",
            "--backend", self.backend,
            "--max-in-flight", str(self.in_flight),
            "--out-dir", str(out),
        ]
        if cache is not None:
            args += ["--cache-dir", str(cache)]
        if self.base_url:
            args += ["--base-url", self.base_url]
        return args

    def warmup(self, rep: Path) -> list:
        warm = self.warmup_corpus
        cache = rep / "warmup_cache" if self.prefill else None
        args = self._extract_args(warm.notes_path, rep / "warmup", cache)
        args[args.index("--diagnoses") + 1] = str(warm.diagnoses_path)
        return [args]

    def commands(self, rep: Path) -> list:
        # A fully warm run only reads the cache, so every repetition can use
        # the prefilled directory itself; the cache-hit check catches a write.
        commands = [self._extract_args(self.corpus.notes_path, rep / "out", self.prefill_cache)]
        if self.report:
            commands.append(
                ["report", "--matrix", str(rep / "out" / "feature_matrix.csv"),
                 "--out-dir", str(rep / "out" / "report")]
            )
        return commands

    def before(self, rep: Path):
        self.served_before = self.served() if self.endpoint else 0

    def after(self, rep: Path) -> dict:
        """Check the repetition's artifacts; return its counts and sizes."""
        out = rep / "out"
        problems = checks.check_matrix(
            out / "feature_matrix.csv", self.corpus.source, self.demo.truth
        )
        report_path = out / "run_report.json"
        report = {}
        if report_path.is_file():
            report = json.loads(report_path.read_text(encoding="utf-8"))
        requests = report.get("requests", 0)
        problems += checks.check_run_report(
            report, CATEGORIES * self.notes, CATEGORIES, self.prefill_requests
        )
        if self.report:
            problems += checks.check_report_dir(out / "report", self.notes)
        served = None
        if self.endpoint:
            warm = json.loads((rep / "warmup" / "run_report.json").read_text(encoding="utf-8"))
            served = self.served() - self.served_before - warm["requests"]
            if served != requests - self.prefill_requests:
                problems.append(f"endpoint served {served} completions for {requests} requests")
        cache = self.prefill_cache
        return {
            "problems": problems,
            "served": served,
            "attempted": max(requests, 1),
            "disk_mb": allocated_mb(out) + (allocated_mb(cache) if cache else 0.0),
            "cache_dir_mb": allocated_mb(cache) if cache else 0.0,
            "notes": self.notes,
        }

    def close(self):
        if self.endpoint is not None:
            stop(self.endpoint)


class DictionaryWorkload:
    """``baseline --method dictionary``, exact and then at Jaccard 0.8."""

    THRESHOLDS = ("1.0", "0.8")
    SAMPLE = 5  # notes checked against the brute-force reference, per pass

    def __init__(self, notes, chars, terms):
        self.notes = notes
        self.chars = chars
        self.terms = terms

    def describe(self) -> str:
        return (
            f"{self.corpus.notes} notes of {self.corpus.chars_per_note:.0f} chars, "
            f"{len(self.dictionary)} dictionary terms"
        )

    def prepare(self, demo: corpus.Demo, work: Path, seed: int):
        self.corpus = corpus.write_corpus(demo, work / "inputs", seed, self.notes, self.chars)
        self.terms_path = work / "inputs" / "terms.csv"
        written = corpus.write_dictionary(demo, self.terms_path, self.terms)
        # build_dictionary keeps terms longer than its default minimum of 4 characters
        self.dictionary = {t: c for t, c in written.items() if len(t) > 4}
        self.warmup_corpus = corpus.write_corpus(demo, work / "warmup", seed + 1, 1, self.chars)
        rows = [json.loads(line) for line in self.corpus.notes_path.read_text().splitlines()]
        self.texts = {r["note_id"]: r["text"] for r in rows}
        step = max(1, len(rows) // self.SAMPLE)
        self.sample = [r["note_id"] for r in rows[::step][: self.SAMPLE]]

    def _args(self, notes_path: Path, out: Path, threshold: str) -> list:
        return [
            "baseline", "--method", "dictionary",
            "--notes", str(notes_path),
            "--terms", str(self.terms_path),
            "--min-doc-freq", "1",
            "--similarity-threshold", threshold,
            "--out-dir", str(out),
        ]

    def warmup(self, rep: Path) -> list:
        notes = self.warmup_corpus.notes_path
        return [self._args(notes, rep / "warmup", t) for t in self.THRESHOLDS]

    def commands(self, rep: Path) -> list:
        return [self._args(self.corpus.notes_path, rep / f"t{t}", t) for t in self.THRESHOLDS]

    def before(self, rep: Path):
        pass

    def after(self, rep: Path) -> dict:
        problems = []
        for t in self.THRESHOLDS:
            matrix = rep / f"t{t}" / "dictionary_matrix.csv"
            problems += checks.check_dictionary(
                matrix, self.texts, self.dictionary, float(t), self.sample
            )
        return {
            "problems": problems,
            "attempted": self.notes * len(self.THRESHOLDS),
            "disk_mb": sum(allocated_mb(rep / f"t{t}") for t in self.THRESHOLDS),
            "cache_dir_mb": 0.0,
            "notes": 0,
            "served": None,
        }

    def close(self):
        pass


# Sizes keep one repetition at a few seconds on a 2-core machine, so a run
# of --seconds fits several and reports a median.
WORKLOADS = {
    "extract_long_mock": lambda: ExtractWorkload(1000, 10_000, report=True),
    # A cache hit never waits, so a second gateway worker would only contend
    # for the interpreter lock: with two, the same runs idled for a varying
    # part of their time and their 20-second medians spread three times wider.
    "extract_short_cache": lambda: ExtractWorkload(1000, 1_500, prefill=True, in_flight=1),
    "extract_short_http": lambda: ExtractWorkload(96, 1_500, backend="http", copy_every=COPY_EVERY),
    "dictionary_jaccard": lambda: DictionaryWorkload(60, 1_500, 200),
}


def child_env() -> dict:
    """Environment for started processes: no proxy may intercept loopback traffic."""
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env.pop("PYTHONPATH", None)
    return env


def stop(proc: subprocess.Popen):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def run_rep(workload, work: Path, index: int, traced: bool, run_id: str) -> dict:
    rep = work / f"rep{index:02d}"
    rep.mkdir()
    workload.before(rep)
    job = {
        "src": str(SRC),
        "warmup": workload.warmup(rep),
        "commands": workload.commands(rep),
        "trace": traced,
        "run_id": f"{run_id}-rep{index}",
        "spans": str(rep / "spans.json"),
        "result": str(rep / "result.json"),
    }
    (rep / "job.json").write_text(json.dumps(job), encoding="utf-8")
    with (rep / "child.log").open("w") as log:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(rep / "job.json")],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=child_env(),
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise Failure(f"repetition {index} timed out") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        tail = (rep / "child.log").read_text(errors="replace")[-2000:]
        raise Failure(f"repetition {index} exited with {code}:\n{tail}")
    result = json.loads((rep / "result.json").read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - started
    result.update(workload.after(rep))
    bad_codes = [c for c in result["exit_codes"] if c != 0]
    if bad_codes:
        result["problems"].append(f"commands exited with {result['exit_codes']}")
    if traced:
        result["layers"] = layer_metrics(rep / "spans.json", result["notes"])
        result["layers"]["gateway.cache_dir_mb"] = result["cache_dir_mb"]
        backend_calls = result["layers"]["gateway.backend_calls"]
        if result["served"] is not None and result["served"] != backend_calls:
            result["problems"].append(
                f"endpoint served {result['served']} completions, "
                f"traced {backend_calls} backend calls"
            )
    return result


def measure(name: str, seed: int, seconds: float, trace: bool, demo: corpus.Demo):
    """Run one workload for ``seconds``; return (correct, attempted, failed, metrics)."""
    workload = WORKLOADS[name]()
    work = ROOT / ".perfbench_work" / f"{name}-s{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    reps: list = []
    try:
        workload.prepare(demo, work, seed)
        print(f"{name}: {workload.describe()}", file=sys.stderr)
        began = time.monotonic()
        while len(reps) < MAX_REPS:
            traced = trace and len(reps) % 2 == 1
            reps.append(run_rep(workload, work, len(reps), traced, f"{name}-s{seed}"))
            done = len(reps) >= (2 * MIN_TRACED_REPS if trace else MIN_REPS)
            if done and time.monotonic() - began >= seconds:
                break
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
    for notice in dict.fromkeys(n for r in reps for n in r["notices"]):
        print(f"{name}: tracing: {notice}", file=sys.stderr)
    problems = [p for r in reps for p in r["problems"]]
    for p in dict.fromkeys(problems):
        print(f"{name}: CHECK FAILED: {p}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in reps)
    failed = attempted if problems else 0
    plain = [r for r in reps if "layers" not in r]
    traced_reps = [r for r in reps if "layers" in r]

    def median(key, rows=plain):
        return statistics.median(r[key] for r in rows)

    if not trace:
        metrics = {
            "wall_s": median("wall_s"),
            "peak_rss_mb": median("peak_rss_mb"),
            "disk_mb": median("disk_mb"),
            "setup_s": median("setup_s"),
            "success_ratio": 1.0 - failed / attempted,
        }
    else:
        metrics = {
            key: statistics.median(r["layers"][key] for r in traced_reps)
            for key in traced_reps[0]["layers"]
        }
        metrics["process.cpu_s"] = median("cpu_s")
        metrics["tracing.overhead_s"] = median("wall_s", traced_reps) - median("wall_s")
    return not problems, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that started processes are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "pheno_mine" / "cli.py").is_file():
        print(f"error: no pheno_mine source tree under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    demo = corpus.load_demo(DATA)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            ok, tried, bad, values = measure(name, args.seed, args.seconds, bool(args.trace), demo)
        except Failure as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        if set(values) != set(units):
            mismatch = sorted(set(values) ^ set(units))
            raise SystemExit(f"metrics {mismatch} do not match BENCHMARK.json")
        for key, value in values.items():
            print(f"{name}  {key} = {value:.6g} {units[key]}", file=sys.stderr)
        correct, attempted, failed = correct and ok, attempted + tried, failed + bad
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update(
            {prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()}
        )
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
