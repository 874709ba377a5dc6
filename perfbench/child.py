"""One measured repetition of a workload, in a fresh process.

Usage: ``python3 child.py JOB.json``. The job names the package's source
directory, the warm-up commands, the timed commands and whether to trace.
The process imports pheno_mine, runs the warm-up (a one-note run of the same
command), then runs the timed commands through the public click entry point,
and writes a result JSON file:

- ``ready``: ``time.monotonic()`` when set-up ended; the parent took the
  same clock just before starting this process, so the difference is the
  set-up time from process start;
- ``wall_s``: from the first timed command's start to the last one's end;
- ``cpu_s``: process CPU time, all threads, over the same interval;
- ``peak_rss_mb``: ``ru_maxrss`` of this process;
- ``exit_codes``: one per timed command;
- ``notices``: what a traced run could not trace.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def invoke(main, args: list) -> int:
    """Run one CLI command in-process and return its exit code."""
    import click

    try:
        main.main(args=args, prog_name="pheno-mine", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    return 0


def run(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    from pheno_mine.cli import main

    for args in job["warmup"]:
        if invoke(main, args) != 0:
            raise SystemExit(f"warm-up command failed: {args}")
    ready = time.monotonic()
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer(job["run_id"])
        tracer.install()
    codes = []
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    for args in job["commands"]:
        if tracer is None:
            codes.append(invoke(main, args))
        else:
            with tracer.span(f"cli.{args[0]}"):
                codes.append(invoke(main, args))
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    if tracer is not None:
        tracer.write(job["spans"])
    return {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "exit_codes": codes,
        "notices": tracer.notices if tracer is not None else [],
    }


if __name__ == "__main__":
    job_path = Path(sys.argv[1])
    job = json.loads(job_path.read_text(encoding="utf-8"))
    result = run(job)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
