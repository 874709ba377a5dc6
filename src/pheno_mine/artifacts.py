"""CSV artifacts headed by a ``# provenance: {json}`` comment line."""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def csv_artifact(path: str | Path, provenance: dict | None = None):
    """Open ``path`` for writing, write its provenance line, and yield a ``csv.writer``."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        if provenance:
            fh.write(f"# provenance: {json.dumps(provenance, sort_keys=True)}\n")
        yield csv.writer(fh)


def read_csv_lines(path: str | Path) -> list:
    """The lines of a CSV artifact, without its ``#`` comment lines."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        return [ln for ln in fh if not ln.startswith("#")]
