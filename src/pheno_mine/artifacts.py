"""CSV artifacts headed by a ``# provenance: {json}`` comment line."""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def csv_artifact(path: str | Path, provenance: dict | None = None):
    """Yield a ``csv.writer`` for ``path``, headed by its provenance line.

    Rows go to a temp file in the same directory, which replaces ``path``
    only once the block finishes; a block that raises leaves any earlier
    artifact as it was.
    """
    target = Path(path)
    temp = target.with_name(f"{target.name}.tmp.{os.getpid()}")
    try:
        with temp.open("w", newline="", encoding="utf-8") as fh:
            if provenance:
                fh.write(f"# provenance: {json.dumps(provenance, sort_keys=True)}\n")
            yield csv.writer(fh)
        os.replace(temp, target)
    finally:
        temp.unlink(missing_ok=True)


def read_csv_lines(path: str | Path) -> list:
    """The lines of a CSV artifact, without its ``#`` comment lines."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        return [ln for ln in fh if not ln.startswith("#")]
