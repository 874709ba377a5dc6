"""Every file the package writes, each replaced whole; CSVs headed by a provenance line."""

from __future__ import annotations

import csv
import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path

PROVENANCE_PREFIX = "# provenance: "


@contextmanager
def atomic_file(path: str | Path):
    """Yield a UTF-8 text handle, written as given, whose contents replace ``path``.

    The temp file is per process and thread, in the target's directory; a
    block that raises removes it and leaves any earlier ``path`` as it was.
    """
    target = Path(path)
    temp = target.with_name(f"{target.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        with temp.open("w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(temp, target)
    finally:
        temp.unlink(missing_ok=True)


def write_text(path: str | Path, text: str):
    with atomic_file(path) as fh:
        fh.write(text)


def write_json(path: str | Path, document):
    """Indented JSON with sorted keys and a trailing newline."""
    write_text(path, json.dumps(document, indent=2, sort_keys=True) + "\n")


@contextmanager
def csv_artifact(path: str | Path, provenance: dict | None = None):
    """Yield a ``csv.writer`` for ``path``, headed by its provenance line."""
    with atomic_file(path) as fh:
        if provenance:
            fh.write(f"{PROVENANCE_PREFIX}{json.dumps(provenance, sort_keys=True)}\n")
        yield csv.writer(fh)


def read_csv_lines(path: str | Path) -> list:
    """The lines of a CSV artifact without its provenance line; rows may start with ``#``."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    return lines[1:] if lines and lines[0].startswith(PROVENANCE_PREFIX) else lines
