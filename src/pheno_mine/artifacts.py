"""Every file the package writes: artifacts, each replaced whole, and the response cache's store."""

from __future__ import annotations

import csv
import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path

from .errors import ConfigError

PROVENANCE_PREFIX = "# provenance: "
# WAL lets readers run beside the one writer and, at synchronous=NORMAL, a
# commit needs no sync. Lookups are random point reads by hash, so a larger
# page cache than 256 KiB only costs memory.
STORE_SETUP = """PRAGMA journal_mode=WAL; PRAGMA synchronous=NORMAL; PRAGMA cache_size=-256;
CREATE TABLE IF NOT EXISTS response(key TEXT PRIMARY KEY, doc TEXT NOT NULL) WITHOUT ROWID"""
LOCK_WAIT_S = 60.0  # how long a statement waits for another connection's lock


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


class ResponseStore:
    """Documents by key in one SQLite file, shared by threads and by processes.

    Each ``put`` is its own transaction; one connection serves every thread, behind
    a lock. The last ``close`` checkpoints the log and removes the -wal and -shm files.
    """

    def __init__(self, path: str | Path):
        import sqlite3  # loaded only by runs that keep a cache

        self._lock = threading.Lock()
        db = None
        try:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            db = sqlite3.connect(path, LOCK_WAIT_S, isolation_level=None, check_same_thread=False)
            db.executescript(STORE_SETUP)
        except (OSError, sqlite3.Error) as exc:
            if db is not None:
                db.close()
            raise ConfigError(f"cannot open the response cache {path}: {exc}") from exc
        self._db = db

    def get(self, key: str) -> str | None:
        with self._lock:
            row = self._db.execute("SELECT doc FROM response WHERE key = ?", (key,)).fetchone()
        return row[0] if row else None

    def put(self, key: str, doc: str):
        with self._lock:
            self._db.execute("INSERT OR REPLACE INTO response VALUES (?, ?)", (key, doc))

    def close(self):
        with self._lock:
            self._db.close()
