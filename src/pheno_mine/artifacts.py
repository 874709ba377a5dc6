"""Every file the package reads or writes: inputs, checked as they are read,
artifacts, each replaced whole, and the response cache's store."""

from __future__ import annotations

import csv
import json
import logging
import os
import re
import threading
from contextlib import contextmanager
from importlib import resources
from itertools import chain, zip_longest
from pathlib import Path

from .errors import ConfigError

logger = logging.getLogger(__name__)

PROVENANCE_PREFIX = "# provenance: "
# WAL lets readers run beside the one writer and, at synchronous=NORMAL, a
# commit needs no sync. Lookups are random point reads by hash, so a larger
# page cache than 256 KiB only costs memory.
STORE_SETUP = """PRAGMA journal_mode=WAL; PRAGMA synchronous=NORMAL; PRAGMA cache_size=-256;
CREATE TABLE IF NOT EXISTS reply(key BLOB PRIMARY KEY, text TEXT NOT NULL) WITHOUT ROWID"""
GET_REPLIES = "SELECT key, text FROM reply WHERE key IN ({})"
PUT_REPLY = "INSERT OR REPLACE INTO reply VALUES (?, ?)"
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
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        temp.unlink(missing_ok=True)


def artifact_dir(path: str | Path) -> Path:
    """The artifact directory ``path``, made with its parents if missing."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return Path(path)


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


def data_path(name: str) -> Path:
    """Filesystem path of a bundled data file."""
    return Path(str(resources.files("pheno_mine.data").joinpath(name)))


def read_lines(path: str | Path, error: type, newline: str | None = None):
    """Yield ``(line number, line)`` of a UTF-8 file, one line at a time.

    A file that cannot be opened or decoded raises ``error``. JSONL keeps the
    default ``newline``: ``newline=""`` iterates a large file about 3x slower.
    """
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield from enumerate(fh, start=1)
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def read_text(path: str | Path, error: type, newline: str | None = None) -> str:
    return "".join(line for _, line in read_lines(path, error, newline))


def parse_json(text: str):
    """``json.loads``, with a ``ValueError`` for every way ``text`` can fail: nesting too
    deep to decode, and a ``\\u`` escape of a lone surrogate, which UTF-8 cannot encode."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("nested too deeply") from None
    # Only a surrogate's escape puts one in text read from UTF-8; the backslash test runs
    # at memchr speed and spares the search most lines.
    if "\\" in text and re.search(r"\\u[dD][89a-fA-F]", text):
        try:
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("a \\u escape decodes to a lone surrogate") from None
    return doc


def read_json(path: str | Path, error: type):
    try:
        return parse_json(read_text(path, error))
    except ValueError as exc:
        raise error(f"{path}: invalid JSON: {exc}") from exc


def read_csv(path: str | Path, error: type, what: str, columns: tuple):
    """Yield ``(line number, fields)`` per non-blank record of a UTF-8 CSV file, header first.

    A record's number is the line it starts on; a provenance line is skipped.
    A header without all of ``columns``, or no header, raises ``error``, as
    does a record the csv module refuses, such as a field over its size limit.
    """
    lines = read_lines(path, error, newline="")
    first = next(lines, (1, ""))  # an empty file reads as a blank line: no header
    skipped = first[1].startswith(PROVENANCE_PREFIX)
    reader = csv.reader(line for _, line in (lines if skipped else chain([first], lines)))
    while True:
        start = reader.line_num + 1 + skipped
        try:
            fields = next(reader, None)
        except csv.Error as exc:
            raise error(f"{path}:{start}: {exc}") from exc
        if start == 1 + skipped and not set(columns).issubset(fields or ()):
            raise error(f"{path}: {what} must have columns {','.join(columns)}")
        if fields is None:
            return
        if fields:
            yield start, fields


def read_csv_rows(path: str | Path, error: type, what: str, columns: tuple):
    """Yield ``(line number, {column: field})`` per record; a short record's
    missing fields are None."""
    records = read_csv(path, error, what, columns)
    _, header = next(records)
    for lineno, fields in records:
        yield lineno, dict(zip_longest(header, fields))


class ResponseStore:
    """Reply texts by key digest in one SQLite file, shared by threads and by processes.

    One query reads a list of keys; each ``put`` is its own transaction. One connection
    serves every thread, behind a lock. The last ``close`` checkpoints the log and removes
    the -wal and -shm files. It reads only the ``reply`` table: an earlier format's
    ``response`` table or JSON file per entry stays on disk unread, as no key of today can
    hit its rows.
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
        self._warned: set[bytes] = set()  # corrupt entries warned about once, until rewritten

    def get(self, keys: list) -> list:
        """The text stored under each key digest, in order: None for a miss or a corrupt entry."""
        with self._lock:
            found = dict(self._db.execute(GET_REPLIES.format(",".join("?" * len(keys))), keys))
            for digest, text in found.items():
                if not isinstance(text, str):  # only a BLOB gets past TEXT affinity
                    if digest not in self._warned:
                        self._warned.add(digest)
                        logger.warning("ignoring corrupt cache entry %s", digest.hex())
                    found[digest] = None
        return [found.get(key) for key in keys]

    def put(self, key: bytes, text: str):
        with self._lock:
            self._db.execute(PUT_REPLY, (key, text))
            self._warned.discard(key)

    def close(self):
        with self._lock:
            self._db.close()

