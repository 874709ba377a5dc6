"""Binary note-by-phenotype feature matrix and its CSV serialization."""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .artifacts import csv_artifact, read_csv
from .errors import MatrixError
from .schema import FeatureColumn, parse_column_key

# k-means defaults, kept here so that the CLI can declare its options without loading numpy
DEFAULT_RESTARTS = 10
DEFAULT_MAX_ITER = 300
DEFAULT_TOL = 1e-4


@dataclass
class FeatureMatrix:
    """Rows are notes, columns are namespaced phenotypes, cells are 0/1."""

    note_ids: list
    cohorts: list
    columns: list  # list[FeatureColumn]
    rows: list  # one bytes per note, one byte (0 or 1) per column

    def __post_init__(self):
        self.rows = [bytes(row) for row in self.rows]
        if len(self.rows) != len(self.note_ids):
            raise MatrixError(f"{len(self.note_ids)} note ids but {len(self.rows)} data rows")
        if len(self.cohorts) != len(self.note_ids):
            raise MatrixError(
                f"{len(self.note_ids)} note ids but {len(self.cohorts)} cohort labels"
            )
        for row in self.rows:
            if len(row) != len(self.columns):
                raise MatrixError(f"{len(self.columns)} columns declared but {len(row)} data columns")
            if row.translate(None, b"\x00\x01"):
                raise MatrixError("feature cells must be 0 or 1")

    @functools.cached_property
    def data(self):
        """The cells as a read-only int8 numpy array of this shape; the first call loads numpy."""
        import numpy as np

        return np.frombuffer(b"".join(self.rows), np.int8).reshape(self.shape)

    @property
    def shape(self) -> tuple:
        return len(self.rows), len(self.columns)

    @property
    def column_keys(self) -> list:
        return [c.key for c in self.columns]

    def category_groups(self) -> "dict[tuple[str, str], list[int]]":
        """Column indices grouped by (namespace, category), in column order."""
        groups: dict[tuple[str, str], list[int]] = {}
        for col in self.columns:
            groups.setdefault((col.list_id, col.category), []).append(col.index)
        return groups

    def to_csv(self, path: str | Path, provenance: dict | None = None):
        with csv_artifact(path, provenance) as writer:
            writer.writerow(["note_id", "cohort"] + self.column_keys)
            for i, note_id in enumerate(self.note_ids):
                writer.writerow([note_id, self.cohorts[i]] + list(self.rows[i]))

    @classmethod
    def from_csv(cls, path: str | Path) -> "FeatureMatrix":
        records = read_csv(path, MatrixError, "feature matrix", ("note_id", "cohort"))
        _, header = next(records)
        if header[:2] != ["note_id", "cohort"]:
            raise MatrixError(f"{path}: header must start with note_id,cohort")
        repeated = [key for key, n in Counter(header).items() if n > 1]
        if repeated:
            raise MatrixError(f"{path}: column {repeated[0]!r} appears more than once")
        columns = []
        for i, key in enumerate(header[2:]):
            namespace, category, pid = parse_column_key(key)
            columns.append(
                FeatureColumn(index=i, list_id=namespace, category=category, phenotype_id=pid)
            )
        note_ids, cohorts, rows = [], [], []
        for lineno, row in records:
            if len(row) != len(header):
                raise MatrixError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            note_ids.append(row[0])
            cohorts.append(row[1])
            if not set(row[2:]) <= {"0", "1"}:
                raise MatrixError(f"{path}:{lineno}: feature cells must be 0 or 1")
            rows.append(bytes(cell == "1" for cell in row[2:]))
        return cls(note_ids=note_ids, cohorts=cohorts, columns=columns, rows=rows)
