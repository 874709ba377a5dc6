"""Binary note-by-phenotype feature matrix and its CSV serialization."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import csv_artifact, read_csv
from .errors import MatrixError
from .schema import FeatureColumn, parse_column_key


@dataclass
class FeatureMatrix:
    """Rows are notes, columns are namespaced phenotypes, cells are 0/1."""

    note_ids: list
    cohorts: list
    columns: list  # list[FeatureColumn]
    data: np.ndarray  # shape (len(note_ids), len(columns)), values in {0,1}

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.int8)
        if self.data.ndim != 2:
            raise MatrixError(f"feature data must be 2-dimensional, got shape {self.data.shape}")
        rows, cols = self.data.shape
        if rows != len(self.note_ids):
            raise MatrixError(
                f"{len(self.note_ids)} note ids but {rows} data rows"
            )
        if len(self.cohorts) != len(self.note_ids):
            raise MatrixError(
                f"{len(self.note_ids)} note ids but {len(self.cohorts)} cohort labels"
            )
        if cols != len(self.columns):
            raise MatrixError(f"{len(self.columns)} columns declared but {cols} data columns")
        if self.data.size and not np.isin(self.data, (0, 1)).all():
            raise MatrixError("feature cells must be 0 or 1")

    @property
    def shape(self) -> tuple:
        return self.data.shape

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
                writer.writerow([note_id, self.cohorts[i]] + self.data[i].tolist())

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
            rows.append(row[2:])
        data = np.array(rows, dtype=np.int8) if rows else np.zeros((0, len(columns)), dtype=np.int8)
        return cls(note_ids=note_ids, cohorts=cohorts, columns=columns, data=data)
