"""Cohort contingency tables and chi-square tests of independence.

Contingency rows are presence/absence of a phenotype category (a note is
"present" when any phenotype in the category was extracted); columns are
the cohorts of ``cohort.COHORTS``. Every table comes from per-category counts,
transcribed in a fixture or counted in a feature matrix. The overall test uses
the full 2x3 table (df 2), pairwise tests use 2x2 tables (df 1) with the Yates
continuity correction; p-values come from a closed-form survival function.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .artifacts import csv_artifact, read_csv_rows
from .cohort import COHORTS
from .errors import DegenerateTableError, ParameterError, StatsError
from .features import FeatureMatrix

logger = logging.getLogger(__name__)

PAIRWISE_COMPARISONS = tuple((f"{a} vs. {b}", (a, b)) for a, b in combinations(COHORTS, 2))
COMPARISONS = ("Overall", *(name for name, _ in PAIRWISE_COMPARISONS))


# ---------------------------------------------------------------------------
# Chi-square survival function (upper tail) in closed form, so the runtime has
# no heavyweight numerics dependency. For an integer df the tail is a finite
# sum (Abramowitz & Stegun 26.4.4-26.4.5); tests cross-check it against scipy
# and an independent integration oracle.


def chi2_survival(x: float, df: int) -> float:
    """P(X >= x) for a chi-square variable with df degrees of freedom.

    With z = x/2, Q(df) = Q(df - 2) + z^(df/2 - 1) e^(-z) / Gamma(df/2), from
    Q(1) = erfc(sqrt(z)) and Q(0) = 0. Each term is taken in log space, so no
    factor overflows or underflows before it is added. df 1 and 2 come out
    exactly as erfc(sqrt(x/2)) and exp(-x/2).
    """
    if df < 1 or int(df) != df:
        raise ParameterError(f"degrees of freedom must be a positive integer, got {df}")
    if not math.isfinite(x) or x < 0:
        raise ParameterError(f"chi-square statistic must be finite and >= 0, got {x}")
    if x == 0:
        return 1.0
    z = x / 2.0
    total = math.erfc(math.sqrt(z)) if df % 2 else 0.0
    power = df / 2.0 - 1.0
    while power >= 0.0:
        total += math.exp(power * math.log(z) - z - math.lgamma(power + 1.0))
        power -= 1.0
    return min(1.0, total)


def significance_stars(p: float) -> str:
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return "ns"


# ---------------------------------------------------------------------------
# Contingency tables


@dataclass(frozen=True)
class ContingencyTable:
    row_labels: tuple  # ("present", "absent")
    col_labels: tuple  # cohort names
    cells: tuple  # tuple of row tuples of int

    def __post_init__(self):
        if len(self.row_labels) < 2 or len(self.col_labels) < 2:
            raise StatsError("contingency table needs at least 2 rows and 2 columns")
        if len(self.cells) != len(self.row_labels):
            raise StatsError("cell rows do not match row labels")
        for row in self.cells:
            if len(row) != len(self.col_labels):
                raise StatsError("cell columns do not match column labels")
            for value in row:
                if not isinstance(value, int) or value < 0:
                    raise StatsError(f"cells must be non-negative integers, got {value!r}")

    @property
    def row_totals(self) -> tuple:
        return tuple(sum(row) for row in self.cells)

    @property
    def col_totals(self) -> tuple:
        return tuple(sum(row[j] for row in self.cells) for j in range(len(self.col_labels)))

    @property
    def grand_total(self) -> int:
        return sum(self.row_totals)


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    df: int
    p_value: float
    yates_applied: bool
    stars: str


def chi_square_test(table: ContingencyTable, yates: str = "auto") -> ChiSquareResult:
    """Pearson chi-square test of independence.

    yates: "auto" applies the continuity correction exactly for 2x2 tables,
    "on" forces it, "off" disables it. The corrected deviation |O-E| - 0.5 is
    clamped at zero so tiny deviations cannot flip sign.
    """
    if yates not in ("auto", "on", "off"):
        raise ParameterError(f"yates must be auto, on, or off; got {yates!r}")
    rows = len(table.row_labels)
    cols = len(table.col_labels)
    row_totals = table.row_totals
    col_totals = table.col_totals
    grand = table.grand_total
    for label, total in zip(table.row_labels, row_totals):
        if total == 0:
            raise DegenerateTableError(
                f"row margin {label!r} is zero; test undefined", margin=f"row:{label}"
            )
    for label, total in zip(table.col_labels, col_totals):
        if total == 0:
            raise DegenerateTableError(
                f"column margin {label!r} is zero; test undefined", margin=f"col:{label}"
            )
    apply_yates = yates == "on" or (yates == "auto" and rows == 2 and cols == 2)
    correction = 0.5 if apply_yates else 0.0
    statistic = 0.0
    for i in range(rows):
        for j in range(cols):
            expected = row_totals[i] * col_totals[j] / grand
            deviation = max(abs(table.cells[i][j] - expected) - correction, 0.0)
            statistic += deviation * deviation / expected
    df = (rows - 1) * (cols - 1)
    p = chi2_survival(statistic, df)
    return ChiSquareResult(
        statistic=statistic,
        df=df,
        p_value=p,
        yates_applied=apply_yates,
        stars=significance_stars(p),
    )


# ---------------------------------------------------------------------------
# Per-category counts: notes per cohort, and notes with no phenotype of the
# category, transcribed in a fixture or counted in a feature matrix


@dataclass(frozen=True)
class CategoryCounts:
    list_id: str
    category: str
    totals: dict  # cohort -> note count
    nones: dict  # cohort -> notes with no phenotype in the category

    def contingency(self, cohorts: tuple) -> ContingencyTable:
        present = []
        absent = []
        for cohort in cohorts:
            if cohort not in self.totals or cohort not in self.nones:
                raise StatsError(
                    f"counts fixture for {self.category!r} is missing cohort {cohort!r}"
                )
            total = self.totals[cohort]
            none = self.nones[cohort]
            if none > total:
                raise StatsError(
                    f"counts fixture for {self.category!r}: n_none {none} exceeds "
                    f"n_total {total} for cohort {cohort}"
                )
            present.append(total - none)
            absent.append(none)
        return ContingencyTable(
            row_labels=("present", "absent"),
            col_labels=tuple(cohorts),
            cells=(tuple(present), tuple(absent)),
        )


def load_counts_fixture(path: str | Path) -> "list[CategoryCounts]":
    """Read a fixture CSV with columns list,category,cohort,n_total,n_none."""
    buckets: dict[tuple[str, str], CategoryCounts] = {}
    columns = ("list", "category", "cohort", "n_total", "n_none")
    for lineno, row in read_csv_rows(path, StatsError, "counts fixture", columns):
        key = (row["list"], row["category"])
        if key not in buckets:
            buckets[key] = CategoryCounts(
                list_id=row["list"], category=row["category"], totals={}, nones={}
            )
        try:
            total = int(row["n_total"])
            none = int(row["n_none"])
        except (TypeError, ValueError) as exc:
            raise StatsError(f"{path}:{lineno}: non-integer count: {exc}") from exc
        if total < 0 or none < 0:
            raise StatsError(f"{path}:{lineno}: counts must be non-negative")
        cohort = row["cohort"]
        if cohort in buckets[key].totals:
            raise StatsError(
                f"{path}:{lineno}: duplicate cohort {cohort!r} for category "
                f"{row['category']!r}"
            )
        buckets[key].totals[cohort] = total
        buckets[key].nones[cohort] = none
    return list(buckets.values())  # in order of first appearance


def matrix_counts(matrix: FeatureMatrix, granularity: str = "category") -> "list[CategoryCounts]":
    """The counts of each subject of ``matrix``, in column order.

    A subject is a (namespace, category) group of columns or, at phenotype
    granularity, one column named by its full key. A note has the subject
    when any of its columns is 1.
    """
    if granularity == "category":
        subjects = [(ns, name, idx) for (ns, name), idx in matrix.category_groups().items()]
    elif granularity == "phenotype":
        subjects = [(c.list_id, c.key, [c.index]) for c in matrix.columns]
    else:
        raise ParameterError(f"granularity must be category or phenotype, got {granularity!r}")
    labels = list(dict.fromkeys(matrix.cohorts))
    in_cohort = np.array(matrix.cohorts, dtype=str)[:, None] == np.array(labels, dtype=str)
    absent = np.empty((matrix.shape[0], len(subjects)), dtype=bool)  # notes x subjects
    for j, (_, _, idx) in enumerate(subjects):
        absent[:, j] = ~matrix.data[:, idx].any(axis=1)
    totals = in_cohort.sum(axis=0).tolist()
    nones = (in_cohort.T.astype(np.int64) @ absent).tolist()  # cohorts x subjects
    return [
        CategoryCounts(ns, name, dict(zip(labels, totals)), {c: n[j] for c, n in zip(labels, nones)})
        for j, (ns, name, _) in enumerate(subjects)
    ]


# ---------------------------------------------------------------------------
# Whole-table analysis


@dataclass
class CategoryStats:
    list_id: str
    category: str
    # comparison name -> ChiSquareResult, or a string reason when untestable
    results: dict


def analyze_matrix(
    matrix: FeatureMatrix, yates: str = "auto", granularity: str = "category"
) -> "list[CategoryStats]":
    if not matrix.columns:
        raise StatsError("matrix has no phenotype column")
    present_cohorts = set(matrix.cohorts)
    missing = [c for c in COHORTS if c not in present_cohorts]
    if missing:
        raise StatsError(f"matrix is missing cohort(s): {', '.join(missing)}")
    return analyze_fixture(matrix_counts(matrix, granularity), yates)


def analyze_fixture(counts: "list[CategoryCounts]", yates: str = "auto") -> "list[CategoryStats]":
    """The overall and the pairwise tests of each category; a table with a zero
    margin is logged and reported as untestable."""
    comparisons = (("Overall", COHORTS), *PAIRWISE_COMPARISONS)
    # every table is built, and so checked, before any test runs
    tables = [(cc, {name: cc.contingency(pair) for name, pair in comparisons}) for cc in counts]
    rows = []
    for cc, by_name in tables:
        results: dict = {}
        for name, table in by_name.items():
            try:
                results[name] = chi_square_test(table, yates=yates)
            except DegenerateTableError as exc:
                logger.warning("%s / %s: %s", cc.category, name, exc)
                results[name] = f"untestable ({exc.margin})"
        rows.append(CategoryStats(list_id=cc.list_id, category=cc.category, results=results))
    return rows


# ---------------------------------------------------------------------------
# Report rendering


def _format_cell(result) -> str:
    if isinstance(result, str):
        return "-"
    if result.p_value < 0.05:
        return result.stars
    return f"{result.p_value:.3f}"


def format_stats_table(report: "list[CategoryStats]") -> str:
    """Text table: stars for significant cells, raw p-values otherwise."""
    header = ["Category", *COMPARISONS]
    lines = []
    by_list: dict[str, list[CategoryStats]] = {}
    for row in report:
        by_list.setdefault(row.list_id, []).append(row)
    for list_id, rows in by_list.items():
        lines.append(f"[{list_id}]")
        widths = [max(len(header[0]), max(len(r.category) for r in rows))]
        widths += [max(len(name), 6) for name in COMPARISONS]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            cells = [row.category.ljust(widths[0])]
            for j, name in enumerate(COMPARISONS, start=1):
                cells.append(_format_cell(row.results[name]).ljust(widths[j]))
            lines.append("  ".join(cells).rstrip())
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def write_stats_csv(report: "list[CategoryStats]", path: str | Path, provenance: dict | None = None):
    with csv_artifact(path, provenance) as writer:
        writer.writerow(
            ["list", "category", "comparison", "statistic", "df", "p_value", "yates", "stars"]
        )
        for row in report:
            for name in COMPARISONS:
                result = row.results[name]
                if isinstance(result, str):
                    writer.writerow([row.list_id, row.category, name, "", "", "", "", result])
                else:
                    writer.writerow(
                        [
                            row.list_id,
                            row.category,
                            name,
                            f"{result.statistic:.6f}",
                            result.df,
                            f"{result.p_value:.6g}",
                            "yates" if result.yates_applied else "none",
                            result.stars,
                        ]
                    )
