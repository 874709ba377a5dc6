"""Cohort contingency tables and chi-square tests of independence.

Contingency rows are presence/absence of a phenotype category (a note is
"present" when any phenotype in the category was extracted); columns are
cohorts. The overall test uses the full 2x3 table, pairwise tests use 2x2
tables with the Yates continuity correction.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

from .artifacts import csv_artifact, read_csv_rows
from .errors import DegenerateTableError, ParameterError, StatsError
from .features import FeatureMatrix

logger = logging.getLogger(__name__)

DEFAULT_COHORTS = ("CN", "MCI", "ADRD")
PAIRWISE_COMPARISONS = (
    ("CN vs. MCI", ("CN", "MCI")),
    ("CN vs. ADRD", ("CN", "ADRD")),
    ("MCI vs. ADRD", ("MCI", "ADRD")),
)


# ---------------------------------------------------------------------------
# Chi-square survival function (upper tail), hand-built on the regularized
# incomplete gamma function so the runtime has no heavyweight numerics
# dependency; tests cross-check it against an independent integration oracle.


def _lower_gamma_series(s: float, z: float) -> float:
    """Regularized lower incomplete gamma P(s, z) via its power series.

    Converges quickly for z < s + 1.
    """
    term = 1.0 / s
    total = term
    k = s
    for _ in range(1000):
        k += 1.0
        term *= z / k
        total += term
        if abs(term) < abs(total) * 1e-17:
            break
    return total * math.exp(-z + s * math.log(z) - math.lgamma(s))


def _upper_gamma_cf(s: float, z: float) -> float:
    """Regularized upper incomplete gamma Q(s, z) via a continued fraction
    (modified Lentz), stable for z >= s + 1."""
    tiny = 1e-300
    b = z + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, 1000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return h * math.exp(-z + s * math.log(z) - math.lgamma(s))


def chi2_survival(x: float, df: int) -> float:
    """P(X >= x) for a chi-square variable with df degrees of freedom.

    Closed forms for df = 1 (erfc) and df = 2 (exp) keep the common cases
    exact; other df go through the regularized incomplete gamma function.
    """
    if df < 1 or int(df) != df:
        raise ParameterError(f"degrees of freedom must be a positive integer, got {df}")
    if not math.isfinite(x) or x < 0:
        raise ParameterError(f"chi-square statistic must be finite and >= 0, got {x}")
    if x == 0:
        return 1.0
    if df == 2:
        return math.exp(-x / 2.0)
    if df == 1:
        return math.erfc(math.sqrt(x / 2.0))
    s = df / 2.0
    z = x / 2.0
    if z < s + 1.0:
        return min(1.0, max(0.0, 1.0 - _lower_gamma_series(s, z)))
    return min(1.0, max(0.0, _upper_gamma_cf(s, z)))


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


def build_contingency(
    matrix: FeatureMatrix,
    category: str,
    cohorts: tuple = DEFAULT_COHORTS,
    granularity: str = "category",
) -> ContingencyTable:
    """Presence/absence cells per cohort from the feature matrix.

    Category granularity counts a note as present when any column of the
    category is 1; phenotype granularity takes `category` as a single column
    key (or unambiguous phenotype id) and uses that column alone.
    """
    if granularity not in ("category", "phenotype"):
        raise ParameterError(f"granularity must be category or phenotype, got {granularity!r}")
    if not 2 <= len(cohorts) <= 3:
        raise StatsError(f"need 2 or 3 cohorts, got {cohorts!r}")
    if granularity == "category":
        groups = matrix.category_groups()
        hits = [
            idx
            for (namespace, name), idx in groups.items()
            if name == category or f"{namespace}:{name}" == category
        ]
        if not hits:
            known = sorted(f"{ns}:{name}" for ns, name in groups)
            raise StatsError(f"unknown category {category!r}; known: {', '.join(known)}")
        if len(hits) > 1:
            raise StatsError(
                f"category name {category!r} is ambiguous; qualify it as namespace:name"
            )
        column_indices = hits[0]
    else:
        hits = [
            c.index
            for c in matrix.columns
            if c.key == category or c.phenotype_id == category
        ]
        if not hits:
            raise StatsError(f"unknown phenotype column {category!r}")
        if len(hits) > 1:
            raise StatsError(
                f"phenotype id {category!r} is ambiguous; use the full column key"
            )
        column_indices = hits
    present_counts = []
    absent_counts = []
    for cohort in cohorts:
        rows = matrix.rows_for_cohort(cohort)
        if rows.size == 0:
            raise StatsError(f"cohort {cohort!r} has no rows in the matrix")
        block = matrix.data[rows][:, column_indices]
        present = int((block.max(axis=1) > 0).sum())
        present_counts.append(present)
        absent_counts.append(int(rows.size) - present)
    return ContingencyTable(
        row_labels=("present", "absent"),
        col_labels=tuple(cohorts),
        cells=(tuple(present_counts), tuple(absent_counts)),
    )


# ---------------------------------------------------------------------------
# Transcribed count fixtures (per-category totals and "none" counts)


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


# ---------------------------------------------------------------------------
# Whole-table analysis


@dataclass
class CategoryStats:
    list_id: str
    category: str
    # comparison name -> ChiSquareResult, or a string reason when untestable
    results: dict


@dataclass
class StatsReport:
    granularity: str
    yates: str
    rows: list  # list[CategoryStats]


def _analyze_tables(
    tables: "list[tuple[str, str, dict]]", yates: str, granularity: str
) -> StatsReport:
    """tables: (list_id, category, {comparison name -> ContingencyTable})."""
    report_rows = []
    for list_id, category, comparisons in tables:
        results: dict = {}
        for name, table in comparisons.items():
            try:
                results[name] = chi_square_test(table, yates=yates)
            except DegenerateTableError as exc:
                logger.warning("%s / %s: %s", category, name, exc)
                results[name] = f"untestable ({exc.margin})"
        report_rows.append(CategoryStats(list_id=list_id, category=category, results=results))
    return StatsReport(granularity=granularity, yates=yates, rows=report_rows)


def analyze_matrix(
    matrix: FeatureMatrix,
    yates: str = "auto",
    granularity: str = "category",
    cohorts: tuple = DEFAULT_COHORTS,
) -> StatsReport:
    present_cohorts = set(matrix.cohorts)
    missing = [c for c in cohorts if c not in present_cohorts]
    if missing:
        raise StatsError(f"matrix is missing cohort(s): {', '.join(missing)}")
    tables = []
    if granularity == "category":
        subjects = [
            (namespace, name, f"{namespace}:{name}")
            for (namespace, name) in matrix.category_groups()
        ]
    else:
        subjects = [(c.list_id, c.key, c.key) for c in matrix.columns]
    for namespace, display, selector in subjects:
        comparisons = {"Overall": build_contingency(matrix, selector, cohorts, granularity)}
        for name, pair in PAIRWISE_COMPARISONS:
            comparisons[name] = build_contingency(matrix, selector, pair, granularity)
        tables.append((namespace, display, comparisons))
    return _analyze_tables(tables, yates, granularity)


def analyze_fixture(
    counts: "list[CategoryCounts]",
    yates: str = "auto",
    cohorts: tuple = DEFAULT_COHORTS,
) -> StatsReport:
    for cc in counts:
        missing = [c for c in cohorts if c not in cc.totals]
        if missing:
            raise StatsError(
                f"fixture category {cc.category!r} is missing cohort(s): {', '.join(missing)}"
            )
    tables = []
    for cc in counts:
        comparisons = {"Overall": cc.contingency(cohorts)}
        for name, pair in PAIRWISE_COMPARISONS:
            comparisons[name] = cc.contingency(pair)
        tables.append((cc.list_id, cc.category, comparisons))
    return _analyze_tables(tables, yates, "category")


# ---------------------------------------------------------------------------
# Report rendering


def _format_cell(result) -> str:
    if isinstance(result, str):
        return "-"
    if result.p_value < 0.05:
        return result.stars
    return f"{result.p_value:.3f}"


def format_stats_table(report: StatsReport) -> str:
    """Text table: stars for significant cells, raw p-values otherwise."""
    comparisons = ["Overall"] + [name for name, _ in PAIRWISE_COMPARISONS]
    header = ["Category"] + comparisons
    lines = []
    by_list: dict[str, list[CategoryStats]] = {}
    for row in report.rows:
        by_list.setdefault(row.list_id, []).append(row)
    for list_id, rows in by_list.items():
        lines.append(f"[{list_id}]")
        widths = [max(len(header[0]), max(len(r.category) for r in rows))]
        widths += [max(len(name), 6) for name in comparisons]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            cells = [row.category.ljust(widths[0])]
            for j, name in enumerate(comparisons, start=1):
                cells.append(_format_cell(row.results.get(name, "-")).ljust(widths[j]))
            lines.append("  ".join(cells).rstrip())
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def write_stats_csv(report: StatsReport, path: str | Path, provenance: dict | None = None):
    with csv_artifact(path, provenance) as writer:
        writer.writerow(
            ["list", "category", "comparison", "statistic", "df", "p_value", "yates", "stars"]
        )
        comparisons = ["Overall"] + [name for name, _ in PAIRWISE_COMPARISONS]
        for row in report.rows:
            for name in comparisons:
                result = row.results.get(name)
                if result is None:
                    continue
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
