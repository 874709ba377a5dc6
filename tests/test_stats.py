import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats as scipy_stats

from oracles import chi2_sf_quad, chi2_stat_oracle, matrix_counts_oracle
from pheno_mine.cli import data_path
from pheno_mine.errors import DegenerateTableError, ParameterError, StatsError
from pheno_mine.features import FeatureMatrix
from pheno_mine.schema import FeatureColumn, builtin_list, feature_index
from pheno_mine.stats import (
    CategoryCounts,
    ContingencyTable,
    analyze_fixture,
    analyze_matrix,
    chi2_survival,
    chi_square_test,
    format_stats_table,
    load_counts_fixture,
    matrix_counts,
    significance_stars,
    write_stats_csv,
)


# ---------------------------------------------------------------------------
# survival function


def test_sf_closed_form_df2():
    for x in (0.0, 0.5, 1.0, 9.2103, 25.0, 50.0):
        assert chi2_survival(x, 2) == math.exp(-x / 2.0)


def test_sf_closed_form_df1():
    for x in (0.0, 0.1, 1.0, 3.8415, 10.0, 50.0):
        assert chi2_survival(x, 1) == pytest.approx(
            math.erfc(math.sqrt(x / 2.0)), abs=0.0, rel=1e-15
        )


def test_sf_against_scipy_grid():
    xs = [0.0, 1e-6, 0.01, 0.5, 1.0, 2.5, 5.0, 9.2103, 15.0, 25.0, 40.0, 50.0]
    for df in range(1, 11):
        for x in xs:
            assert chi2_survival(x, df) == pytest.approx(
                scipy_stats.chi2.sf(x, df), abs=1e-12
            ), (df, x)


def test_sf_against_integration_grid():
    xs = [0.25, 1.0, 3.0, 7.5, 12.0, 20.0, 33.0, 50.0]
    for df in range(1, 11):
        for x in xs:
            assert chi2_survival(x, df) == pytest.approx(
                chi2_sf_quad(x, df), abs=1e-10
            ), (df, x)


def test_sf_reference_points():
    assert chi2_survival(3.8415, 1) == pytest.approx(0.0500, abs=1e-4)
    assert chi2_survival(9.2103, 2) == pytest.approx(0.01, abs=1e-6)
    assert chi2_survival(0.0, 5) == 1.0


def test_sf_domain_validation():
    with pytest.raises(ParameterError):
        chi2_survival(-0.5, 2)
    with pytest.raises(ParameterError):
        chi2_survival(float("nan"), 2)
    with pytest.raises(ParameterError):
        chi2_survival(1.0, 0)


def test_stars_thresholds():
    assert significance_stars(0.0009) == "***"
    assert significance_stars(0.001) == "**"
    assert significance_stars(0.0099) == "**"
    assert significance_stars(0.01) == "*"
    assert significance_stars(0.049) == "*"
    assert significance_stars(0.05) == "ns"
    assert significance_stars(0.9) == "ns"


# ---------------------------------------------------------------------------
# chi-square test


def t2x2(a, b, c, d):
    return ContingencyTable(
        row_labels=("present", "absent"),
        col_labels=("X", "Y"),
        cells=((a, b), (c, d)),
    )


def t2x3(row1, row2):
    return ContingencyTable(
        row_labels=("present", "absent"),
        col_labels=("CN", "MCI", "ADRD"),
        cells=(tuple(row1), tuple(row2)),
    )


def test_2x2_auto_applies_yates_and_matches_scipy():
    table = t2x2(486, 717, 514, 275)
    result = chi_square_test(table)
    assert result.yates_applied
    stat, df = chi2_stat_oracle(table.cells, correction=0.5)
    assert result.statistic == pytest.approx(stat, rel=1e-12)
    assert result.df == df == 1
    scipy_stat, scipy_p, scipy_df, _ = scipy_stats.chi2_contingency(
        np.array(table.cells), correction=True
    )
    assert result.statistic == pytest.approx(scipy_stat, rel=1e-12)
    assert result.p_value == pytest.approx(scipy_p, rel=1e-10)


def test_2x3_auto_applies_no_correction_and_matches_scipy():
    table = t2x3((961, 965, 984), (39, 27, 16))
    result = chi_square_test(table)
    assert not result.yates_applied
    scipy_stat, scipy_p, scipy_df, _ = scipy_stats.chi2_contingency(
        np.array(table.cells), correction=False
    )
    assert result.statistic == pytest.approx(scipy_stat, rel=1e-12)
    assert result.df == scipy_df == 2
    assert result.p_value == pytest.approx(scipy_p, rel=1e-10)


def test_yates_modes():
    table = t2x2(30, 10, 10, 30)
    auto = chi_square_test(table, yates="auto")
    on = chi_square_test(table, yates="on")
    off = chi_square_test(table, yates="off")
    assert auto.statistic == on.statistic
    assert off.statistic > on.statistic  # correction shrinks the statistic
    stat_plain, _ = chi2_stat_oracle(table.cells, correction=0.0)
    assert off.statistic == pytest.approx(stat_plain, rel=1e-12)
    with pytest.raises(ParameterError):
        chi_square_test(table, yates="sometimes")


def test_yates_on_forces_correction_beyond_2x2_but_auto_does_not():
    # "auto" resolves to exactly the 2x2 case; "on" is an explicit override
    table = t2x3((10, 20, 30), (30, 20, 10))
    auto = chi_square_test(table, yates="auto")
    assert not auto.yates_applied
    forced = chi_square_test(table, yates="on")
    assert forced.yates_applied
    assert forced.statistic == pytest.approx(
        chi2_stat_oracle(((10, 20, 30), (30, 20, 10)), correction=0.5)[0], rel=1e-12
    )
    assert forced.statistic < auto.statistic


def test_yates_deviation_clamped_at_zero():
    # margins make every |O-E| = 0.25 < 0.5, so the corrected statistic is 0
    table = t2x2(25, 24, 25, 26)
    result = chi_square_test(table)
    assert result.yates_applied
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_2x2_uncorrected_equals_two_proportion_z_squared():
    table = t2x2(42, 17, 58, 83)
    result = chi_square_test(table, yates="off")
    n1, n2 = 42 + 58, 17 + 83
    p1, p2 = 42 / n1, 17 / n2
    pooled = (42 + 17) / (n1 + n2)
    z = (p1 - p2) / math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
    assert result.statistic == pytest.approx(z * z, abs=1e-10)


def test_zero_margin_raises_degenerate():
    with pytest.raises(DegenerateTableError) as excinfo:
        chi_square_test(t2x2(0, 0, 50, 60))
    assert "present" in str(excinfo.value)
    with pytest.raises(DegenerateTableError):
        chi_square_test(t2x2(0, 10, 0, 60))


def test_table_validation():
    with pytest.raises(StatsError):
        ContingencyTable(("a",), ("x", "y"), ((1, 2),))
    with pytest.raises(StatsError):
        t2x2(1, 2, 3, -1)
    with pytest.raises(StatsError):
        ContingencyTable(("a", "b"), ("x", "y"), ((1.5, 2), (3, 4)))


# ---------------------------------------------------------------------------
# per-category counts of a matrix


def two_cohort_matrix():
    plist = builtin_list("list1")
    columns = feature_index(plist)
    data = np.zeros((6, len(columns)), dtype=np.int8)
    # Memory Indicators columns are 0 (repeating) and 1 (misplacing)
    data[0, 0] = 1
    data[1, 1] = 1
    data[3, 0] = 1
    data[3, 1] = 1
    return FeatureMatrix(
        note_ids=[f"N{i}" for i in range(6)],
        cohorts=["CN", "CN", "CN", "ADRD", "ADRD", "ADRD"],
        columns=columns,
        rows=[r.tobytes() for r in data],
    )


def test_matrix_counts_category_presence_is_any_column():
    matrix = two_cohort_matrix()
    memory = matrix_counts(matrix)[0]
    assert (memory.list_id, memory.category) == ("list1", "Memory Indicators")
    # CN: notes 0,1 have some memory column set; ADRD: only note 3
    assert memory.totals == {"CN": 3, "ADRD": 3}
    assert memory.nones == {"CN": 1, "ADRD": 2}
    assert memory.contingency(("CN", "ADRD")).cells == ((2, 1), (1, 2))


def test_matrix_counts_phenotype_granularity_counts_each_column():
    matrix = two_cohort_matrix()
    counts = matrix_counts(matrix, granularity="phenotype")
    assert [c.category for c in counts] == matrix.column_keys
    repeating, misplacing = counts[:2]
    assert repeating.category == "list1:Memory Indicators:repeating"
    assert repeating.contingency(("CN", "ADRD")).cells == ((1, 1), (2, 2))
    assert misplacing.contingency(("CN", "ADRD")).cells == ((1, 1), (2, 2))
    with pytest.raises(ParameterError, match="granularity"):
        matrix_counts(matrix, granularity="note")


@st.composite
def labelled_matrices(draw):
    """0/1 matrices over columns whose (namespace, category) groups may interleave."""
    width = draw(st.integers(1, 8))
    columns = [
        FeatureColumn(i, draw(st.sampled_from("ab")), draw(st.sampled_from("XYZ")), f"p{i}")
        for i in range(width)
    ]
    height = draw(st.integers(0, 15))
    cohorts = draw(st.lists(st.sampled_from(["CN", "MCI", "ADRD", "UNLABELED"]),
                            min_size=height, max_size=height))
    data = draw(arrays(np.int8, (height, width), elements=st.integers(0, 1)))
    return FeatureMatrix([f"N{i}" for i in range(height)], cohorts, columns, data)


@settings(max_examples=150, deadline=None)
@given(matrix=labelled_matrices(), granularity=st.sampled_from(["category", "phenotype"]))
def test_matrix_counts_match_note_by_note_oracle(matrix, granularity):
    counts = matrix_counts(matrix, granularity)
    got = [(c.list_id, c.category, c.totals, c.nones) for c in counts]
    assert got == matrix_counts_oracle(matrix, granularity)


# ---------------------------------------------------------------------------
# fixtures and reports


def test_load_counts_fixture_shape():
    counts = load_counts_fixture(data_path("counts_list1.csv"))
    assert len(counts) == 6
    first = counts[0]
    assert first.list_id == "list1"
    assert first.category == "Memory Indicators"
    assert first.totals == {"CN": 1000, "MCI": 992, "ADRD": 1000}
    assert first.nones == {"CN": 514, "MCI": 275, "ADRD": 336}


def test_counts_contingency_is_presence_by_cohort():
    counts = CategoryCounts(
        list_id="x",
        category="C",
        totals={"CN": 10, "MCI": 10, "ADRD": 10},
        nones={"CN": 4, "MCI": 2, "ADRD": 1},
    )
    table = counts.contingency(("CN", "MCI", "ADRD"))
    assert table.cells == ((6, 8, 9), (4, 2, 1))
    with pytest.raises(StatsError, match="missing cohort"):
        counts.contingency(("CN", "XX"))


def test_analyze_fixture_emits_overall_plus_three_pairwise():
    counts = load_counts_fixture(data_path("counts_list1.csv"))
    report = analyze_fixture(counts)
    assert len(report) == 6
    first = report[0]
    assert list(first.results.keys()) == [
        "Overall",
        "CN vs. MCI",
        "CN vs. ADRD",
        "MCI vs. ADRD",
    ]
    overall = first.results["Overall"]
    assert overall.df == 2
    assert not overall.yates_applied
    pair = first.results["CN vs. MCI"]
    assert pair.df == 1
    assert pair.yates_applied


def test_analyze_matrix_requires_all_three_cohorts():
    matrix = two_cohort_matrix()
    with pytest.raises(StatsError, match="MCI"):
        analyze_matrix(matrix)


def test_degenerate_cells_become_untestable_strings(combined):
    columns = feature_index(combined)
    data = np.zeros((3, len(columns)), dtype=np.int8)
    matrix = FeatureMatrix(
        note_ids=["N1", "N2", "N3"],
        cohorts=["CN", "MCI", "ADRD"],
        columns=columns,
        rows=[r.tobytes() for r in data],
    )
    report = analyze_matrix(matrix)
    for category in report:
        for cell in category.results.values():
            assert isinstance(cell, str)
            assert cell.startswith("untestable")


def test_report_serialization(tmp_path):
    counts = load_counts_fixture(data_path("counts_list1.csv"))
    report = analyze_fixture(counts)
    text = format_stats_table(report)
    assert "[list1]" in text
    assert "Memory Indicators" in text
    assert "CN vs. MCI" in text
    out = tmp_path / "stats.csv"
    write_stats_csv(report, out, {"config_hash": "beef", "seed": 0})
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# provenance:")
    assert lines[1] == "list,category,comparison,statistic,df,p_value,yates,stars"
    assert len(lines) == 2 + 6 * 4
