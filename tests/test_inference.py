"""Tests for the count layer and the common-direction modification test."""

import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from concord.agreement import Direction, StratifiedRisks, modification_direction
from concord.errors import DegenerateCell, InputValidationError
from concord.inference import (
    CellCount,
    CountTable,
    RRREstimate,
    estimate_rrr,
    from_counts,
    modification_test,
)

# aliased so pytest does not try to collect them as test classes
from concord.inference import TestDirection as Call
from concord.inference import TestVerdict as Verdict
from concord.measures import MeasureKind

cell_counts = st.integers(min_value=1, max_value=199).flatmap(
    lambda events: st.integers(min_value=events + 1, max_value=400).map(
        lambda total: CellCount(events, total)
    )
)
tables = st.builds(CountTable, cell_counts, cell_counts, cell_counts, cell_counts)


def table_from_risks(p1, p2, p3, p4, n):
    return CountTable.from_ints(
        [(round(p1 * n), n), (round(p2 * n), n), (round(p3 * n), n), (round(p4 * n), n)]
    )


# ---------------------------------------------------------------------------
# counts


def test_cell_count_validation():
    with pytest.raises(InputValidationError):
        CellCount(5, 0)
    with pytest.raises(InputValidationError):
        CellCount(-1, 10)
    with pytest.raises(InputValidationError):
        CellCount(11, 10)
    assert CellCount(0, 10).risk() == 0.0
    assert CellCount(10, 10).risk() == 1.0


def test_cell_count_total_is_at_most_2_53():
    # every count up to 2**53 is an exact float; 2**53 + 1 is not
    assert CellCount(2**53, 2**53).risk(corrected=True) == 1.0
    with pytest.raises(InputValidationError, match=r"2\*\*53"):
        CellCount(1, 2**53 + 1)


def test_corrected_risk():
    assert CellCount(0, 50).risk(corrected=True) == pytest.approx(0.5 / 51)
    assert CellCount(50, 50).risk(corrected=True) == pytest.approx(50.5 / 51)
    assert CellCount(7, 100).risk(corrected=True) == pytest.approx(7.5 / 101)


def test_count_table_from_ints():
    table = CountTable.from_ints([(7, 100), (15, 100), (20, 100), (35, 100)])
    assert table.risks() == (0.07, 0.15, 0.20, 0.35)
    assert table.cells[0] == CellCount(7, 100)
    with pytest.raises(InputValidationError):
        CountTable.from_ints([(7, 100), (15, 100)])


def test_from_counts_builds_strata():
    table = CountTable.from_ints([(7, 100), (15, 100), (20, 100), (35, 100)])
    strata = from_counts(table)
    assert isinstance(strata, StratifiedRisks)
    assert (strata.p1, strata.p2, strata.p3, strata.p4) == (0.07, 0.15, 0.20, 0.35)


def test_from_counts_rejects_degenerate_cells():
    table = CountTable.from_ints([(0, 50), (15, 100), (20, 100), (35, 100)])
    with pytest.raises(DegenerateCell, match="correct_degenerate"):
        from_counts(table)
    strata = from_counts(table, correct_degenerate=True)
    assert strata.p1 == pytest.approx(0.5 / 51)
    assert strata.p2 == pytest.approx(15.5 / 101)


def test_all_events_cell_is_degenerate_too():
    table = CountTable.from_ints([(50, 50), (15, 100), (20, 100), (35, 100)])
    with pytest.raises(DegenerateCell):
        estimate_rrr(table)


# ---------------------------------------------------------------------------
# point estimates and covariance


def test_estimate_matches_hand_computation():
    n = 1000
    table = table_from_risks(0.1, 0.2, 0.2, 0.7, n)
    est = estimate_rrr(table)
    assert est.log_rrr1 == pytest.approx(math.log(4 / 7), abs=1e-12)
    assert est.log_rrr2 == pytest.approx(math.log((0.9 * 0.3) / (0.8 * 0.8)), abs=1e-12)
    # Var1 = sum (1-p)/(n p), Var2 = sum p/(n (1-p)), Cov = sum 1/n
    assert est.covariance[0][0] == pytest.approx((9 + 4 + 4 + 3 / 7) / n)
    assert est.covariance[1][1] == pytest.approx((1 / 9 + 0.25 + 0.25 + 7 / 3) / n)
    assert est.covariance[0][1] == pytest.approx(4 / n)
    assert est.covariance[0][1] == est.covariance[1][0]
    assert est.se1 == pytest.approx(math.sqrt(est.covariance[0][0]))


def test_equal_risks_give_zero_logs():
    table = CountTable.from_ints([(30, 100), (50, 100), (30, 100), (50, 100)])
    est = estimate_rrr(table)
    assert est.log_rrr1 == pytest.approx(0.0, abs=1e-12)
    assert est.log_rrr2 == pytest.approx(0.0, abs=1e-12)


def test_log_rrr_signs_track_population_directions():
    # positive log rrr1 means RR points toward stratum P
    table = table_from_risks(0.1, 0.4, 0.3, 0.5, 1000)
    est = estimate_rrr(table)
    strata = from_counts(table)
    d_rr = modification_direction(strata, MeasureKind.RR)
    d_rr_star = modification_direction(strata, MeasureKind.RR_STAR)
    assert (est.log_rrr1 > 0) == (d_rr is Direction.TOWARD_P)
    assert (est.log_rrr2 > 0) == (d_rr_star is Direction.TOWARD_P)


@given(tables)
def test_covariance_is_positive_semidefinite(table):
    est = estimate_rrr(table)
    (var1, cov), (_, var2) = est.covariance
    assert var1 > 0 and var2 > 0
    # Cauchy-Schwarz makes var1 * var2 >= cov^2 with equality impossible
    # for finite counts; allow last-bit slack anyway
    assert var1 * var2 >= cov**2 * (1 - 1e-12)


def test_covariance_against_simulation_oracle():
    # parametric oracle: simulate hatted risks, compare empirical moments
    rng = np.random.default_rng(2024)
    n, replicates = 500, 100_000
    probs = (0.3, 0.5, 0.4, 0.6)
    draws = rng.binomial(n, np.array(probs)[:, None], size=(4, replicates)) / n
    log_rrr1 = (
        np.log(draws[1]) + np.log(draws[2]) - np.log(draws[0]) - np.log(draws[3])
    )
    log_rrr2 = (
        np.log1p(-draws[0])
        + np.log1p(-draws[3])
        - np.log1p(-draws[1])
        - np.log1p(-draws[2])
    )
    empirical = np.cov(np.vstack([log_rrr1, log_rrr2]))
    est = estimate_rrr(table_from_risks(*probs, n))
    assert est.covariance[0][0] == pytest.approx(empirical[0, 0], rel=0.05)
    assert est.covariance[1][1] == pytest.approx(empirical[1, 1], rel=0.05)
    assert est.covariance[0][1] == pytest.approx(empirical[0, 1], rel=0.05)


# ---------------------------------------------------------------------------
# the test itself


def test_modification_test_rejects_clear_signal():
    verdict = modification_test(table_from_risks(0.1, 0.2, 0.2, 0.7, 5000))
    assert verdict.reject
    assert verdict.direction is Call.BOTH_BELOW  # stratum Q stronger
    assert verdict.alpha == 0.05
    (lo1, hi1), (lo2, hi2) = verdict.region
    assert hi1 < 0.0 and hi2 < 0.0
    assert lo1 < math.log(4 / 7) < hi1


def test_modification_test_direction_above():
    # mirrored table: stratum P now carries the stronger effect
    verdict = modification_test(table_from_risks(0.2, 0.7, 0.1, 0.2, 5000))
    assert verdict.reject
    assert verdict.direction is Call.BOTH_ABOVE


def test_modification_test_accepts_identical_strata():
    verdict = modification_test(
        CountTable.from_ints([(30, 100), (50, 100), (30, 100), (50, 100)])
    )
    assert not verdict.reject
    assert verdict.direction is Call.NONE


def test_modification_test_needs_both_signs():
    # textbook risks where RR and RR* pull apart: no common direction,
    # no sample size can push both intervals to the same side
    verdict = modification_test(table_from_risks(0.7, 0.9, 0.2, 0.3, 100_000))
    assert not verdict.reject
    assert verdict.direction is Call.NONE


def test_alpha_validation():
    table = table_from_risks(0.1, 0.2, 0.2, 0.7, 100)
    for bad in (0.0, 1.0, -0.1, 1.7):
        with pytest.raises(InputValidationError):
            modification_test(table, alpha=bad)


def test_region_uses_quarter_alpha_quantile():
    table = table_from_risks(0.1, 0.2, 0.2, 0.7, 1000)
    est = estimate_rrr(table)
    verdict = modification_test(table, alpha=0.05)
    z = NormalDist().inv_cdf(1 - 0.05 / 4)
    assert z == pytest.approx(2.2414, abs=5e-4)
    assert verdict.region[0][0] == pytest.approx(est.log_rrr1 - z * est.se1)
    assert verdict.region[0][1] == pytest.approx(est.log_rrr1 + z * est.se1)
    assert verdict.region[1][1] == pytest.approx(est.log_rrr2 + z * est.se2)


def test_region_shrinks_as_alpha_grows():
    table = table_from_risks(0.1, 0.2, 0.2, 0.7, 1000)
    est = estimate_rrr(table)
    widths = []
    for alpha in (0.01, 0.05, 0.2, 0.5, 0.9, 0.9999):
        (lo1, hi1), _ = modification_test(table, alpha=alpha).region
        widths.append(hi1 - lo1)
    assert widths == sorted(widths, reverse=True)
    # the alpha -> 1 limit is z at 0.75, not a point: each interval keeps
    # its 1 - alpha/2 >= 1/2 coverage even when the family level vanishes
    z_floor = NormalDist().inv_cdf(0.75)
    assert widths[-1] == pytest.approx(2 * z_floor * est.se1, rel=1e-3)


def test_verdict_invariant():
    with pytest.raises(InputValidationError):
        Verdict(
            reject=True,
            region=((-1.0, -0.5), (-1.0, -0.5)),
            alpha=0.05,
            direction=Call.NONE,
        )


def test_modification_test_degenerate_handling():
    table = CountTable.from_ints([(0, 100), (15, 100), (20, 100), (35, 100)])
    with pytest.raises(DegenerateCell):
        modification_test(table)
    verdict = modification_test(table, correct_degenerate=True)
    assert isinstance(verdict.reject, bool)
