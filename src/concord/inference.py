"""Delta-method test for common-direction effect-measure modification.

Data are a 2x2x2 count table: stratum (P, Q) x group (control, exposed),
each cell holding events out of a total. The test statistics are the two
log relative risk ratios

    log rrr1 = log( (p2 p3) / (p1 p4) )                    RR_P / RR_Q
    log rrr2 = log( ((1-p1)(1-p4)) / ((1-p2)(1-p3)) )      RR*_P / RR*_Q

estimated with hatted risks events/total. Both positive means stratum P
shows the stronger exposure effect on both relative-risk scales; both
negative means stratum Q does. When the two relative risks agree, all six
effect measures agree, so a simultaneous sign call on (rrr1, rrr2) is a
test for modification common to the whole measure family.

Delta-method moments (cells indexed i = 1..4 with risk p_i, size n_i):

    Var(log rrr1) = sum (1 - p_i) / (n_i p_i)
    Var(log rrr2) = sum p_i / (n_i (1 - p_i))
    Cov           = sum 1 / n_i

log rrr1 is a (+/-1)-signed sum of log p_i-hats and log rrr2 the
oppositely signed sum of log(1-p_i)-hats; each cell's Cov(log p-hat,
log(1-p-hat)) is -1/n_i and the opposite sign patterns make every cross
term +1/n_i. The formulas are validated against a parametric simulation
oracle in the test suite.

The simultaneous region is a Bonferroni rectangle: each log rrr gets a
1 - alpha/2 interval (z at 1 - alpha/4), and the null of no common
direction is rejected only when both intervals exclude 0 with the same
sign. The quadrant-membership rejection rule makes a rectangle the
natural (and conservative) region shape; an elliptical region would also
be defensible but is not what this module computes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

from .errors import DegenerateCell, InputValidationError
from .agreement import StratifiedRisks

__all__ = [
    "CellCount",
    "CountTable",
    "RRREstimate",
    "TestDirection",
    "TestVerdict",
    "from_counts",
    "estimate_rrr",
    "modification_test",
]


@dataclass(frozen=True)
class CellCount:
    events: int
    total: int

    def __post_init__(self) -> None:
        # 2**53 is the largest total up to which every count is an exact float
        if not 1 <= self.total <= 2**53:
            raise InputValidationError(
                f"cell total must lie in [1, 2**53], got {self.total}"
            )
        if not 0 <= self.events <= self.total:
            raise InputValidationError(
                f"cell events must lie in [0, total], got {self.events}/{self.total}"
            )

    def risk(self, corrected: bool = False) -> float:
        if corrected:
            return (self.events + 0.5) / (self.total + 1)
        return self.events / self.total


@dataclass(frozen=True)
class CountTable:
    """Counts per (stratum, group) cell, in P-control..Q-exposed order."""

    p_control: CellCount
    p_exposed: CellCount
    q_control: CellCount
    q_exposed: CellCount

    @classmethod
    def from_ints(
        cls, cells: list[tuple[int, int]] | tuple[tuple[int, int], ...]
    ) -> "CountTable":
        if len(cells) != 4:
            raise InputValidationError(
                f"a count table needs exactly 4 (events, total) cells, got {len(cells)}"
            )
        return cls(*[CellCount(events, total) for events, total in cells])

    @property
    def cells(self) -> tuple[CellCount, CellCount, CellCount, CellCount]:
        return (self.p_control, self.p_exposed, self.q_control, self.q_exposed)

    def risks(self, corrected: bool = False) -> tuple[float, float, float, float]:
        return (self.p_control.risk(corrected), self.p_exposed.risk(corrected),
                self.q_control.risk(corrected), self.q_exposed.risk(corrected))


def _checked_risks(
    table: CountTable, correct_degenerate: bool
) -> tuple[float, float, float, float]:
    risks = table.risks(correct_degenerate)
    for name, value in zip(("p1", "p2", "p3", "p4"), risks):
        if value <= 0.0 or value >= 1.0:
            raise DegenerateCell(
                f"estimated risk {name} = {value} leaves the log scale undefined; "
                "pass correct_degenerate=True to apply the 0.5-event correction"
            )
    return risks


def from_counts(table: CountTable, correct_degenerate: bool = False) -> StratifiedRisks:
    """Estimated risks per cell, as stratified risk pairs.

    correct_degenerate opts into the 0.5-events / 1-total adjustment for
    every cell, which keeps zero- and all-event cells usable at the cost
    of a small bias.
    """
    return StratifiedRisks.from_probs(*_checked_risks(table, correct_degenerate))


@dataclass(frozen=True)
class RRREstimate:
    log_rrr1: float
    log_rrr2: float
    covariance: tuple[tuple[float, float], tuple[float, float]]

    @property
    def se1(self) -> float:
        return math.sqrt(self.covariance[0][0])

    @property
    def se2(self) -> float:
        return math.sqrt(self.covariance[1][1])


def estimate_rrr(table: CountTable, correct_degenerate: bool = False) -> RRREstimate:
    """Point estimates and delta-method covariance of the two log RRRs."""
    return _estimate(table, _checked_risks(table, correct_degenerate))


def _estimate(table: CountTable, risks: tuple[float, float, float, float]) -> RRREstimate:
    """estimate_rrr of a table whose risks _checked_risks returned."""
    log_rrr1, log_rrr2, var1, var2, cov = _moments(table, risks)
    return RRREstimate(log_rrr1, log_rrr2, ((var1, cov), (cov, var2)))


def _moments(table: CountTable, risks: tuple[float, ...]) -> tuple[float, ...]:
    """_estimate's log rrr1, log rrr2, two variances and covariance, unboxed."""
    p1, p2, p3, p4 = risks
    n1, n2 = table.p_control.total, table.p_exposed.total
    n3, n4 = table.q_control.total, table.q_exposed.total
    log_rrr1 = math.log(p2) + math.log(p3) - math.log(p1) - math.log(p4)
    log_rrr2 = (
        math.log1p(-p1) + math.log1p(-p4) - math.log1p(-p2) - math.log1p(-p3)
    )
    # the module docstring's sums, as chains of + that round alike on every Python
    var1 = ((1.0 - p1) / (n1 * p1) + (1.0 - p2) / (n2 * p2)
            + (1.0 - p3) / (n3 * p3) + (1.0 - p4) / (n4 * p4))
    var2 = (p1 / (n1 * (1.0 - p1)) + p2 / (n2 * (1.0 - p2))
            + p3 / (n3 * (1.0 - p3)) + p4 / (n4 * (1.0 - p4)))
    cov = 1.0 / n1 + 1.0 / n2 + 1.0 / n3 + 1.0 / n4
    return log_rrr1, log_rrr2, var1, var2, cov


class TestDirection(enum.Enum):
    BOTH_ABOVE = "both_above"  # both RRRs > 1: stratum P stronger
    BOTH_BELOW = "both_below"  # both RRRs < 1: stratum Q stronger
    NONE = "none"


@dataclass(frozen=True)
class TestVerdict:
    reject: bool
    region: tuple[tuple[float, float], tuple[float, float]]  # log-scale intervals
    alpha: float
    direction: TestDirection

    def __post_init__(self) -> None:
        if self.reject and self.direction is _NONE:
            raise InputValidationError("a rejecting verdict must carry a direction")


def modification_test(
    table: CountTable, alpha: float = 0.05, correct_degenerate: bool = False
) -> TestVerdict:
    """Bonferroni-simultaneous sign test on the two log RRRs.

    Rejects when both intervals exclude 0 on the same side; the returned
    region is the pair of log-scale intervals.
    """
    z = _z(alpha)  # a bad alpha is reported before the counts are read
    risks = _checked_risks(table, correct_degenerate)
    log_rrr1, log_rrr2, var1, var2, _ = _moments(table, risks)
    return _sign_verdict(log_rrr1, math.sqrt(var1), log_rrr2, math.sqrt(var2), alpha, z)


_normal_quantile = lru_cache(maxsize=64)(NormalDist().inv_cdf)
_ABOVE, _BELOW, _NONE = TestDirection.BOTH_ABOVE, TestDirection.BOTH_BELOW, TestDirection.NONE


def _z(alpha: float) -> float:
    """The normal quantile at 1 - alpha/4, once alpha is checked."""
    if not 0.0 < alpha < 1.0:
        raise InputValidationError(f"alpha must lie in (0, 1), got {alpha}")
    return _normal_quantile(1.0 - alpha / 4.0)


def _verdict(estimate: RRREstimate, alpha: float, z: float) -> TestVerdict:
    """The test's verdict on an estimate at level alpha, with z = _z(alpha)."""
    return _sign_verdict(
        estimate.log_rrr1, estimate.se1, estimate.log_rrr2, estimate.se2, alpha, z
    )


def _sign_verdict(
    log_rrr1: float, se1: float, log_rrr2: float, se2: float, alpha: float, z: float
) -> TestVerdict:
    """_verdict of the two log RRRs and their standard errors."""
    interval1 = (log_rrr1 - z * se1, log_rrr1 + z * se1)
    interval2 = (log_rrr2 - z * se2, log_rrr2 + z * se2)
    if interval1[0] > 0.0 and interval2[0] > 0.0:
        direction = _ABOVE
    elif interval1[1] < 0.0 and interval2[1] < 0.0:
        direction = _BELOW
    else:
        direction = _NONE
    return TestVerdict(direction is not _NONE, (interval1, interval2), alpha, direction)
