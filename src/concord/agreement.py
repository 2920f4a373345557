"""Direction of effect-measure modification and agreement verdicts.

Two strata P and Q each carry a RiskPair. For a measure EM, the direction
of modification is the extended-real comparison of EM across the strata:
TowardQ when EM_Q > EM_P, TowardP when EM_Q < EM_P, Null when they tie.
Within one stratum all six measures sit on the same side of their nulls
(the side of p_exposed - p_control), so this comparison is exactly the
usual "modified in the same direction" notion.

Ties: exact ties between strata are measure-zero events, but floating
arithmetic needs a band, so two values within a relative 1e-9 of each
other (math.isclose) tie; equal infinities tie, and an infinity never
ties a finite value. The Monte Carlo simulator compares exactly instead,
because its draws are continuous: applying the band there changed no
count in 24 runs of 1e6 trials (seeds 0-11, uniform and tent risks) but
made each run about 1.8 times slower on a 2-CPU machine. Outside the
band both paths give the same directions, except where the repair below
changes them.

The band can contradict the gate theorem (RR and RR* agree, so all six
agree): RR can overflow to the same infinity in both strata, or tie
within the band near 1, while two other measures still conflict. When
the banded directions say so, RR and RR* are compared exactly instead,
as rationals by cross-multiplication. If they conflict exactly, their
exact directions stand and the gate does not fire. If they do not, the
theorem proves the other conflict an artifact of rounding, and each
measure that opposes RR and RR* becomes Null (every measure, when both
tie exactly).

Two measures disagree when one points TowardP and the other TowardQ;
Null agrees with everything. A set of measures agrees when no pair inside
it disagrees.

The module also provides critical values of p4, all read from one table
(measures._critical_values): given (p1, p2, p3), the p4 at which each
measure shows no modification. Two measures disagree exactly when the true
p4 lies strictly between their critical values: the disagreement window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import InputValidationError
from .measures import (
    ALL_KINDS,
    MeasureKind,
    RiskPair,
    _critical_values,
    _kind_bit,
    _measures,
    _relative_risks,
    _verdict_row,
    subset_mask,
)

__all__ = [
    "Direction",
    "StratifiedRisks",
    "AgreementReport",
    "CriticalValues",
    "Window",
    "FiredCondition",
    "modification_direction",
    "agree",
    "rr_gate",
    "critical_p4",
    "critical_values",
    "disagreement_window",
    "sufficient_conditions",
]


class Direction(Enum):
    """Which stratum shows the stronger exposure effect on one measure."""

    TOWARD_P = "toward_p"
    TOWARD_Q = "toward_q"
    NULL = "null"

    def agrees_with(self, other: "Direction") -> bool:
        """Null agrees with everything; the two strict directions conflict."""
        if self is Direction.NULL or other is Direction.NULL:
            return True
        return self is other

    @property
    def flipped(self) -> "Direction":
        if self is Direction.TOWARD_P:
            return Direction.TOWARD_Q
        if self is Direction.TOWARD_Q:
            return Direction.TOWARD_P
        return Direction.NULL


_TIE_REL_TOL = 1e-9  # the relative band within which two measures tie


@dataclass(frozen=True)
class StratifiedRisks:
    """The four risks of a two-stratum comparison.

    p1..p4 follow the conventional naming: (p1, p2) are the control and
    exposed risks of stratum P, (p3, p4) those of stratum Q.
    """

    stratum_p: RiskPair
    stratum_q: RiskPair

    @classmethod
    def from_probs(cls, p1: float, p2: float, p3: float, p4: float) -> StratifiedRisks:
        return cls(RiskPair(p1, p2), RiskPair(p3, p4))

    @property
    def p1(self) -> float:
        return self.stratum_p.p_control

    @property
    def p2(self) -> float:
        return self.stratum_p.p_exposed

    @property
    def p3(self) -> float:
        return self.stratum_q.p_control

    @property
    def p4(self) -> float:
        return self.stratum_q.p_exposed

    @property
    def is_strict(self) -> bool:
        return self.stratum_p.is_strict and self.stratum_q.is_strict


def _banded_directions(
    strata: StratifiedRisks, measures: Callable[[RiskPair], tuple] = _measures
) -> tuple[Direction, ...]:
    """Banded float directions of the measures that `measures` gives each stratum.

    The default compares all six in ALL_KINDS order; rr_gate passes
    _gate_pair, which gives the leading two.
    """
    em_p = measures(strata.stratum_p)
    em_q = measures(strata.stratum_q)
    return tuple(
        Direction.NULL
        if math.isclose(p, q, rel_tol=_TIE_REL_TOL)
        else Direction.TOWARD_Q if q > p else Direction.TOWARD_P
        for p, q in zip(em_p, em_q)
    )


def _directions(strata: StratifiedRisks) -> tuple[Direction, ...]:
    """Directions of all six measures, in ALL_KINDS order.

    The banded directions, repaired where they break the gate theorem (see
    the module docstring).
    """
    directions = _banded_directions(strata)
    if (
        Direction.TOWARD_P in directions
        and Direction.TOWARD_Q in directions
        and directions[0].agrees_with(directions[1])
    ):
        return _exact_gate_repair(strata, directions)
    return directions


def _exact_gate_repair(
    strata: StratifiedRisks, directions: tuple[Direction, ...]
) -> tuple[Direction, ...]:
    """Directions that keep the gate theorem when the banded ones break it."""
    p1, p2, p3, p4 = (Fraction(p) for p in (strata.p1, strata.p2, strata.p3, strata.p4))
    # EM_Q > EM_P for a ratio n/d of non-negative parts, including the
    # limits d -> 0, is n_Q * d_P > n_P * d_Q
    d_rr = _exact_direction(p4 * p1, p2 * p3)
    d_rr_star = _exact_direction((1 - p3) * (1 - p2), (1 - p1) * (1 - p4))
    if not d_rr.agrees_with(d_rr_star):
        return (d_rr, d_rr_star, *directions[2:])
    common = d_rr if d_rr is not Direction.NULL else d_rr_star
    return (d_rr, d_rr_star) + tuple(
        d if common is not Direction.NULL and d.agrees_with(common) else Direction.NULL
        for d in directions[2:]
    )


def _exact_direction(q: Fraction, p: Fraction) -> Direction:
    if q == p:
        return Direction.NULL
    return Direction.TOWARD_Q if q > p else Direction.TOWARD_P


def modification_direction(strata: StratifiedRisks, kind: MeasureKind) -> Direction:
    """Compare one measure across the two strata as extended reals."""
    return _directions(strata)[_kind_bit(kind)]


@dataclass(frozen=True)
class AgreementReport:
    """Full agreement analysis of one pair of strata.

    directions maps every kind to its Direction; subset_verdicts holds
    each verdict once, indexed by bitmask (bit i = ALL_KINDS[i]); agrees,
    pair_agrees and subset_agrees read the verdict for all six measures,
    a pair or any subset.
    """

    strata: StratifiedRisks
    directions: Mapping[MeasureKind, Direction]
    subset_verdicts: tuple[bool, ...]
    rr_gate_fired: bool
    fired_conditions: tuple["FiredCondition", ...]

    @property
    def agrees(self) -> bool:
        return self.subset_verdicts[_ALL_SIX_MASK]

    def pair_agrees(self, kind_a: MeasureKind, kind_b: MeasureKind) -> bool:
        return self.subset_verdicts[(1 << _kind_bit(kind_a)) | (1 << _kind_bit(kind_b))]

    def subset_agrees(self, kinds: Iterable[MeasureKind]) -> bool:
        return self.subset_verdicts[subset_mask(kinds)]


_RR_GATE_MASK = subset_mask((MeasureKind.RR, MeasureKind.RR_STAR))
_ALL_SIX_MASK = subset_mask(ALL_KINDS)


def agree(strata: StratifiedRisks) -> AgreementReport:
    """Analyse the agreement of all six measures across the strata.

    The 64 verdicts come from a row cached lazily per direction key (the
    bitmasks toward P and toward Q), so reports with the same key share one
    immutable tuple; the fired conditions are shared constants.
    """
    directions = _directions(strata)
    toward_p = toward_q = 0
    for bit, direction in enumerate(directions):
        if direction is Direction.TOWARD_P:
            toward_p |= 1 << bit
        elif direction is Direction.TOWARD_Q:
            toward_q |= 1 << bit
    verdicts = _verdict_row(toward_p, toward_q)
    fired = sufficient_conditions(strata) if strata.is_strict else ()
    return AgreementReport(
        strata=strata,
        directions=dict(zip(ALL_KINDS, directions)),
        subset_verdicts=verdicts,
        rr_gate_fired=verdicts[_RR_GATE_MASK],
        fired_conditions=fired,
    )


def rr_gate(strata: StratifiedRisks) -> bool:
    """True when the two relative risks do not conflict.

    When the gate fires, all six measures agree; only RR and RR* are
    compared here, which is what makes the gate a cheap screen. A banded
    direction outside the band is exact (RR is one rounding of the exact
    ratio, RR* two, each far inside the band), so only a Null can hide an
    exact conflict; then the answer is the one agree() reports.
    """
    d_rr, d_rr_star = _banded_directions(strata, _gate_pair)
    if d_rr is Direction.NULL or d_rr_star is Direction.NULL:
        d_rr, d_rr_star = _directions(strata)[:2]
    return d_rr.agrees_with(d_rr_star)


def _gate_pair(pair: RiskPair) -> tuple[float, float]:
    """RR and RR* of one stratum; a strict one skips the four other measures."""
    if pair.is_strict:
        return _relative_risks(pair.p_control, pair.p_exposed)
    return _measures(pair)[:2]


def critical_p4(p1: float, p2: float, p3: float, kind: MeasureKind) -> float:
    """The p4 at which `kind` shows no modification, given (p1, p2, p3).

    Solves EM(p3, p4) = EM(p1, p2) for p4, in closed form for every kind.
    The result may fall outside (0, 1) for RR, RD, and RR*; it is returned
    unclamped.
    """
    return _entry(_critical_values(p1, p2, p3), kind)


def _entry(values: tuple[float, ...], kind: MeasureKind) -> float:
    """The critical value of `kind` in a table from _critical_values."""
    return values[_kind_bit(kind)]


@dataclass(frozen=True)
class CriticalValues:
    """All six critical p4 values for one (p1, p2, p3)."""

    p1: float
    p2: float
    p3: float
    values: Mapping[MeasureKind, float]

    def value(self, kind: MeasureKind) -> float:
        return self.values[kind]

    def as_dict(self) -> dict[str, float]:
        return {kind.value: self.values[kind] for kind in ALL_KINDS}


def critical_values(p1: float, p2: float, p3: float) -> CriticalValues:
    values = dict(zip(ALL_KINDS, _critical_values(p1, p2, p3)))
    return CriticalValues(p1=p1, p2=p2, p3=p3, values=values)


@dataclass(frozen=True)
class Window:
    """An open interval of p4 values, possibly empty."""

    lower: float
    upper: float

    @property
    def is_empty(self) -> bool:
        return not self.lower < self.upper

    @property
    def width(self) -> float:
        return max(0.0, self.upper - self.lower)

    def contains(self, x: float) -> bool:
        return self.lower < x < self.upper


def disagreement_window(
    p1: float,
    p2: float,
    p3: float,
    kind_a: MeasureKind,
    kind_b: MeasureKind,
) -> Window:
    """The open p4 interval on which kind_a and kind_b disagree.

    The interval between the two critical values, intersected with (0, 1).
    Empty when the critical values coincide (e.g. p1 = p2 makes them all
    equal) or when the intersection vanishes.
    """
    values = _critical_values(p1, p2, p3)
    ca, cb = _entry(values, kind_a), _entry(values, kind_b)
    return Window(max(0.0, min(ca, cb)), min(1.0, max(ca, cb)))


# --- sufficient conditions -------------------------------------------------
#
# Each condition is a cheap inequality check that forces a pair of measures
# (or all six) to agree without computing directions. They are evaluated
# under the four relabelings that preserve pairwise agreement: identity,
# swapping the strata, swapping control/exposed in both strata, and both
# swaps together. (Swapping strata flips every direction; swapping groups
# maps every measure to a reciprocal/negation of itself, which also flips
# every direction; either way, agreement of any pair is unchanged.)
#
# The inequality hypotheses are the standalone forms that the agreement
# theorem's proof actually uses. Two published summaries of these
# conditions drop the relative-risk ordering hypotheses; without them the
# conditions admit counterexamples, so the full hypotheses are kept here
# (see the tests for a refuting quadruple per dropped hypothesis).

@dataclass(frozen=True)
class FiredCondition:
    """One sufficient condition that applies to the given strata.

    name identifies the inequality template; labeling records which
    relabeling of the four risks satisfied it; forces lists the measures
    thereby guaranteed to agree (in the original labeling).
    """

    name: str
    labeling: str
    forces: frozenset[MeasureKind]

    def describe(self) -> str:
        members = ", ".join(k.value for k in ALL_KINDS if k in self.forces)
        return f"{self.name} [{self.labeling}] forces agreement of {{{members}}}"


def _qualitative(p1: float, p2: float, p3: float, p4: float) -> bool:
    # Exposure raises risk in exactly one stratum (weakly in the other).
    return (p1 < p2 and p3 >= p4) or (p3 < p4 and p1 >= p2)


# The inequalities on the risks are tested first: they are cheaper than the
# relative risks and fail on most strata.


def _rr_hr_star(p1: float, p2: float, p3: float, p4: float) -> bool:
    # RR_P < RR_Q with p4 above both p2 and p3 forces HR* toward Q too.
    return (
        p4 > p2 and p4 > p3 and _relative_risks(p1, p2)[0] < _relative_risks(p3, p4)[0]
    )


def _rr_star_hr_star(p1: float, p2: float, p3: float, p4: float) -> bool:
    # p4 < p2 with 1 < RR*_P < RR*_Q forces HR* toward Q too.
    return p4 < p2 and 1.0 < _relative_risks(p1, p2)[1] < _relative_risks(p3, p4)[1]


def _rr_star_rd(p1: float, p2: float, p3: float, p4: float) -> bool:
    # RR*_P < RR*_Q with p3 <= p1 <= p2 forces RD toward Q too.
    return p3 <= p1 <= p2 and _relative_risks(p1, p2)[1] < _relative_risks(p3, p4)[1]


def _rr_rd(p1: float, p2: float, p3: float, p4: float) -> bool:
    # RR_P < RR_Q with p3 >= p1 and p2 >= p1 forces RD toward Q too.
    return (
        p3 >= p1 and p2 >= p1 and _relative_risks(p1, p2)[0] < _relative_risks(p3, p4)[0]
    )


_CONDITIONS: tuple[tuple[str, object, frozenset[MeasureKind]], ...] = (
    ("qualitative-modification", _qualitative, frozenset(ALL_KINDS)),
    (
        "rr-and-hr-star",
        _rr_hr_star,
        frozenset({MeasureKind.RR, MeasureKind.HR_STAR}),
    ),
    (
        "rr-star-and-hr-star",
        _rr_star_hr_star,
        frozenset({MeasureKind.RR_STAR, MeasureKind.HR_STAR}),
    ),
    (
        "rr-star-and-rd",
        _rr_star_rd,
        frozenset({MeasureKind.RR_STAR, MeasureKind.RD}),
    ),
    ("rr-and-rd", _rr_rd, frozenset({MeasureKind.RR, MeasureKind.RD})),
)

# Per labeling, in sufficient_conditions' order, each predicate with the one
# FiredCondition it reports.
_FIRED = tuple(
    tuple((test, FiredCondition(name, label, forces)) for name, test, forces in _CONDITIONS)
    for label in ("identity", "swap_strata", "swap_groups", "swap_both")
)


def sufficient_conditions(strata: StratifiedRisks) -> tuple[FiredCondition, ...]:
    """Inequality-only screens that force agreement of specific measures.

    Returns every (condition, labeling) that applies. These are
    sufficient, not necessary: strata whose measures all agree may fire
    nothing. Conclusions never contradict the computed directions. The
    FiredConditions are shared constants, built at import.
    """
    if not strata.is_strict:
        raise InputValidationError("sufficient conditions need strict risks")
    p1, p2, p3, p4 = strata.p1, strata.p2, strata.p3, strata.p4
    labeled = ((p1, p2, p3, p4), (p3, p4, p1, p2), (p2, p1, p4, p3), (p4, p3, p2, p1))
    fired: list[FiredCondition] = []
    for risks, conditions in zip(labeled, _FIRED):
        for predicate, condition in conditions:
            if predicate(*risks):
                fired.append(condition)
    return tuple(fired)
