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
it disagrees. agree() caches one row per direction key (the bitmasks of the
measures toward P and toward Q): the 64 subset verdicts, and a directions
dict that each report copies. rr_gate() reads only RR and RR*, from
measures._relative_risks for a strict stratum; outside the band their float
directions are exact, so only a tie sends it to agree()'s directions.

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
from functools import cache
from typing import Iterable, Mapping

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
        if self is _NULL or other is _NULL:
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


_TOWARD_P, _TOWARD_Q, _NULL = Direction.TOWARD_P, Direction.TOWARD_Q, Direction.NULL


def _directions(strata: StratifiedRisks) -> tuple[Direction, ...]:
    """Directions of all six measures, in ALL_KINDS order.

    One loop compares both strata's measures within the band; the banded
    directions are repaired where they break the gate theorem (see the
    module docstring).
    """
    banded = []
    for p, q in zip(_measures(strata.stratum_p), _measures(strata.stratum_q)):
        if math.isclose(p, q, rel_tol=_TIE_REL_TOL):
            banded.append(_NULL)
        else:
            banded.append(_TOWARD_Q if q > p else _TOWARD_P)
    directions = tuple(banded)
    if (
        _TOWARD_P in directions
        and _TOWARD_Q in directions
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


_RR, _RR_STAR = MeasureKind.RR, MeasureKind.RR_STAR
_RR_GATE_MASK = subset_mask((_RR, _RR_STAR))
_ALL_SIX_MASK = subset_mask(ALL_KINDS)


@cache
def _row(toward_p: int, toward_q: int) -> tuple[tuple[bool, ...], dict[MeasureKind, Direction]]:
    """A direction key's 64 verdicts, and a directions dict that each report
    copies: a copy does not hash the MeasureKind keys again."""
    directions = (
        _TOWARD_P if toward_p >> bit & 1 else _TOWARD_Q if toward_q >> bit & 1 else _NULL
        for bit in range(6)
    )
    return _verdict_row(toward_p, toward_q), dict(zip(ALL_KINDS, directions))


def agree(strata: StratifiedRisks) -> AgreementReport:
    """Analyse the agreement of all six measures across the strata.

    The 64 verdicts and the directions come from a row cached lazily per
    direction key (the bitmasks toward P and toward Q): reports with the
    same key share one immutable verdict tuple, and each gets its own copy
    of the key's directions dict. The fired conditions are shared constants.
    """
    directions = _directions(strata)
    toward_p = toward_q = 0
    bit = 1
    for direction in directions:
        if direction is _TOWARD_P:
            toward_p |= bit
        elif direction is _TOWARD_Q:
            toward_q |= bit
        bit <<= 1
    verdicts, template = _row(toward_p, toward_q)
    p, q = strata.stratum_p, strata.stratum_q
    p1, p2, p3, p4 = p.p_control, p.p_exposed, q.p_control, q.p_exposed
    strict = 0.0 < p1 < 1.0 and 0.0 < p2 < 1.0 and 0.0 < p3 < 1.0 and 0.0 < p4 < 1.0
    fired = _conditions(p1, p2, p3, p4) if strict else ()
    return AgreementReport(strata, dict(template), verdicts, verdicts[_RR_GATE_MASK], fired)


def rr_gate(strata: StratifiedRisks) -> bool:
    """True when the two relative risks do not conflict.

    When the gate fires, all six measures agree; only RR and RR* are
    compared here, which is what makes the gate a cheap screen. A banded
    direction outside the band is exact (RR is one rounding of the exact
    ratio, RR* three, each far inside the band), so only a tie can hide an
    exact conflict; then the answer is the one agree() reports.
    """
    p, q = strata.stratum_p, strata.stratum_q
    a, b, c, d = p.p_control, p.p_exposed, q.p_control, q.p_exposed
    rr_p, star_p = _relative_risks(a, b) if 0.0 < a < 1.0 and 0.0 < b < 1.0 else _measures(p)[:2]
    rr_q, star_q = _relative_risks(c, d) if 0.0 < c < 1.0 and 0.0 < d < 1.0 else _measures(q)[:2]
    if not (
        math.isclose(rr_p, rr_q, rel_tol=_TIE_REL_TOL)
        or math.isclose(star_p, star_q, rel_tol=_TIE_REL_TOL)
    ):
        return (rr_q > rr_p) == (star_q > star_p)
    d_rr, d_rr_star = _directions(strata)[:2]
    return d_rr.agrees_with(d_rr_star)


def critical_p4(p1: float, p2: float, p3: float, kind: MeasureKind) -> float:
    """The p4 at which `kind` shows no modification, given (p1, p2, p3).

    Solves EM(p3, p4) = EM(p1, p2) for p4, in closed form for every kind.
    The result may fall outside (0, 1) for RR, RD, and RR*; it is returned
    unclamped.
    """
    return _critical_values(p1, p2, p3)[_kind_bit(kind)]


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
    ratios = (kind_a is _RR or kind_a is _RR_STAR) and (kind_b is _RR or kind_b is _RR_STAR)
    values = _critical_values(p1, p2, p3, ratios_only=ratios)
    ca, cb = values[_kind_bit(kind_a)], values[_kind_bit(kind_b)]
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


# Per labeling, in sufficient_conditions' order, the FiredCondition each of
# the five conditions reports.
_FIRED = tuple(
    tuple(FiredCondition(name, label, frozenset(forces)) for name, forces in (
        ("qualitative-modification", ALL_KINDS),
        ("rr-and-hr-star", (MeasureKind.RR, MeasureKind.HR_STAR)),
        ("rr-star-and-hr-star", (MeasureKind.RR_STAR, MeasureKind.HR_STAR)),
        ("rr-star-and-rd", (MeasureKind.RR_STAR, MeasureKind.RD)),
        ("rr-and-rd", (MeasureKind.RR, MeasureKind.RD)),
    ))
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
    return _conditions(strata.p1, strata.p2, strata.p3, strata.p4)


def _conditions(p1: float, p2: float, p3: float, p4: float) -> tuple[FiredCondition, ...]:
    """sufficient_conditions of strict risks, in one pass over the labelings.

    Labeling (a, b, c, d) reads RR = b/a, d/c and RR* = (1-a)/(1-b),
    (1-c)/(1-d) from the four pairs computed once here.
    """
    rr1, star1 = _relative_risks(p1, p2)
    rr2, star2 = _relative_risks(p3, p4)
    rr1_g, star1_g = _relative_risks(p2, p1)  # control and exposed swapped
    rr2_g, star2_g = _relative_risks(p4, p3)
    fired: list[FiredCondition] = []
    for a, b, c, d, rr_ab, rr_cd, star_ab, star_cd, conditions in (
        (p1, p2, p3, p4, rr1, rr2, star1, star2, _FIRED[0]),
        (p3, p4, p1, p2, rr2, rr1, star2, star1, _FIRED[1]),
        (p2, p1, p4, p3, rr1_g, rr2_g, star1_g, star2_g, _FIRED[2]),
        (p4, p3, p2, p1, rr2_g, rr1_g, star2_g, star1_g, _FIRED[3]),
    ):
        qualitative, rr_hr_star, star_hr_star, star_rd, rr_rd = conditions
        # exposure raises risk in exactly one stratum (weakly in the other)
        if (a < b and c >= d) or (c < d and a >= b):
            fired.append(qualitative)
        # RR_P < RR_Q with d above both b and c forces HR* toward Q too
        if d > b and d > c and rr_ab < rr_cd:
            fired.append(rr_hr_star)
        # d < b with 1 < RR*_P < RR*_Q forces HR* toward Q too
        if d < b and 1.0 < star_ab < star_cd:
            fired.append(star_hr_star)
        # RR*_P < RR*_Q with c <= a <= b forces RD toward Q too
        if c <= a <= b and star_ab < star_cd:
            fired.append(star_rd)
        # RR_P < RR_Q with c >= a and b >= a forces RD toward Q too
        if c >= a and b >= a and rr_ab < rr_cd:
            fired.append(rr_rd)
    return tuple(fired)
