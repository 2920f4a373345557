"""Direction of effect-measure modification and agreement verdicts.

Two strata P and Q each carry a RiskPair. For a measure EM, the direction
of modification is the extended-real comparison of EM across the strata:
TowardQ when EM_Q > EM_P, TowardP when EM_Q < EM_P, Null when they are
equal within tolerance. Within one stratum all six measures sit on the
same side of their nulls (the side of p_exposed - p_control), so this
comparison is exactly the usual "modified in the same direction" notion.

Two measures disagree when one points TowardP and the other TowardQ;
Null agrees with everything. A set of measures agrees when no pair inside
it disagrees.

The module also provides critical values of p4: given (p1, p2, p3), the
value of p4 at which a measure shows no modification. Two measures
disagree exactly when the true p4 lies strictly between their critical
values, which yields the disagreement window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Optional

from .errors import InputValidationError
from .measures import (
    ALL_KINDS,
    MeasureKind,
    RiskPair,
    _odds_ratio,
    measure,
    subset_agrees,
    subset_mask,
)

__all__ = [
    "Direction",
    "Tolerance",
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
    "DEFAULT_TOLERANCE",
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


@dataclass(frozen=True)
class Tolerance:
    """Equality band for direction classification.

    Exact ties between strata are measure-zero events, but floating
    arithmetic needs a band; rel_tol acts on the measure scale.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 0.0

    def equal(self, x: float, y: float) -> bool:
        if math.isinf(x) or math.isinf(y):
            return x == y
        return math.isclose(x, y, rel_tol=self.rel_tol, abs_tol=self.abs_tol)


DEFAULT_TOLERANCE = Tolerance()


@dataclass(frozen=True)
class StratifiedRisks:
    """The four risks of a two-stratum comparison.

    p1..p4 follow the conventional naming: (p1, p2) are the control and
    exposed risks of stratum P, (p3, p4) those of stratum Q.
    """

    stratum_p: RiskPair
    stratum_q: RiskPair

    @classmethod
    def from_probs(
        cls, p1: float, p2: float, p3: float, p4: float, strict: bool = False
    ) -> "StratifiedRisks":
        make = RiskPair.strict if strict else RiskPair
        return cls(make(p1, p2), make(p3, p4))

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


def modification_direction(
    strata: StratifiedRisks,
    kind: MeasureKind,
    tolerance: Tolerance = DEFAULT_TOLERANCE,
) -> Direction:
    """Compare one measure across the two strata as extended reals."""
    em_p = measure(strata.stratum_p, kind)
    em_q = measure(strata.stratum_q, kind)
    if tolerance.equal(em_p, em_q):
        return Direction.NULL
    return Direction.TOWARD_Q if em_q > em_p else Direction.TOWARD_P


@dataclass(frozen=True)
class AgreementReport:
    """Full agreement analysis of one pair of strata.

    directions maps every kind to its Direction; pair_matrix is the
    symmetric 6x6 agreement table in ALL_KINDS order; subset_verdicts is
    indexed by bitmask (bit i = ALL_KINDS[i]); agrees is the verdict for
    the requested kinds.
    """

    strata: StratifiedRisks
    kinds: tuple[MeasureKind, ...]
    directions: Mapping[MeasureKind, Direction]
    pair_matrix: tuple[tuple[bool, ...], ...]
    subset_verdicts: tuple[bool, ...]
    agrees: bool
    rr_gate_fired: bool
    fired_conditions: tuple["FiredCondition", ...]
    tolerance: Tolerance = field(default=DEFAULT_TOLERANCE)

    def pair_agrees(self, kind_a: MeasureKind, kind_b: MeasureKind) -> bool:
        return self.pair_matrix[kind_a.bit][kind_b.bit]

    def subset_agrees(self, kinds: Iterable[MeasureKind]) -> bool:
        return self.subset_verdicts[subset_mask(kinds)]


_RR_GATE_MASK = subset_mask((MeasureKind.RR, MeasureKind.RR_STAR))


def agree(
    strata: StratifiedRisks,
    kinds: Optional[Iterable[MeasureKind]] = None,
    tolerance: Tolerance = DEFAULT_TOLERANCE,
) -> AgreementReport:
    """Analyse agreement across the strata; kinds defaults to all six."""
    requested = tuple(kinds) if kinds is not None else ALL_KINDS
    directions = {
        kind: modification_direction(strata, kind, tolerance) for kind in ALL_KINDS
    }
    toward_p = subset_mask(k for k, d in directions.items() if d is Direction.TOWARD_P)
    toward_q = subset_mask(k for k, d in directions.items() if d is Direction.TOWARD_Q)
    verdicts = tuple(subset_agrees(toward_p, toward_q, mask) for mask in range(64))
    singletons = [1 << kind.bit for kind in ALL_KINDS]
    matrix = tuple(tuple(verdicts[a | b] for b in singletons) for a in singletons)
    fired = sufficient_conditions(strata) if strata.is_strict else ()
    return AgreementReport(
        strata=strata,
        kinds=requested,
        directions=directions,
        pair_matrix=matrix,
        subset_verdicts=verdicts,
        agrees=verdicts[subset_mask(requested)],
        rr_gate_fired=verdicts[_RR_GATE_MASK],
        fired_conditions=fired,
        tolerance=tolerance,
    )


def rr_gate(
    strata: StratifiedRisks, tolerance: Tolerance = DEFAULT_TOLERANCE
) -> bool:
    """True when the two relative risks do not conflict.

    When the gate fires, all six measures agree; only RR and RR* are
    evaluated here, which is what makes the gate a cheap screen.
    """
    d_rr = modification_direction(strata, MeasureKind.RR, tolerance)
    d_rr_star = modification_direction(strata, MeasureKind.RR_STAR, tolerance)
    return d_rr.agrees_with(d_rr_star)


def _require_strict_probs(**named: float) -> None:
    for name, value in named.items():
        if not 0.0 < value < 1.0 or math.isnan(value):
            raise InputValidationError(
                f"{name} must lie strictly inside (0, 1), got {value!r}"
            )


def critical_p4(p1: float, p2: float, p3: float, kind: MeasureKind) -> float:
    """The p4 at which `kind` shows no modification, given (p1, p2, p3).

    Solves EM(p3, p4) = EM(p1, p2) for p4. RR, RD, and RR* have the
    classic closed forms; OR, HR, and HR* are solved in closed form too
    (each of their formulas is invertible in p4). The result may fall
    outside (0, 1) for RR, RD, and RR*; it is returned unclamped.
    """
    _require_strict_probs(p1=p1, p2=p2, p3=p3)
    if kind is MeasureKind.RR:
        return p2 * p3 / p1
    if kind is MeasureKind.RD:
        return p2 + p3 - p1
    if kind is MeasureKind.RR_STAR:
        return 1.0 - (1.0 - p2) * (1.0 - p3) / (1.0 - p1)
    if kind is MeasureKind.OR:
        t = _odds_ratio(p1, p2) * p3 / (1.0 - p3)
        return 1.0 if math.isinf(t) else t / (1.0 + t)
    if kind is MeasureKind.HR:
        hr_p = math.log1p(-p2) / math.log1p(-p1)
        return -math.expm1(hr_p * math.log1p(-p3))  # 1 - (1-p3)^hr_p
    if kind is MeasureKind.HR_STAR:
        hr_star_p = math.log(p1) / math.log(p2)
        return math.exp(math.log(p3) / hr_star_p)  # p3^(1/hr*_p)
    raise InputValidationError(f"unknown measure kind {kind!r}")


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
    return CriticalValues(
        p1=p1,
        p2=p2,
        p3=p3,
        values={kind: critical_p4(p1, p2, p3, kind) for kind in ALL_KINDS},
    )


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
    ca = critical_p4(p1, p2, p3, kind_a)
    cb = critical_p4(p1, p2, p3, kind_b)
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

_LABELINGS: tuple[tuple[str, tuple[int, int, int, int]], ...] = (
    ("identity", (0, 1, 2, 3)),
    ("swap_strata", (2, 3, 0, 1)),
    ("swap_groups", (1, 0, 3, 2)),
    ("swap_both", (3, 2, 1, 0)),
)


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


def _rr_hr_star(p1: float, p2: float, p3: float, p4: float) -> bool:
    # RR_P < RR_Q with p4 above both p2 and p3 forces HR* toward Q too.
    return p2 / p1 < p4 / p3 and p4 > p2 and p4 > p3


def _rr_star_hr_star(p1: float, p2: float, p3: float, p4: float) -> bool:
    # p4 < p2 with 1 < RR*_P < RR*_Q forces HR* toward Q too.
    rr_star_p = (1.0 - p1) / (1.0 - p2)
    rr_star_q = (1.0 - p3) / (1.0 - p4)
    return p4 < p2 and 1.0 < rr_star_p < rr_star_q


def _rr_star_rd(p1: float, p2: float, p3: float, p4: float) -> bool:
    # RR*_P < RR*_Q with p3 <= p1 <= p2 forces RD toward Q too.
    rr_star_p = (1.0 - p1) / (1.0 - p2)
    rr_star_q = (1.0 - p3) / (1.0 - p4)
    return rr_star_p < rr_star_q and p3 <= p1 <= p2


def _rr_rd(p1: float, p2: float, p3: float, p4: float) -> bool:
    # RR_P < RR_Q with p3 >= p1 and p2 >= p1 forces RD toward Q too.
    return p2 / p1 < p4 / p3 and p3 >= p1 and p2 >= p1


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


def sufficient_conditions(strata: StratifiedRisks) -> tuple[FiredCondition, ...]:
    """Inequality-only screens that force agreement of specific measures.

    Returns every (condition, labeling) that applies. These are
    sufficient, not necessary: strata whose measures all agree may fire
    nothing. Conclusions never contradict the computed directions.
    """
    if not strata.is_strict:
        raise InputValidationError("sufficient conditions need strict risks")
    risks = (strata.p1, strata.p2, strata.p3, strata.p4)
    fired: list[FiredCondition] = []
    for label, perm in _LABELINGS:
        q1, q2, q3, q4 = (risks[i] for i in perm)
        for name, predicate, forces in _CONDITIONS:
            if predicate(q1, q2, q3, q4):
                fired.append(FiredCondition(name=name, labeling=label, forces=forces))
    return tuple(fired)
