"""Six effect measures and their concordant derived measures.

Notation: a stratum compares a control group with risk ``a`` against an
exposed group with risk ``b``. The six measures are

    RR  = b / a                      relative risk
    RR* = (1 - a) / (1 - b)          relative risk of the opposite outcome,
                                     reciprocated so that RR* > 1 whenever b > a
    HR  = log(1 - b) / log(1 - a)    cumulative hazard ratio
    HR* = log(a) / log(b)            cumulative hazard ratio of the opposite
                                     outcome, reciprocated like RR*
    RD  = b - a                      risk difference
    OR  = b(1 - a) / (a(1 - b))      odds ratio

HR follows from total hazard H = -log(1 - p) under the initial condition
p(0) = 0; some derivations print H = log(1 - p) with the sign absorbed,
which leaves the ratio unchanged. Natural logs are used throughout; both
hazard ratios are base-invariant.

Risks exactly on the unit-interval boundary get one-sided limits: with at
most one risk equal to 0 and at most one equal to 1 every measure has an
unambiguous extended-real limit (e.g. a = 0, b = 0.3 gives RR = +inf).
A pair like (0, 0) or (1, 1) has no such limit and raises UndefinedMeasure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InputValidationError, UndefinedMeasure

__all__ = [
    "MeasureKind",
    "RiskPair",
    "MeasureVector",
    "DerivedMeasures",
    "Orientation",
    "measure",
    "measure_vector",
    "derived_measures",
    "grrr",
    "subset_mask",
    "mask_members",
]


def _require_unit_interval(name: str, value: float, strict: bool) -> float:
    value = float(value)
    if math.isnan(value):
        raise InputValidationError(f"{name} must be a number, got NaN")
    if strict:
        if not 0.0 < value < 1.0:
            raise InputValidationError(
                f"{name} must lie strictly inside (0, 1), got {value!r}"
            )
    elif not 0.0 <= value <= 1.0:
        raise InputValidationError(f"{name} must lie in [0, 1], got {value!r}")
    return value


class MeasureKind(enum.Enum):
    """The six effect measures, with the null value each crosses at b = a."""

    RR = "RR"
    RR_STAR = "RR*"
    HR = "HR"
    HR_STAR = "HR*"
    RD = "RD"
    OR = "OR"

    @property
    def null_value(self) -> float:
        return 0.0 if self is MeasureKind.RD else 1.0

    @property
    def bit(self) -> int:
        """Stable bit position used for subset bitmasks (RR lowest)."""
        return _KIND_ORDER.index(self)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_KIND_ORDER: tuple[MeasureKind, ...] = (
    MeasureKind.RR,
    MeasureKind.RR_STAR,
    MeasureKind.HR,
    MeasureKind.HR_STAR,
    MeasureKind.RD,
    MeasureKind.OR,
)

ALL_KINDS: tuple[MeasureKind, ...] = _KIND_ORDER


def subset_mask(kinds: Iterable[MeasureKind]) -> int:
    """Bitmask for a measure subset; bit i refers to ALL_KINDS[i]."""
    mask = 0
    for kind in kinds:
        mask |= 1 << kind.bit
    return mask


def mask_members(mask: int) -> tuple[MeasureKind, ...]:
    """The measures of a subset bitmask, in ALL_KINDS order."""
    return tuple(kind for kind in ALL_KINDS if mask & (1 << kind.bit))


def subset_agrees(toward_p, toward_q, mask):
    """Whether the subset `mask` agrees, given the direction bitmasks.

    toward_p and toward_q hold the bits of the measures that found the
    stronger effect in stratum P and in stratum Q. A subset agrees unless
    it contains a measure from each. Works elementwise on integer arrays.
    """
    return ((toward_p & mask) == 0) | ((toward_q & mask) == 0)


@dataclass(frozen=True)
class RiskPair:
    """Risks of one stratum: control group then exposed group.

    Both risks must lie in [0, 1]. Boundary values are accepted here and
    resolved to one-sided limits (or UndefinedMeasure) by measure().
    Use strict() when a computation needs the open interval.
    """

    p_control: float
    p_exposed: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "p_control", _require_unit_interval("p_control", self.p_control, False)
        )
        object.__setattr__(
            self, "p_exposed", _require_unit_interval("p_exposed", self.p_exposed, False)
        )

    @classmethod
    def strict(cls, p_control: float, p_exposed: float) -> "RiskPair":
        """Construct a pair whose risks must lie strictly inside (0, 1)."""
        _require_unit_interval("p_control", p_control, True)
        _require_unit_interval("p_exposed", p_exposed, True)
        return cls(p_control, p_exposed)

    @property
    def is_strict(self) -> bool:
        return 0.0 < self.p_control < 1.0 and 0.0 < self.p_exposed < 1.0

    @property
    def opposite(self) -> "RiskPair":
        """The same stratum with the outcome recoded to its complement.

        Swapping to (1 - p_exposed, 1 - p_control) maps RR to RR* and HR
        to HR* while leaving RD and OR unchanged.
        """
        return RiskPair(1.0 - self.p_exposed, 1.0 - self.p_control)


def _check_boundary(pair: RiskPair) -> None:
    a, b = pair.p_control, pair.p_exposed
    if a == b and (a == 0.0 or a == 1.0):
        raise UndefinedMeasure(
            f"risk pair ({a}, {b}) admits no one-sided limit (0/0 form); "
            "every measure is undefined"
        )


def _rr(a: float, b: float) -> float:
    if a == 0.0:
        return math.inf
    return b / a


def _rr_star(a: float, b: float) -> float:
    if b == 1.0:
        return math.inf
    return (1.0 - a) / (1.0 - b)


def _hr(a: float, b: float) -> float:
    # log(1-b)/log(1-a); limits: a=0 -> +inf, b=1 -> +inf, a=1 -> 0, b=0 -> 0.
    if a == 1.0 or b == 0.0:
        return 0.0
    if a == 0.0 or b == 1.0:
        return math.inf
    if a == b:
        return 1.0
    return math.log1p(-b) / math.log1p(-a)


def _hr_star(a: float, b: float) -> float:
    # log(a)/log(b); limits: a=0 -> +inf, b=1 -> +inf, a=1 -> 0, b=0 -> 0.
    if a == 1.0 or b == 0.0:
        return 0.0
    if a == 0.0 or b == 1.0:
        return math.inf
    if a == b:
        return 1.0
    return math.log(a) / math.log(b)


def _rd(a: float, b: float) -> float:
    return b - a


def _odds_ratio(a: float, b: float) -> float:
    if a == 0.0 or b == 1.0:
        return math.inf
    if a == 1.0 or b == 0.0:
        return 0.0
    # factored as RR * RR*: the single fraction b(1-a) / (a(1-b)) can
    # underflow a subnormal denominator to exact zero
    return (b / a) * ((1.0 - a) / (1.0 - b))


_FORMULAS = {
    MeasureKind.RR: _rr,
    MeasureKind.RR_STAR: _rr_star,
    MeasureKind.HR: _hr,
    MeasureKind.HR_STAR: _hr_star,
    MeasureKind.RD: _rd,
    MeasureKind.OR: _odds_ratio,
}


def measure(pair: RiskPair, kind: MeasureKind) -> float:
    """Return one effect measure for the pair, as an extended real.

    Boundary risks produce the one-sided limit of the formula; a pair
    with both risks at the same boundary raises UndefinedMeasure.
    """
    _check_boundary(pair)
    return _FORMULAS[kind](pair.p_control, pair.p_exposed)


@dataclass(frozen=True)
class MeasureVector:
    """All six measures of one pair. Ratio entries are >= 0, RD in [-1, 1]."""

    rr: float
    rr_star: float
    hr: float
    hr_star: float
    rd: float
    odds_ratio: float

    _FIELD_BY_KIND = {
        MeasureKind.RR: "rr",
        MeasureKind.RR_STAR: "rr_star",
        MeasureKind.HR: "hr",
        MeasureKind.HR_STAR: "hr_star",
        MeasureKind.RD: "rd",
        MeasureKind.OR: "odds_ratio",
    }

    def value(self, kind: MeasureKind) -> float:
        return getattr(self, self._FIELD_BY_KIND[kind])

    def as_dict(self) -> dict[str, float]:
        """Keys are the measure names (RR, RR*, HR, HR*, RD, OR)."""
        return {kind.value: self.value(kind) for kind in ALL_KINDS}

    def __iter__(self) -> Iterator[float]:
        return (self.value(kind) for kind in ALL_KINDS)


def measure_vector(pair: RiskPair) -> MeasureVector:
    """Compute all six measures at once."""
    _check_boundary(pair)
    a, b = pair.p_control, pair.p_exposed
    return MeasureVector(
        rr=_rr(a, b),
        rr_star=_rr_star(a, b),
        hr=_hr(a, b),
        hr_star=_hr_star(a, b),
        rd=_rd(a, b),
        odds_ratio=_odds_ratio(a, b),
    )


class Orientation(enum.Enum):
    """Whether larger values of a derived measure mean a stronger effect
    in the exposed direction (DIRECT) or a weaker one (INVERSE)."""

    DIRECT = "direct"
    INVERSE = "inverse"


@dataclass(frozen=True)
class DerivedMeasures:
    """Measures concordant with the six core ones, from one strict pair.

    cp_generative      (b - a) / (1 - a); equals 1 - 1/RR*
    cp_preventative    (a - b) / a; equals 1 - RR
    prob_necessity     1 - 1/RR
    prob_sufficiency   alias of cp_generative
    pns                joint necessity-and-sufficiency; equals RD
    nnt                1 / RD, signed; +inf when RD = 0
    vaccine_efficacy   alias of cp_preventative
    grrr               RR - 1 when b < a, else 1 - 1/RR*; continuous, 0 at b = a

    cp_preventative, vaccine_efficacy, and nnt are inverse-oriented: they
    grow as the exposed group fares better, so agreement logic must read
    them through the corresponding direct measure (RR or RD).
    """

    cp_generative: float
    cp_preventative: float
    prob_necessity: float
    prob_sufficiency: float
    pns: float
    nnt: float
    vaccine_efficacy: float
    grrr: float

    _ORIENTATION = {
        "cp_generative": Orientation.DIRECT,
        "cp_preventative": Orientation.INVERSE,
        "prob_necessity": Orientation.DIRECT,
        "prob_sufficiency": Orientation.DIRECT,
        "pns": Orientation.DIRECT,
        "nnt": Orientation.INVERSE,
        "vaccine_efficacy": Orientation.INVERSE,
        "grrr": Orientation.DIRECT,
    }

    @classmethod
    def orientation(cls, field_name: str) -> Orientation:
        return cls._ORIENTATION[field_name]

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self._ORIENTATION}


def _require_strict(pair: RiskPair) -> tuple[float, float]:
    if not pair.is_strict:
        raise InputValidationError(
            "derived measures need risks strictly inside (0, 1), got "
            f"({pair.p_control}, {pair.p_exposed})"
        )
    return pair.p_control, pair.p_exposed


def grrr(pair: RiskPair) -> float:
    """Generalised relative risk reduction, signed and continuous.

    Negative branch RR - 1 for a risk decrease, positive branch 1 - 1/RR*
    for an increase; both branches vanish at b = a.
    """
    a, b = _require_strict(pair)
    if b < a:
        return b / a - 1.0
    return (b - a) / (1.0 - a)  # 1 - 1/RR* simplified


def derived_measures(pair: RiskPair) -> DerivedMeasures:
    """Compute the derived-measure family for a strict pair."""
    a, b = _require_strict(pair)
    rd = b - a
    cp_g = (b - a) / (1.0 - a)
    cp_p = (a - b) / a
    return DerivedMeasures(
        cp_generative=cp_g,
        cp_preventative=cp_p,
        prob_necessity=1.0 - a / b,
        prob_sufficiency=cp_g,
        pns=rd,
        nnt=math.inf if rd == 0.0 else 1.0 / rd,
        vaccine_efficacy=cp_p,
        grrr=grrr(pair),
    )
