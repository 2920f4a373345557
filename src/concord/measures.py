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
    "ALL_KINDS",
    "measure",
    "measure_vector",
    "derived_measures",
    "grrr",
    "subset_mask",
    "mask_members",
]


def _require_unit_interval(name: str, value: float) -> float:
    value = float(value)
    if math.isnan(value):
        raise InputValidationError(f"{name} must be a number, got NaN")
    if not 0.0 <= value <= 1.0:
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
    resolved to one-sided limits (or UndefinedMeasure) by measure();
    is_strict tells whether both lie inside the open interval.
    """

    p_control: float
    p_exposed: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "p_control", _require_unit_interval("p_control", self.p_control)
        )
        object.__setattr__(
            self, "p_exposed", _require_unit_interval("p_exposed", self.p_exposed)
        )

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


def _relative_risks(a, b, out=None) -> tuple:
    """(RR, RR*) for risks strictly inside (0, 1), as floats or arrays.

    The one copy of the two formulas: the six-measure table, the simulator's
    RR/RR* screen and the sufficient conditions all evaluate it. out, a pair
    of arrays shaped like a and b and aliasing neither, receives RR and RR*
    through the same operations, with no temporaries.
    """
    if out is None:
        return b / a, (1.0 - a) / (1.0 - b)
    import numpy as np  # only arrays come with out; numpy is already loaded

    rr, rr_star = out
    np.subtract(1.0, b, out=rr)  # 1 - b, until RR overwrites it
    np.divide(np.subtract(1.0, a, out=rr_star), rr, out=rr_star)
    np.divide(b, a, out=rr)
    return rr, rr_star


def _strict_measures(a, b, log=math.log, log1p=math.log1p, out=None) -> tuple:
    """The six measures in ALL_KINDS order, for risks strictly inside (0, 1).

    a and b may be floats or arrays; pass numpy's log and log1p for arrays.
    This is the one copy of the formulas: the scalar path and the simulator
    both evaluate it. out, six arrays shaped like a and b and aliasing
    neither, receives the measures through the same operations, with no
    temporaries; log and log1p are then numpy's.
    """
    if out is None:
        rr, rr_star = _relative_risks(a, b)
        # OR is factored as RR * RR*: the single fraction b(1-a) / (a(1-b))
        # can underflow a subnormal denominator to exact zero
        return (rr, rr_star, log1p(-b) / log1p(-a), log(a) / log(b), b - a, rr * rr_star)
    import numpy as np  # only arrays come with out; numpy is already loaded

    rr, rr_star, hr, hr_star, rd, odds = out
    _relative_risks(a, b, out=(rr, rr_star))
    # rd and odds hold the divisors until their own values overwrite them
    np.log1p(np.negative(b, out=hr), out=hr)
    np.divide(hr, np.log1p(np.negative(a, out=rd), out=rd), out=hr)
    np.divide(np.log(a, out=hr_star), np.log(b, out=odds), out=hr_star)
    np.subtract(b, a, out=rd)
    np.multiply(rr, rr_star, out=odds)
    return tuple(out)


def _boundary_measures(a: float, b: float) -> tuple[float, ...]:
    """One-sided limits, in ALL_KINDS order, when a risk lies on 0 or 1.

    HR, HR* and OR tend to +inf as a -> 0 or b -> 1 and to 0 as a -> 1 or
    b -> 0; RR and RR* tend to +inf as their divisor vanishes.
    """
    log_limit = math.inf if a == 0.0 or b == 1.0 else 0.0
    return (
        math.inf if a == 0.0 else b / a,
        math.inf if b == 1.0 else (1.0 - a) / (1.0 - b),
        log_limit,
        log_limit,
        b - a,
        log_limit,
    )


def _measures(pair: RiskPair) -> tuple[float, ...]:
    """The six measures of a pair in ALL_KINDS order, as extended reals."""
    _check_boundary(pair)
    a, b = pair.p_control, pair.p_exposed
    if pair.is_strict:
        return _strict_measures(a, b)
    return _boundary_measures(a, b)


def measure(pair: RiskPair, kind: MeasureKind) -> float:
    """Return one effect measure for the pair, as an extended real.

    Boundary risks produce the one-sided limit of the formula; a pair
    with both risks at the same boundary raises UndefinedMeasure.
    """
    return _measures(pair)[kind.bit]


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
    return MeasureVector(*_measures(pair))


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
        return _relative_risks(a, b)[0] - 1.0
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
