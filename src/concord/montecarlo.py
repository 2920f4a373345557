"""Monte Carlo estimation of agreement probabilities for measure subsets.

Each trial draws four risks (p1, p2) and (p3, p4), computes the direction
of modification for all six measures, and records for each of the 64
measure subsets whether the subset agreed (no internal pair pointing in
opposite directions). Frequencies over many trials estimate the
agreement probabilities.

The measures come from the formulas the scalar path uses,
measures._strict_measures, evaluated on whole blocks of draws. Directions
compare the two strata exactly, with no tie band: the draws are
continuous, so ties have probability zero (the agreement module states
the scalar tie rule).

Only trials whose RR and RR* point in opposite directions go through the
six-measure kernel, _direction_masks; under uniform risks that is about
one in six. By the paper's gate theorem, a trial where RR and RR* do not
conflict has no measure pointing toward P and another toward Q, so every
one of the 64 subsets agrees on it, exactly as on the all-tie key 0, and
run counts it there. The screen and the kernel read RR and RR* from the
one formula, measures._relative_risks, and compare strictly, so the
screen sees the kernel's values; test_gate_flags_exactly_the_two_sided_keys
checks on drawn blocks that it flags exactly the trials whose full-kernel
key has bits on both sides.

Risk distributions:

    UNIFORM_UNIT    all four risks iid uniform on (0, 1)
    UNIFORM_RARE    all four risks iid uniform on (0, 0.1)
    TENT_DEPENDENT  control risks p1, p3 uniform on (L, U); exposed risks
                    drawn from asymmetric tent (triangular) densities
                    peaking at the stratum's control risk, so exposed and
                    control risks are positively correlated

The tent CDF on (L, U) with peak m is
    F(x) = (x-L)^2 / ((m-L)(U-L))          for x <= m
    F(x) = 1 - (U-x)^2 / ((U-m)(U-L))      for x > m
(the unique piecewise-linear density that is 0 at both bounds and maximal
at m). One published variant of the second branch fails to reach 1 at
x = U and is treated here as an erratum. The quantile multiplies
u (at least 2^-53) by (m-L)(U-L), where (m-L)/(U-L) is at least about
2^-53, so SimulationConfig rejects bounds with (U-L)^2 * 2^-106 below the
smallest normal double (a span below about 1.4e-138): there the product
underflows and the exposed draws collapse onto a few values. The quantile
evaluates both branches and blends them as left*c - right*(c - 1), with c
1.0 or 0.0 from the comparison, instead of calling np.where: whether a draw
falls left of the peak is random, so np.where's per-element branch
mispredicts, and on a 16K tile it took 70-80 us against 15 us for a sorted
mask. The blend is bit for bit the np.where value (see _tent_quantile).

Reproducibility: all trials come from one generator, seeded with the
first child that SeedSequence(seed) spawns, and are drawn in blocks of a
fixed size. The counts are therefore a function of (seed, trials,
distribution, bounds) alone, bit-identical from run to run.

Memory: run allocates four float buffers of one block once, and
_draw_block fills them in place with rng.random(out=...) in the order of
fresh arrays (p1, p2, p3, p4; for tent p1, p3, then p2, p4), so the
stream is unchanged. The tent quantile, the RR/RR* screen and the kernel
are elementwise and run _TILE trials at a time (_tiled, and the kernel
loop in run), so every value is bit-identical to an untiled evaluation.
The quantile and the screen write every step into one tile scratch
(_tile_scratch: four float and two bool arrays of _TILE entries) that run
allocates once and lends to both, so they allocate nothing per tile; only
the kernel's temporaries, 128 KiB each, are still made per tile. A fresh
process thus pays fewer minor page faults in its first run.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import numbers
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .measures import (
    MeasureKind,
    _relative_risks,
    _strict_measures,
    mask_members,
    subset_agrees,
    subset_mask,
)

__all__ = [
    "Distribution",
    "SimulationConfig",
    "SimulationResult",
    "VennRow",
    "run",
    "tent_inverse_cdf",
    "tent_cdf",
    "tent_pdf",
    "quadruple_density",
    "venn_table",
    "venn_csv",
    "venn_json_rows",
]

_BLOCK = 1 << 18  # trials per vectorized block, bounds peak memory
_TILE = 1 << 14  # trials per tile: a float temporary is 128 KiB, within L2
_N_SUBSETS = 64
# Rounds of _redraw_on_bounds before it gives up. Each round redraws only
# the draws still on a bound. At the narrowest valid bounds, with a single
# double between them, about half the draws land on a bound and a
# 2^18-trial block took up to 20 rounds; 64 rounds fail with a probability
# of about 2^18 * 2^-64 per block.
_REDRAW_ROUNDS = 64
_FULL_MASK = 63


class Distribution(enum.Enum):
    UNIFORM_UNIT = "uniform"
    UNIFORM_RARE = "rare"
    TENT_DEPENDENT = "tent"


@dataclass(frozen=True)
class SimulationConfig:
    trials: int = 1_000_000
    seed: int = 0
    distribution: Distribution = Distribution.UNIFORM_UNIT
    bounds: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        for name in ("trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        lower, upper = self.bounds
        if not (0.0 <= lower < upper <= 1.0):
            raise ConfigError(
                f"bounds must satisfy 0 <= lower < upper <= 1, got {self.bounds}"
            )
        if math.nextafter(lower, upper) >= upper:
            raise ConfigError(
                f"no risk lies strictly between the bounds, got {self.bounds}"
            )
        if (upper - lower) ** 2 * 2.0**-106 < sys.float_info.min:
            raise ConfigError(
                "the tent quantile needs the span squared, times 2**-106, to be"
                f" a normal float; upper - lower is too small, got {self.bounds}"
            )
        if not isinstance(self.distribution, Distribution):
            raise ConfigError(f"unknown distribution {self.distribution!r}")
        tent = self.distribution is Distribution.TENT_DEPENDENT
        if not tent and (lower, upper) != (0.0, 1.0):
            raise ConfigError(
                f"bounds apply only to the tent distribution, got {self.bounds}"
            )


@dataclass(frozen=True)
class SimulationResult:
    """Agreement counts per subset bitmask, plus the generating config."""

    config: SimulationConfig
    trials: int
    counts: tuple[int, ...]  # counts[mask] = trials in which subset agreed

    def frequency(self, kinds: Iterable[MeasureKind]) -> float:
        return self.counts[subset_mask(kinds)] / self.trials

    def frequency_of_mask(self, mask: int) -> float:
        return self.counts[mask] / self.trials

    @property
    def all_six_frequency(self) -> float:
        return self.counts[_FULL_MASK] / self.trials


# --- tent distribution -------------------------------------------------------


def _check_tent_args(
    x: float, peak: float, bounds: tuple[float, float]
) -> tuple[float, float]:
    if math.isnan(x):
        raise DomainError(f"tent argument must be a number, got {x}")
    lower, upper = bounds
    if not lower < upper:
        raise DomainError(f"bounds must satisfy lower < upper, got {bounds}")
    if not lower < peak < upper:
        raise DomainError(
            f"tent peak must lie strictly inside bounds, got peak={peak}, bounds={bounds}"
        )
    return lower, upper


def tent_inverse_cdf(
    u: float, peak: float, bounds: tuple[float, float] = (0.0, 1.0)
) -> float:
    """Quantile function of the tent density on bounds peaking at `peak`."""
    lower, upper = _check_tent_args(u, peak, bounds)
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"u must lie in [0, 1], got {u}")
    return float(_tent_quantile(u, peak, lower, upper))


_QUANTILE_WORK = 3  # float scratch arrays of _tent_quantile


def _tent_quantile(u, peak, lower: float, upper: float, out=None, work=None):
    """Tent quantile of u, elementwise for floats or arrays; no checks.

    Every step writes into out or into work, a sequence of _QUANTILE_WORK
    float arrays of out's shape; out may alias u or peak, and is written
    last. Without them, fresh arrays are allocated.

        left  = lower + sqrt(u * (peak - lower) * span)
        right = upper - sqrt((1 - u) * (upper - peak) * span)
        x     = left where u * span <= peak - lower, else right
    """
    if out is None:
        out = np.empty(np.broadcast(u, peak).shape)
    if work is None:
        work = [np.empty_like(out) for _ in range(_QUANTILE_WORK)]
    left, right, c = work
    span = upper - lower
    np.subtract(1.0, u, out=right)
    np.subtract(upper, peak, out=c)
    np.multiply(right, c, out=right)
    np.multiply(right, span, out=right)
    np.subtract(upper, np.sqrt(right, out=right), out=right)
    np.subtract(peak, lower, out=left)
    np.less_equal(np.multiply(u, span, out=c), left, out=c)
    np.multiply(u, left, out=left)
    np.multiply(left, span, out=left)
    np.add(np.sqrt(left, out=left), lower, out=left)
    # The branch is picked by arithmetic, not by np.where: the mask is
    # random, so np.where's per-element branch mispredicts. On a 16K tile
    # (2-CPU Xeon, numpy 2.4) np.where took 70-80 us with a random mask and
    # 15 us with a sorted one, against about 10 us for a multiply. c is 1.0
    # where the mask holds and 0.0 elsewhere, and x = left*c - right*(c - 1)
    # is bit for bit the np.where value:
    # - both branches are finite;
    # - right is never negative or -0.0: the square root is at most
    #   sqrt(span*span) == span <= upper, for bounds in [0, 1] whose span
    #   squared is normal, as SimulationConfig requires;
    # - where c == 1, right*0 is +0.0 and left - 0.0 == left, even for
    #   left = -0.0 (u = -0.0 on lower = -0.0);
    # - where c == 0, left*0 is +-0.0, and +-0.0 + right == right.
    # The form left*c + right*(1 - c) would turn left = -0.0 into +0.0.
    np.multiply(left, c, out=left)
    np.multiply(right, np.subtract(c, 1.0, out=c), out=right)
    return np.subtract(left, right, out=out)


def tent_cdf(x: float, peak: float, bounds: tuple[float, float] = (0.0, 1.0)) -> float:
    lower, upper = _check_tent_args(x, peak, bounds)
    if x <= lower:
        return 0.0
    if x >= upper:
        return 1.0
    span = upper - lower
    if x <= peak:
        return (x - lower) ** 2 / ((peak - lower) * span)
    return 1.0 - (upper - x) ** 2 / ((upper - peak) * span)


def tent_pdf(x: float, peak: float, bounds: tuple[float, float] = (0.0, 1.0)) -> float:
    lower, upper = _check_tent_args(x, peak, bounds)
    if x < lower or x > upper:
        return 0.0
    span = upper - lower
    if x <= peak:
        return 2.0 * (x - lower) / ((peak - lower) * span)
    return 2.0 * (upper - x) / ((upper - peak) * span)


def quadruple_density(
    p1: float,
    p2: float,
    p3: float,
    p4: float,
    bounds: tuple[float, float] = (0.0, 1.0),
) -> float:
    """Joint density of one trial's four risks under TENT_DEPENDENT."""
    lower, upper = bounds
    if any(math.isnan(p) for p in (p1, p2, p3, p4)) or not lower < upper:
        raise DomainError(f"invalid risks {(p1, p2, p3, p4)} or bounds {bounds}")
    if not (lower < p1 < upper and lower < p3 < upper):
        return 0.0
    uniform_density = 1.0 / (upper - lower)
    return (
        uniform_density
        * uniform_density
        * tent_pdf(p2, p1, bounds)
        * tent_pdf(p4, p3, bounds)
    )


# --- sampling ----------------------------------------------------------------


def _tile_scratch(n: int) -> list[np.ndarray]:
    """Scratch for n trials: four float arrays, then two bool arrays.

    The tent quantile uses the first _QUANTILE_WORK arrays and the RR/RR*
    screen all six; run allocates one for its tiles and lends it to both.
    """
    return [*np.empty((4, n)), *np.empty((2, n), dtype=bool)]


def _tiles(n: int) -> Iterator[slice]:
    """Consecutive slices of at most _TILE trials covering range(n)."""
    for start in range(0, n, _TILE):
        yield slice(start, min(start + _TILE, n))


def _open_uniform(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill out with uniform draws on the open interval (0, 1).

    Exact zeros are redrawn; the mask is built only when one exists.
    """
    rng.random(out=out)
    while not out.all():
        mask = out == 0.0
        out[mask] = rng.random(int(mask.sum()))
    return out


def _tiled(
    formula: Callable,
    out: np.ndarray,
    *arrays: np.ndarray,
    work: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Write formula(*arrays) into out one _TILE at a time; out may alias an input.

    formula takes out= and work= keywords and writes its result into out.
    Each tile gets its slice of out and the leading entries of each array
    in work, scratch of at least _TILE entries; without work, formula
    allocates its own. formula is elementwise, so each value equals that of
    an untiled call.
    """
    for tile in _tiles(out.size):
        width = tile.stop - tile.start
        formula(
            *(array[tile] for array in arrays),
            out=out[tile],
            work=None if work is None else [row[:width] for row in work],
        )
    return out


def _redraw_on_bounds(
    values: np.ndarray,
    redraw: Callable[[np.ndarray], np.ndarray],
    lower: float,
    upper: float,
) -> np.ndarray:
    """Replace, in place, the values outside the open interval (lower, upper).

    redraw(bad) returns fresh draws for values[bad]. The mask is built only
    when min() or max() shows a bad value. Raises ConfigError if values are
    still out of bounds after _REDRAW_ROUNDS rounds.
    """
    rounds = 0
    while values.min() <= lower or values.max() >= upper:
        if rounds == _REDRAW_ROUNDS:
            raise ConfigError(
                f"draws still fall outside ({lower!r}, {upper!r}) after "
                f"{rounds} rounds of redrawing; the bounds leave no room to sample"
            )
        bad = (values <= lower) | (values >= upper)
        values[bad] = redraw(bad)
        rounds += 1
    return values


def _draw_block(
    rng: np.random.Generator,
    n: int,
    config: SimulationConfig,
    out: Sequence[np.ndarray] | None = None,
    work: Sequence[np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw n trials' (p1, p2, p3, p4) into the leading n entries of out.

    out holds four float arrays of at least n entries, and work is scratch
    laid out as _tile_scratch's, of at least min(n, _TILE) entries; without
    them, fresh arrays are allocated. The draws depend on neither.
    """
    if out is None:
        out = np.empty((4, n))
    p1, p2, p3, p4 = (buffer[:n] for buffer in out)
    dist = config.distribution
    if dist is not Distribution.TENT_DEPENDENT:
        for risk in (p1, p2, p3, p4):
            _open_uniform(rng, risk)
            if dist is Distribution.UNIFORM_RARE:
                np.multiply(risk, 0.1, out=risk)
        return p1, p2, p3, p4
    lower, upper = config.bounds
    span = upper - lower
    quantile = partial(_tent_quantile, lower=lower, upper=upper)
    if work is None:
        work = np.empty((_QUANTILE_WORK, min(_TILE, n)))
    work = work[:_QUANTILE_WORK]

    def control(risk: np.ndarray) -> np.ndarray:
        # lower + span * u
        np.multiply(_open_uniform(rng, risk), span, out=risk)
        return np.add(risk, lower, out=risk)

    def exposed(peak: np.ndarray, risk: np.ndarray) -> np.ndarray:
        return _tiled(quantile, risk, _open_uniform(rng, risk), peak, work=work)

    # Floating rounding can park a draw exactly on a bound. A control risk
    # on L or U is no tent peak (the exposed redraw below could then spin
    # forever), and an exposed risk on 0 or 1 loses the measures' limits,
    # so such draws are redrawn.
    for risk in (p1, p3):
        _redraw_on_bounds(
            control(risk), lambda bad: control(np.empty(int(bad.sum()))), lower, upper
        )
    exposed(p1, p2)
    exposed(p3, p4)
    for risk, peak in ((p2, p1), (p4, p3)):
        _redraw_on_bounds(
            risk, lambda bad: exposed(peak[bad], np.empty(int(bad.sum()))), 0.0, 1.0
        )
    return p1, p2, p3, p4


def _direction_masks(
    p1: np.ndarray, p2: np.ndarray, p3: np.ndarray, p4: np.ndarray
) -> np.ndarray:
    """Per-trial key (toward_p_bits << 6) | toward_q_bits over the six kinds."""
    em_p = _strict_measures(p1, p2, np.log, np.log1p)
    em_q = _strict_measures(p3, p4, np.log, np.log1p)
    toward_p = np.zeros(p1.shape, dtype=np.uint16)
    toward_q = np.zeros(p1.shape, dtype=np.uint16)
    for bit, (vp, vq) in enumerate(zip(em_p, em_q)):
        toward_p |= (vq < vp).astype(np.uint16) << bit
        toward_q |= (vq > vp).astype(np.uint16) << bit
    return (toward_p.astype(np.uint32) << 6) | toward_q


def _counts_from_histogram(hist: np.ndarray) -> tuple[int, ...]:
    keys = np.arange(4096)
    key_toward_p = keys >> 6
    key_toward_q = keys & 63
    return tuple(
        int(hist[subset_agrees(key_toward_p, key_toward_q, mask)].sum())
        for mask in range(_N_SUBSETS)
    )


def _gate_conflicts(p1, p2, p3, p4, out=None, work=None):
    """Trials whose RR and RR* point in opposite directions, strictly.

    RR and RR* come from measures._relative_risks, which _strict_measures
    also reads, and the comparisons are those of _direction_masks, so a tie
    in either measure never conflicts. Elementwise on arrays. The flags go
    into out, a bool array, and every step writes into out or into work,
    laid out as _tile_scratch's; without them, fresh arrays are allocated.
    """
    if out is None:
        out = np.empty(p1.shape, dtype=bool)
    if work is None:
        work = _tile_scratch(p1.size)
    rr_p, star_p, rr_q, star_q, flag, other = work
    _relative_risks(p1, p2, out=(rr_p, star_p))
    _relative_risks(p3, p4, out=(rr_q, star_q))
    # (rr_q < rr_p & star_q > star_p) | (rr_q > rr_p & star_q < star_p)
    np.logical_and(
        np.less(rr_q, rr_p, out=flag), np.greater(star_q, star_p, out=other), out=out
    )
    np.logical_and(
        np.greater(rr_q, rr_p, out=flag), np.less(star_q, star_p, out=other), out=flag
    )
    return np.logical_or(out, flag, out=out)


def run(config: SimulationConfig) -> SimulationResult:
    """Run the simulation; deterministic for a fixed seed."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    hist = np.zeros(4096, dtype=np.int64)
    width = min(_BLOCK, config.trials)
    buffers = np.empty((4, width))
    gate = np.empty(width, dtype=bool)
    work = _tile_scratch(min(_TILE, width))
    remaining = config.trials
    while remaining > 0:
        block = min(_BLOCK, remaining)
        draws = _draw_block(rng, block, config, out=buffers, work=work)
        conflicts = np.flatnonzero(_tiled(_gate_conflicts, gate[:block], *draws, work=work))
        for tile in _tiles(conflicts.size):
            keys = _direction_masks(*(p[conflicts[tile]] for p in draws))
            hist += np.bincount(keys, minlength=4096)
        # every other trial agrees on all 64 subsets, as key 0 does
        hist[0] += block - conflicts.size
        remaining -= block
    return SimulationResult(
        config=config, trials=config.trials, counts=_counts_from_histogram(hist)
    )


# --- Venn table --------------------------------------------------------------


@dataclass(frozen=True)
class VennRow:
    bitmask: int
    members: tuple[MeasureKind, ...]
    count: int
    frequency: float


def venn_table(result: SimulationResult) -> tuple[VennRow, ...]:
    """All 64 subset rows in bitmask order."""
    return tuple(
        VennRow(
            bitmask=mask,
            members=mask_members(mask),
            count=result.counts[mask],
            frequency=result.counts[mask] / result.trials,
        )
        for mask in range(_N_SUBSETS)
    )


def venn_csv(result: SimulationResult) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["bitmask", "members", "count", "frequency"])
    for row in venn_table(result):
        writer.writerow(
            [
                row.bitmask,
                "+".join(kind.value for kind in row.members),
                row.count,
                repr(row.frequency),
            ]
        )
    return buffer.getvalue()


def venn_json_rows(result: SimulationResult) -> list[dict]:
    return [
        {
            "bitmask": row.bitmask,
            "members": [kind.value for kind in row.members],
            "count": row.count,
            "frequency": row.frequency,
        }
        for row in venn_table(result)
    ]
