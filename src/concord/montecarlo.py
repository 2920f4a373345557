"""Monte Carlo estimation of agreement probabilities for measure subsets.

Each trial draws four risks (p1, p2) and (p3, p4), computes the direction
of modification for all six measures, and records for each of the 64
measure subsets whether the subset agreed (no internal pair pointing in
opposite directions). Frequencies over many trials estimate the
agreement probabilities.

The measures come from the formulas the scalar path uses,
measures._strict_measures, evaluated on arrays of draws. Directions
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
key has bits on both sides, for the draw models it lists. Near 1 that
fails: at bounds (0.9999999999999, 1), tent or uniform, a float RR can tie
while RD and RR* split, and the screen counts that trial at key 0 (strict
xfails of test_screened_counts_equal_unscreened_counts).

Risk distributions, on bounds (L, U) within [0, 1] (SimulationConfig):

    UNIFORM_UNIT    all four risks iid uniform on (L, U); default (0, 1)
    UNIFORM_RARE    the same, with default bounds (0, 0.1)
    TENT_DEPENDENT  control risks p1, p3 uniform on (L, U); exposed risks
                    drawn from asymmetric tent (triangular) densities on
                    (L, U) peaking at the stratum's control risk, so
                    exposed and control risks are positively correlated

The rare limit: RR and RD are homogeneous, so scaling all four risks by r
changes neither direction, and P(RR/RD disagree), about 1/12, is the same
for iid uniform risks on (0, r) at every r. RR* points as the sign of
[(p4-p3) - (p2-p1)] + (p2 p3 - p1 p4), RD's O(r) comparison plus an O(r^2)
term, so P_r(RR*/RD disagree) = O(r), and by the triangle inequality on
directions |P_r(RR/RR*) - P(RR/RD)| <= P_r(RR*/RD): RR/RR* disagreement
falls from 1/6 at r = 1 toward 1/12 as r -> 0.

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
blends its two branches by arithmetic, not np.where (see _tent_quantile).

Reproducibility: a run reads two PCG64 generators, seeded with the two
children that SeedSequence(seed) spawns: the main stream and the spare.
Trials are drawn in blocks of _BLOCK trials (the last block may be
shorter), and each uniform draw takes one 64-bit output, so a block of n
trials takes exactly 4n outputs of the main stream: n for each of p1, p2,
p3, p4 in turn, or p1, p3, p2, p4 for tent. A value that cannot be used (a
uniform 0.0, a risk mapped onto a bound, an exposed risk on 0 or 1) is
replaced in place by draws from the spare, which are themselves kept
inside (0, 1), tile by tile in the order _draw_tile gives; no other value
moves. The counts are therefore a function of (seed, trials, distribution,
bounds) alone, bit-identical from run to run, and STREAM_LAYOUT names this
map. At the default bounds no block of 5 seeds x 1e6 trials per
distribution read the spare; at bounds two doubles apart every tile does.

Memory: run never holds a block. For each block it sets four copies of
the main generator, the lanes, to the places of p1, p2, p3, p4 in the
block's stream (PCG64.advance), moves the main generator past the block,
and draws _TILE trials at a time from the lanes (_draw_tile). The RR/RR*
screen runs on each tile while it is still in cache, and the conflicts are
packed into a _TILE-trial buffer that goes through the kernel when the
next tile's conflicts would not fit, and at the end of the block
(_block_counts). The tent quantile, the screen and the kernel are
elementwise and the histogram is a sum, so every count equals that of an
untiled evaluation of the same draws. Every array a run works in, about
3.2 MiB, is cut from one allocation (_Scratch): the tile's draws, the
screen's and the quantile's work, the packed conflicts, and the kernel's
measures and keys. As separate pieces of 16 KiB-1.5 MiB they were trimmed
by glibc and faulted in again, about 720 minor faults per 1e6-trial run;
in one allocation a steady-state run faults none.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import numbers
import sys
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Iterable, Sequence

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

# The version of the map from (seed, trials, distribution, bounds) to the
# draws, as written in simulate's full-precision report. A change that gives
# a seed other draws bumps it; the same layout gives the same counts.
STREAM_LAYOUT = 2
_BLOCK = 1 << 18  # trials per vectorized block, bounds peak memory
_TILE = 1 << 14  # trials per tile: a float temporary is 128 KiB, within L2
_N_SUBSETS = 64
# Rounds of _redraw_on_bounds before it gives up. Each round redraws only
# the values still on a bound, and redraws run per tile of 2^14 values. At
# the narrowest valid bounds, with a single double between them, about half
# the draws land on a bound, so each round halves a tile's bad values; 64
# rounds fail with a probability of about 2^14 * 2^-64 per tile.
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
    bounds: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.distribution, Distribution):
            raise ConfigError(f"unknown distribution {self.distribution!r}")
        if self.bounds is None:  # (0, 0.1) for rare, else (0, 1)
            upper = 0.1 if self.distribution is Distribution.UNIFORM_RARE else 1.0
            object.__setattr__(self, "bounds", (0.0, upper))
        for name, least in (("trials", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
        try:
            lower, upper = self.bounds
        except (TypeError, ValueError):
            lower = upper = None
        for bound in (lower, upper):
            if isinstance(bound, bool) or not isinstance(bound, numbers.Real):
                raise ConfigError(f"bounds must be two reals, got {self.bounds!r}")
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
                "for every distribution, the span squared times 2**-106 must be"
                f" a normal float; upper - lower is too small, got {self.bounds}"
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


def _spare_draws(spare: np.random.Generator, bad: np.ndarray) -> np.ndarray:
    """One draw on (0, 1) from spare for each True in bad; zeros are redrawn."""

    def draws(mask: np.ndarray) -> np.ndarray:
        return spare.random(int(mask.sum()))

    return _redraw_on_bounds(draws(bad), draws, 0.0, 1.0)


_KERNEL_FLOATS = 12  # float scratch arrays of _direction_masks, six per stratum


def _direction_masks(p1, p2, p3, p4, out, work) -> np.ndarray:
    """Per-trial key (toward_p_bits << 6) | toward_q_bits over the six kinds.

    The keys go into out, an intp array, and every step writes into out or
    into work: _KERNEL_FLOATS float arrays, a bool array and three uint8
    arrays, all of p1's shape (_Scratch's keys and kernel).
    """
    em_p = _strict_measures(p1, p2, out=work[:6])
    em_q = _strict_measures(p3, p4, out=work[6:_KERNEL_FLOATS])
    flag, bits, toward_p, toward_q = work[_KERNEL_FLOATS:]
    toward_p.fill(0)
    toward_q.fill(0)
    for bit, (vp, vq) in enumerate(zip(em_p, em_q)):
        for side, compare in ((toward_p, np.less), (toward_q, np.greater)):
            compare(vq, vp, out=flag)
            np.left_shift(flag.view(np.uint8), bit, out=bits)
            np.bitwise_or(side, bits, out=side)
    np.left_shift(toward_p, 6, out=out, dtype=np.intp)
    return np.bitwise_or(out, toward_q, out=out)


@cache
def _agreement_rows() -> np.ndarray:
    """For each of the 64 subsets, the direction keys on which it agrees.

    A read-only (64, 4096) bool array, built once per process from
    subset_agrees.
    """
    keys = np.arange(4096)
    rows = np.stack(
        [subset_agrees(keys >> 6, keys & 63, mask) for mask in range(_N_SUBSETS)]
    )
    rows.flags.writeable = False
    return rows


def _counts_from_histogram(hist: np.ndarray) -> tuple[int, ...]:
    return tuple(int(hist[row].sum()) for row in _agreement_rows())


def _gate_conflicts(p1, p2, p3, p4, out, work):
    """Trials whose RR and RR* point in opposite directions, strictly.

    RR and RR* come from measures._relative_risks, which _strict_measures
    also reads, and the comparisons are those of _direction_masks, so a tie
    in either measure never conflicts. The flags are the two-sided keys only
    for the draw models the gate test checks (see the module docstring). The flags
    go into out, a bool array, and every step writes into out or into work:
    four float arrays, then two bool arrays, all of p1's shape.
    """
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


def _draw_tile(
    lanes: Sequence[np.random.Generator],
    spare: np.random.Generator,
    config: SimulationConfig,
    out: Sequence[np.ndarray],
    work: Sequence[np.ndarray],
) -> None:
    """Draw one tile of (p1, p2, p3, p4) into out, each risk from its own lane.

    lanes[k] sits where the tile's draws of risk k lie in the block's stream.
    Uniform risks and tent control risks are mapped to lower + span * u,
    except at bounds (0, 1), where the map is the identity. Values off their
    bounds are replaced in place by draws from spare, in this order: the
    uniform 0.0s of p1, p2, p3, p4, then the mapped risks on a bound (all
    four for uniform and rare, p1, p3 for tent), then tent's exposed risks
    p2, p4 on 0 or 1. work's first _QUANTILE_WORK arrays, float arrays of at
    least the tile's size, are the tent quantile's scratch.
    """
    fresh = partial(_spare_draws, spare)
    for lane, risk in zip(lanes, out):
        if not lane.random(out=risk).all():
            _redraw_on_bounds(risk, fresh, 0.0, 1.0)
    tent = config.distribution is Distribution.TENT_DEPENDENT
    p1, p2, p3, p4 = out
    lower, upper = config.bounds

    def scale(u: np.ndarray) -> np.ndarray:  # lower + span * u
        return np.add(np.multiply(u, upper - lower, out=u), lower, out=u)

    # Floating rounding can park a draw exactly on a bound. A risk on L or U
    # is off its support, and an exposed risk on 0 or 1 loses the measures'
    # limits, so such draws are replaced.
    if (lower, upper) != (0.0, 1.0):
        for risk in (p1, p3) if tent else out:
            scale(risk)
            if not _scale_stays_inside(lower, upper):
                _redraw_on_bounds(risk, lambda bad: scale(fresh(bad)), lower, upper)
    if not tent:
        return
    work = [row[: p1.size] for row in work[:_QUANTILE_WORK]]
    for risk, peak in ((p2, p1), (p4, p3)):
        _tent_quantile(risk, peak, lower, upper, out=risk, work=work)
        _redraw_on_bounds(
            risk,
            lambda bad: _tent_quantile(fresh(bad), peak[bad], lower, upper),
            0.0,
            1.0,
        )


@cache
def _scale_stays_inside(lower: float, upper: float) -> bool:
    """Whether _draw_tile's scale maps every draw u in [2**-53, 1 - 2**-53]
    strictly inside (lower, upper); the rounded map is monotone in u."""
    span = upper - lower
    return lower < 2.0**-53 * span + lower and (1.0 - 2.0**-53) * span + lower < upper


class _Scratch:
    """Every array a run works in, cut from one allocation, for tiles of n trials.

    draws       the four risks of a tile
    screen      _gate_conflicts' work, four float arrays then two bool
                arrays; the tent quantile uses its first _QUANTILE_WORK
    gate        the screen's flags
    packed      the four risks of up to n conflicts awaiting the kernel
    keys, kernel  _direction_masks' out and work
    """

    def __init__(self, n: int) -> None:
        rows = np.empty((4 + 4 + 4 + _KERNEL_FLOATS + 2, n))
        flags = rows[-1].view(np.uint8).reshape(8, n)  # eight byte arrays
        self.draws = list(rows[0:4])
        self.screen = [*rows[4:8], *flags[0:2].view(bool)]
        self.gate = flags[2].view(bool)
        self.packed = list(rows[8:12])
        self.keys = rows[-2].view(np.intp)
        self.kernel = [*rows[12:-2], flags[3].view(bool), *flags[4:7]]


def _count_packed(scratch: _Scratch, n: int, hist: np.ndarray) -> None:
    """Add the kernel's keys of the first n packed trials to hist."""
    keys = _direction_masks(
        *(risk[:n] for risk in scratch.packed),
        out=scratch.keys[:n],
        work=[row[:n] for row in scratch.kernel],
    )
    hist += np.bincount(keys, minlength=4096)


def _block_counts(
    rng: np.random.Generator,
    spare: np.random.Generator,
    lanes: Sequence[np.random.Generator],
    n: int,
    config: SimulationConfig,
    scratch: _Scratch,
) -> np.ndarray:
    """Direction-key histogram of the next n trials of rng's stream.

    Streams the block tile by tile: lanes are set to the places of p1..p4
    in the block's stream, and rng moves past the block's 4n outputs. Each
    tile is drawn and screened; trials with no RR/RR* conflict count at key
    0, and the conflicts are packed into scratch.packed, which goes through
    the kernel when the next tile's conflicts would not fit, and at the end
    of the block. The kernel is elementwise and the histogram a sum, so the
    grouping does not change the counts.
    """
    # where p1, p2, p3, p4 start in the block's stream, in units of n: in
    # turn, or p1, p3, p2, p4 for tent
    tent = config.distribution is Distribution.TENT_DEPENDENT
    places = (0, 2, 1, 3) if tent else (0, 1, 2, 3)
    state = rng.bit_generator.state
    for lane, place in zip(lanes, places):
        lane.bit_generator.state = state
        lane.bit_generator.advance(place * n)
    rng.bit_generator.advance(4 * n)
    hist = np.zeros(4096, dtype=np.int64)
    packed = 0
    for start in range(0, n, _TILE):
        width = min(_TILE, n - start)
        draws = [row[:width] for row in scratch.draws]
        _draw_tile(lanes, spare, config, draws, scratch.screen)
        gate = _gate_conflicts(
            *draws,
            out=scratch.gate[:width],
            work=[row[:width] for row in scratch.screen],
        )
        conflicts = np.flatnonzero(gate)
        if packed + conflicts.size > scratch.keys.size:
            _count_packed(scratch, packed, hist)
            packed = 0
        end = packed + conflicts.size
        for risk, buffer in zip(draws, scratch.packed):
            np.take(risk, conflicts, out=buffer[packed:end], mode="clip")
        packed = end
        # every other trial agrees on all 64 subsets, as key 0 does
        hist[0] += width - conflicts.size
    _count_packed(scratch, packed, hist)
    return hist


def run(config: SimulationConfig) -> SimulationResult:
    """Run the simulation; deterministic for a fixed seed."""
    main, spare = np.random.SeedSequence(config.seed).spawn(2)
    rng, spare = np.random.default_rng(main), np.random.default_rng(spare)
    # each lane's state is overwritten before it draws
    lanes = [np.random.Generator(np.random.PCG64()) for _ in range(4)]
    scratch = _Scratch(min(_TILE, config.trials))
    hist = np.zeros(4096, dtype=np.int64)
    remaining = config.trials
    while remaining > 0:
        block = min(_BLOCK, remaining)
        hist += _block_counts(rng, spare, lanes, block, config, scratch)
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
