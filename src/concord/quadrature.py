"""Deterministic verification of the relative-risk disagreement probability.

For fixed (p1, p2, p3) with p4 uniform on (0, 1), the probability that RR
and RR* disagree is the width of the unit-interval part of the interval
between their critical values:

    g(p1, p2, p3) = min{1, max{c_rr, c_rr*}} - max{0, min{c_rr, c_rr*}}

with c_rr = p2*p3/p1 and c_rr* = 1 - (1-p2)(1-p3)/(1-p1). Integrating g
over (0,1)^3 gives the overall disagreement probability. The cube splits
into four regions by the planes p1 = p2 and p1 = p3 (on the planes g = 0):

    A: p1 < p2, p1 < p3      B: p1 > p2, p1 < p3
    C: p1 < p2, p1 > p3      D: p1 > p2, p1 > p3

Each region integral equals 1/24, the total 1/6. Region A additionally
decomposes into three closed-form parts 1/16 + 1/4 - 13/48 (the minimum
min{1, c_rr} resolved on either side of the surface p3 = p1/p2).

Numerics: the p3 integral is done exactly and only the (p1, p2) box is
summed numerically. For fixed (p1, p2) both critical values are linear in
p3 with positive slope, and inside a region they never cross (they meet
only on the plane p3 = p1), so g = clip(high, 0, 1) - clip(low, 0, 1).
Each line's value at the ends of the region's p3 range fixes its clip
branch:

    A, p3 in (p1, 1): c_rr from p2 to p2/p1 > 1, c_rr* from p2 to 1
    B, p3 in (p1, 1): c_rr from p2 to p2/p1 < 1, c_rr* from p2 to 1
    C, p3 in (0, p1): c_rr from 0 to p2, c_rr* from (p2-p1)/(1-p1) > 0 to p2
    D, p3 in (0, p1): c_rr from 0 to p2, c_rr* from (p2-p1)/(1-p1) < 0 to p2

So only c_rr in A (cut to 1 above p3 = p1/p2) and c_rr* in D (cut to 0
below p3 = (p1-p2)/(1-p2)) are clipped, and each region's inner integral
has a closed form (A's is part1 + part2 - part3 below, simplified):

    A: (p2-p1)(1-p2) / (2 p2)      B: (1-p1)(p1-p2) / (2 p1)
    C: p1(p2-p1) / (2(1-p1))       D: p2(p1-p2) / (2(1-p2))

Each factor is positive inside its region and is taken from p1 and p2
with at most two roundings, and no rounded values cancel, so each form is
accurate to a few roundings, relative.

The outer integral is the midpoint rule on an n^2 grid, mapped onto each
region by a box transform so the grid never touches the singular planes;
it converges as O(h^2). One pass sums all inner integrals of a box: p2
above p1 for A, C and the region-A parts, below it for B and D. It walks
blocks of p1 rows of about 8k points in one scratch allocation (p2, the
value row and an inner's temporary); each block builds its p2 grid once
and every inner reads it and writes through out=, so the heap does not grow
and shrink from block to block. The float operations are those of fresh
temporaries, in the same order, so each inner's sum is bit-identical to
an allocating evaluation of it alone. The reported error bound is the
difference from the half-resolution estimate; the error of
`total_probability` is the sum of the four region errors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

import numpy as np

from .agreement import disagreement_window
from .errors import ResolutionError
from .measures import MeasureKind

__all__ = [
    "Region",
    "QuadratureEstimate",
    "integrand",
    "region_probability",
    "region_a_parts",
    "total_probability",
    "sum_estimates",
]

_MIN_CELLS = 8
# The work grows as cells^2: on a 2-CPU Xeon, `concord exact` took 1.1 s at
# 4096 cells per axis and 6.6 s at this cap, 2^14, in 30 MB.
_MAX_CELLS = 1 << 14
_BLOCK_POINTS = 8192  # (p1, p2) grid points evaluated per vectorised block


class Region(enum.Enum):
    """The four open regions of (0,1)^3 cut by p1 = p2 and p1 = p3."""

    A = "A"  # p1 < p2, p1 < p3
    B = "B"  # p1 > p2, p1 < p3
    C = "C"  # p1 < p2, p1 > p3
    D = "D"  # p1 > p2, p1 > p3

    def contains(self, p1: float, p2: float, p3: float) -> bool:
        return {
            Region.A: p1 < p2 and p1 < p3,
            Region.B: p1 > p2 and p1 < p3,
            Region.C: p1 < p2 and p1 > p3,
            Region.D: p1 > p2 and p1 > p3,
        }[self]


@dataclass(frozen=True)
class QuadratureEstimate:
    value: float
    error: float  # |estimate - half-resolution estimate|
    resolution: int  # cells per axis actually used


def integrand(p1: float, p2: float, p3: float) -> float:
    """Width of the p4 interval on which RR and RR* disagree."""
    return disagreement_window(p1, p2, p3, MeasureKind.RR, MeasureKind.RR_STAR).width


def _scratch(shape: tuple[int, ...], floats: int) -> list[np.ndarray]:
    """`floats` float buffers of one shape, cut from one allocation."""
    block = np.empty((floats, *shape))
    return [block[i, ...] for i in range(floats)]


_REGION_WORK = 1  # float temporaries of _region_inner, the most any inner integral needs


def _region_inner(
    region: Region,
    p1: np.ndarray,
    p2: np.ndarray,
    out: np.ndarray,
    work: list[np.ndarray],
) -> np.ndarray:
    """Exact integral of g over the region's p3 range for each (p1, p2).

    The closed forms of the module docstring, which hold only for (p1, p2)
    inside the region's box. The result goes to out, with the
    _REGION_WORK float buffers in work as scratch, all of the broadcast
    shape of p1 and p2.
    """
    (tmp,) = work
    if region is Region.A:  # (p2-p1)(1-p2) / (2 p2)
        np.multiply(np.subtract(p2, p1, out=out), np.subtract(1.0, p2, out=tmp), out=out)
        return np.divide(out, np.multiply(2.0, p2, out=tmp), out=out)
    # B and C take their p1 factor first, once per grid row
    if region is Region.B:  # (1-p1)(p1-p2) / (2 p1)
        return np.multiply((1.0 - p1) / (2.0 * p1), np.subtract(p1, p2, out=out), out=out)
    if region is Region.C:  # p1(p2-p1) / (2(1-p1))
        return np.multiply(p1 / (2.0 * (1.0 - p1)), np.subtract(p2, p1, out=out), out=out)
    # D: p2(p1-p2) / (2(1-p2))
    np.multiply(p2, np.subtract(p1, p2, out=out), out=out)
    return np.divide(out, np.multiply(2.0, np.subtract(1.0, p2, out=tmp), out=tmp), out=out)


def _part_inner(
    part: int,
    p1: np.ndarray,
    p2: np.ndarray,
    out: np.ndarray,
    work: list[np.ndarray],
) -> np.ndarray:
    """Exact inner p3 integral of one piece of the region-A decomposition.

    Region A fixes p1 < p2 and p1 < p3. The minimum min{1, c_rr} switches
    at p3 = p1/p2, which always lies inside (p1, 1) here, splitting the
    inner integral into

        part 1: p3 in (p1, p1/p2), integrand c_rr = p2*p3/p1   -> 1/16
        part 2: p3 in (p1/p2, 1), integrand 1                  -> 1/4
        part 3: p3 in (p1, 1), integrand c_rr* (subtracted)    -> 13/48

    Each form is a product and quotient of factors taken from p1 and p2
    with at most one rounding each, so no rounded values cancel. The
    result goes to out, with the _REGION_WORK float buffers in work as
    scratch.
    """
    (tmp,) = work
    if part == 1:  # p1 (1-p2)(1+p2) / (2 p2)
        np.multiply(0.5 * p1, np.subtract(1.0, p2, out=out), out=out)
        np.multiply(out, np.add(1.0, p2, out=tmp), out=out)
        return np.divide(out, p2, out=out)
    if part == 2:  # (p2-p1) / p2
        return np.divide(np.subtract(p2, p1, out=out), p2, out=out)
    # 0.5 (1-p1)(1+p2)
    return np.multiply(0.5 * (1.0 - p1), np.add(1.0, p2, out=out), out=out)


def _grid_sums(
    inners: list[Callable[..., np.ndarray]], p2_below: bool, cells: int
) -> list[float]:
    """Midpoint sums over (p1, p2) of the p2-range width times each inner(p1, p2).

    The unit square maps onto the region's box: its first axis is p1, and
    u on its second axis spans the p2 range below or above p1. Rows of p1
    are evaluated in blocks of about _BLOCK_POINTS grid points, all in one
    scratch allocation. Every inner(p1, p2, out, work) reads the block's p2,
    writes its value row to out and may use the _REGION_WORK buffers in work.
    """
    mids = (np.arange(cells) + 0.5) / cells
    u = mids[None, :]
    rows = max(1, _BLOCK_POINTS // cells)
    buffers = _scratch((rows, cells), 2 + _REGION_WORK)
    totals = [0.0] * len(inners)
    for first in range(0, cells, rows):
        p1 = mids[first : first + rows, None]
        n = len(p1)  # the last block may be partial
        p2, value, *work = (buffer[:n] for buffer in buffers)
        width = p1 if p2_below else 1.0 - p1
        np.multiply(width, u, out=p2)
        if not p2_below:
            np.add(p1, p2, out=p2)
        for i, inner in enumerate(inners):
            inner(p1, p2, value, work)
            totals[i] += float(np.multiply(width, value, out=value).sum())
    return [total / cells**2 for total in totals]


def _estimates(
    inners: list[Callable[..., np.ndarray]], p2_below: bool, cells: int
) -> list[QuadratureEstimate]:
    """Each inner's sum on `cells` cells per axis, reporting the refinement error."""
    if not float(cells).is_integer() or not _MIN_CELLS <= cells <= _MAX_CELLS:
        raise ResolutionError(
            f"grid scheme needs an integer resolution >= {_MIN_CELLS} and"
            f" <= {_MAX_CELLS}, got {cells!r}"
        )
    cells = int(cells)
    coarse = _grid_sums(inners, p2_below, cells // 2)
    fine = _grid_sums(inners, p2_below, cells)
    return [QuadratureEstimate(f, abs(f - c), cells) for c, f in zip(coarse, fine)]


def _all_estimates(resolution: int, parts: Iterable[int] = ()) -> list[QuadratureEstimate]:
    """Regions A, B, C, D, then the given region-A parts, in one pass per box."""
    above = [partial(_region_inner, Region.A), partial(_region_inner, Region.C)]
    a, c, *part_estimates = _estimates(
        [*above, *(partial(_part_inner, part) for part in parts)], False, resolution
    )
    below = [partial(_region_inner, Region.B), partial(_region_inner, Region.D)]
    b, d = _estimates(below, True, resolution)
    return [a, b, c, d, *part_estimates]


def region_probability(region: Region, resolution: int = 256) -> QuadratureEstimate:
    """Integral of the disagreement width over one region (exactly 1/24).

    resolution is the number of grid cells per axis, an integer from 8 to
    16384.
    """
    p2_below = region in (Region.B, Region.D)
    return _estimates([partial(_region_inner, region)], p2_below, resolution)[0]


def total_probability(resolution: int = 256) -> QuadratureEstimate:
    """Integral over all four regions (exactly 1/6)."""
    return sum_estimates(_all_estimates(resolution))


def sum_estimates(estimates: Iterable[QuadratureEstimate]) -> QuadratureEstimate:
    """The estimate of a sum of integrals: values and errors add."""
    estimates = list(estimates)
    return QuadratureEstimate(
        value=sum(e.value for e in estimates),
        error=sum(e.error for e in estimates),
        resolution=max(e.resolution for e in estimates),
    )


def region_a_parts(
    resolution: int = 256,
) -> tuple[QuadratureEstimate, QuadratureEstimate, QuadratureEstimate]:
    """The three closed-form pieces of region A: 1/16, 1/4, 13/48.

    Parts 1 and 2 sum the resolved minimum; part 3 is the subtracted
    critical-value term, so part1 + part2 - part3 equals the region A
    integral (1/24).
    """
    inners = [partial(_part_inner, part) for part in (1, 2, 3)]
    return tuple(_estimates(inners, False, resolution))  # type: ignore[return-value]
