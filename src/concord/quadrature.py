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
only on the plane p3 = p1), so g = clip(high, 0, 1) - clip(low, 0, 1) and
each clipped line has a closed-form integral. The outer integral is the
midpoint rule on an n^2 grid, mapped onto each region by a box transform
so the grid never touches the singular planes; it converges as O(h^2).
The grid is evaluated in blocks of p1 rows of about 8k points each. Each
sum allocates its scratch once, as one float array (p2, the value row and
the inner integral's temporaries) and one bool mask, and every block
writes into it through out=, so the heap does not grow and shrink from
block to block. The float operations are those of fresh temporaries, in
the same order, so every value is bit-identical to an allocating
evaluation. The reported error bound is the difference from the
half-resolution estimate; the error of `total_probability` is the sum of
the four region errors.
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
# The cost grows as cells^2: on a 2-CPU Xeon, 4096 cells per axis took 2.6 s
# and this cap, 2^14, took 35 s, in 31 MB.
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


def _scratch(shape: tuple[int, ...], floats: int) -> tuple[list[np.ndarray], np.ndarray]:
    """`floats` float buffers of one shape, cut from one allocation, and a bool mask."""
    block = np.empty((floats, *shape))
    return [block[i, ...] for i in range(floats)], np.empty(shape, dtype=bool)


def _clip_antiderivative(y: np.ndarray, tmp: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Antiderivative of clip(y, 0, 1): 0 below 0, y^2/2 on [0, 1], y - 1/2 above.

    The result is written over y; tmp and mask are scratch of y's shape.
    """
    np.less(y, 1.0, out=mask)
    np.multiply(0.5, np.square(np.maximum(y, 0.0, out=tmp), out=tmp), out=tmp)
    np.subtract(y, 0.5, out=y)
    np.copyto(y, tmp, where=mask)
    return y


_REGION_WORK = 5  # float temporaries of _region_inner, the most any inner integral needs


def _region_inner(
    region: Region,
    p1: np.ndarray,
    p2: np.ndarray,
    out: np.ndarray | None = None,
    work: list[np.ndarray] | None = None,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Exact integral of g over the region's p3 range for each (p1, p2).

    For a line f of slope m > 0 the integral of clip(f, 0, 1) over (lo, hi)
    is (R(f(hi)) - R(f(lo))) / m, with R the clip antiderivative. c_rr
    exceeds c_rr* in regions A and D and falls below it in B and C.

    The result goes to out, with _REGION_WORK float buffers in work and a
    bool mask as scratch, all of the broadcast shape of p1 and p2; without
    out (say, on scalars) they are allocated here.
    """
    if out is None:
        (out, *work), mask = _scratch(np.broadcast(p1, p2).shape, 1 + _REGION_WORK)
    lo, hi = (0.0, p1) if region in (Region.C, Region.D) else (p1, 1.0)
    R = partial(_clip_antiderivative, mask=mask)
    m_rr, m_star, a, b, c = work
    np.divide(p2, p1, out=m_rr)
    np.divide(np.subtract(1.0, p2, out=m_star), 1.0 - p1, out=m_star)
    # rr = (R(m_rr * hi) - R(m_rr * lo)) / m_rr, in a
    R(np.multiply(m_rr, hi, out=a), c)
    R(np.multiply(m_rr, lo, out=b), c)
    rr = np.divide(np.subtract(a, b, out=a), m_rr, out=a)
    # star = (R(1 - m_star * (1 - hi)) - R(1 - m_star * (1 - lo))) / m_star, in b
    R(np.subtract(1.0, np.multiply(m_star, 1.0 - hi, out=b), out=b), c)
    R(np.subtract(1.0, np.multiply(m_star, 1.0 - lo, out=c), out=c), m_rr)
    star = np.divide(np.subtract(b, c, out=b), m_star, out=b)
    if region in (Region.A, Region.D):
        return np.subtract(rr, star, out=out)
    return np.subtract(star, rr, out=out)


def _part_inner(
    part: int,
    p1: np.ndarray,
    p2: np.ndarray,
    out: np.ndarray | None = None,
    work: list[np.ndarray] | None = None,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Exact inner p3 integral of one piece of the region-A decomposition.

    Region A fixes p1 < p2 and p1 < p3. The minimum min{1, c_rr} switches
    at p3 = p1/p2, which always lies inside (p1, 1) here, splitting the
    inner integral into

        part 1: p3 in (p1, p1/p2), integrand c_rr = p2*p3/p1   -> 1/16
        part 2: p3 in (p1/p2, 1), integrand 1                  -> 1/4
        part 3: p3 in (p1, 1), integrand c_rr* (subtracted)    -> 13/48

    The result goes to out, or to a new value without it; work and mask
    are unused, and accepted so that _grid_sum calls every inner alike.
    """
    if part == 1:
        # 0.5 * p1 * (1/p2 - p2)
        inner = np.subtract(np.divide(1.0, p2, out=out), p2, out=out)
        return np.multiply(0.5 * p1, inner, out=out)
    if part == 2:
        # 1 - p1/p2
        return np.subtract(1.0, np.divide(p1, p2, out=out), out=out)
    # 0.5 * (1 - p1) * (1 + p2)
    return np.multiply(0.5 * (1.0 - p1), np.add(1.0, p2, out=out), out=out)


def _grid_sum(inner: Callable[..., np.ndarray], p2_below: bool, cells: int) -> float:
    """Midpoint sum over (p1, p2) of the p2-range width times inner(p1, p2).

    The unit square maps onto the region's box: its first axis is p1, and
    u on its second axis spans the p2 range below or above p1. Rows of p1
    are evaluated in blocks of about _BLOCK_POINTS grid points, all in one
    scratch allocation: inner(p1, p2, out, work, mask) writes its value
    row to out and may use the _REGION_WORK buffers in work and the mask.
    """
    mids = (np.arange(cells) + 0.5) / cells
    u = mids[None, :]
    rows = max(1, _BLOCK_POINTS // cells)
    buffers, mask = _scratch((rows, cells), 2 + _REGION_WORK)
    total = 0.0
    for first in range(0, cells, rows):
        p1 = mids[first : first + rows, None]
        n = len(p1)  # the last block may be partial
        p2, value, *work = (buffer[:n] for buffer in buffers)
        width = p1 if p2_below else 1.0 - p1
        np.multiply(width, u, out=p2)
        if not p2_below:
            np.add(p1, p2, out=p2)
        inner(p1, p2, value, work, mask[:n])
        total += float(np.multiply(width, value, out=value).sum())
    return total / cells**2


def _with_error(evaluate: Callable[[int], float], cells: int) -> QuadratureEstimate:
    """Evaluate on `cells` cells per axis, reporting the refinement error."""
    if not float(cells).is_integer() or not _MIN_CELLS <= cells <= _MAX_CELLS:
        raise ResolutionError(
            f"grid scheme needs an integer resolution >= {_MIN_CELLS} and"
            f" <= {_MAX_CELLS}, got {cells!r}"
        )
    cells = int(cells)
    coarse = evaluate(cells // 2)
    fine = evaluate(cells)
    return QuadratureEstimate(value=fine, error=abs(fine - coarse), resolution=cells)


def region_probability(region: Region, resolution: int = 256) -> QuadratureEstimate:
    """Integral of the disagreement width over one region (exactly 1/24).

    resolution is the number of grid cells per axis, an integer from 8 to
    16384.
    """
    p2_below = region in (Region.B, Region.D)
    evaluate = partial(_grid_sum, partial(_region_inner, region), p2_below)
    return _with_error(evaluate, resolution)


def total_probability(resolution: int = 256) -> QuadratureEstimate:
    """Integral over all four regions (exactly 1/6)."""
    return sum_estimates(region_probability(region, resolution) for region in Region)


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
    return tuple(
        _with_error(partial(_grid_sum, partial(_part_inner, part), False), resolution)
        for part in (1, 2, 3)
    )  # type: ignore[return-value]
