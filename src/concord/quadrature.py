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
The grid is evaluated in blocks of p1 rows of about 8k points each, which
keeps the temporaries small. The reported error bound is the difference
from the half-resolution estimate; the error of `total_probability` is
the sum of the four region errors.
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


def _clip_antiderivative(y: np.ndarray) -> np.ndarray:
    """Antiderivative of clip(y, 0, 1): 0 below 0, y^2/2 on [0, 1], y - 1/2 above."""
    return np.where(y < 1.0, 0.5 * np.square(np.maximum(y, 0.0)), y - 0.5)


def _region_inner(region: Region, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Exact integral of g over the region's p3 range for each (p1, p2).

    For a line f of slope m > 0 the integral of clip(f, 0, 1) over (lo, hi)
    is (R(f(hi)) - R(f(lo))) / m, with R the clip antiderivative. c_rr
    exceeds c_rr* in regions A and D and falls below it in B and C.
    """
    lo, hi = (0.0, p1) if region in (Region.C, Region.D) else (p1, 1.0)
    R = _clip_antiderivative
    m_rr = p2 / p1
    m_star = (1.0 - p2) / (1.0 - p1)
    rr = (R(m_rr * hi) - R(m_rr * lo)) / m_rr
    star = (R(1.0 - m_star * (1.0 - hi)) - R(1.0 - m_star * (1.0 - lo))) / m_star
    return rr - star if region in (Region.A, Region.D) else star - rr


def _part_inner(part: int, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Exact inner p3 integral of one piece of the region-A decomposition.

    Region A fixes p1 < p2 and p1 < p3. The minimum min{1, c_rr} switches
    at p3 = p1/p2, which always lies inside (p1, 1) here, splitting the
    inner integral into

        part 1: p3 in (p1, p1/p2), integrand c_rr = p2*p3/p1   -> 1/16
        part 2: p3 in (p1/p2, 1), integrand 1                  -> 1/4
        part 3: p3 in (p1, 1), integrand c_rr* (subtracted)    -> 13/48
    """
    if part == 1:
        return 0.5 * p1 * (1.0 / p2 - p2)
    if part == 2:
        return 1.0 - p1 / p2
    return 0.5 * (1.0 - p1) * (1.0 + p2)


def _grid_sum(
    inner: Callable[[np.ndarray, np.ndarray], np.ndarray], p2_below: bool, cells: int
) -> float:
    """Midpoint sum over (p1, p2) of the p2-range width times inner(p1, p2).

    The unit square maps onto the region's box: its first axis is p1, and
    u on its second axis spans the p2 range below or above p1. Rows of p1
    are evaluated in blocks of about _BLOCK_POINTS grid points.
    """
    mids = (np.arange(cells) + 0.5) / cells
    u = mids[None, :]
    rows = max(1, _BLOCK_POINTS // cells)
    total = 0.0
    for first in range(0, cells, rows):
        p1 = mids[first : first + rows, None]
        width = p1 if p2_below else 1.0 - p1
        p2 = width * u if p2_below else p1 + width * u
        total += float((width * inner(p1, p2)).sum())
    return total / cells**2


def _with_error(evaluate: Callable[[int], float], cells: int) -> QuadratureEstimate:
    """Evaluate on `cells` cells per axis, reporting the refinement error."""
    if not float(cells).is_integer() or cells < _MIN_CELLS:
        raise ResolutionError(
            f"grid scheme needs an integer resolution >= {_MIN_CELLS}, got {cells!r}"
        )
    cells = int(cells)
    coarse = evaluate(cells // 2)
    fine = evaluate(cells)
    return QuadratureEstimate(value=fine, error=abs(fine - coarse), resolution=cells)


def region_probability(region: Region, resolution: int = 256) -> QuadratureEstimate:
    """Integral of the disagreement width over one region (exactly 1/24).

    resolution is the number of grid cells per axis, an integer >= 8.
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
