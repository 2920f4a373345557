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

Numerics: midpoint rule on an n^3 grid, mapped onto each region by a box
transform so the grid never touches the singular planes. The reported
error bound is the difference from the half-resolution estimate (no
analytic modulus is available because of the clamp kinks).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import InputValidationError, ResolutionError

__all__ = [
    "Region",
    "QuadratureSpec",
    "QuadratureEstimate",
    "integrand",
    "region_probability",
    "region_a_parts",
    "total_probability",
    "sum_estimates",
]

_MIN_CELLS = 8


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
class QuadratureSpec:
    """scheme 'midpoint-grid': resolution = cells per axis (>= 8).

    scheme 'adaptive': resolution = absolute error tolerance; the grid is
    refined dyadically from 32 cells per axis until the successive-
    refinement error estimate drops below the tolerance.
    """

    scheme: str = "midpoint-grid"
    resolution: float = 256

    def __post_init__(self) -> None:
        if self.scheme not in ("midpoint-grid", "adaptive"):
            raise InputValidationError(f"unknown quadrature scheme {self.scheme!r}")
        if self.scheme == "midpoint-grid":
            cells = int(self.resolution)
            if cells != self.resolution or cells < _MIN_CELLS:
                raise ResolutionError(
                    f"grid scheme needs an integer resolution >= {_MIN_CELLS}, "
                    f"got {self.resolution!r}"
                )
        elif not 0.0 < self.resolution < 1.0:
            raise ResolutionError(
                f"adaptive scheme needs a tolerance in (0, 1), got {self.resolution!r}"
            )


@dataclass(frozen=True)
class QuadratureEstimate:
    value: float
    error: float  # |estimate - half-resolution estimate|
    resolution: int  # cells per axis actually used


def integrand(p1: float, p2: float, p3: float) -> float:
    """Width of the p4 interval on which RR and RR* disagree."""
    if not (0.0 < p1 < 1.0 and 0.0 < p2 < 1.0 and 0.0 < p3 < 1.0):
        raise InputValidationError("integrand needs risks strictly inside (0, 1)")
    return float(_integrand_grid(p1, p2, p3))


def _integrand_grid(p1: np.ndarray, p2: np.ndarray, p3: np.ndarray) -> np.ndarray:
    """The integrand, elementwise; inputs are not validated."""
    c_rr = p2 * p3 / p1
    c_rr_star = 1.0 - (1.0 - p2) * (1.0 - p3) / (1.0 - p1)
    high = np.maximum(c_rr, c_rr_star)
    low = np.minimum(c_rr, c_rr_star)
    return np.minimum(1.0, high) - np.maximum(0.0, low)


def _midpoints(cells: int) -> np.ndarray:
    return (np.arange(cells) + 0.5) / cells


def _region_sum(region: Region, cells: int) -> float:
    """Midpoint sum over the unit cube mapped onto the region's box.

    For each p1 slab the (u, v) plane maps to (p2, p3): u spans the p2
    range (below or above p1 per region), v spans the p3 range; the
    Jacobian is the product of the two range widths.
    """
    mids = _midpoints(cells)
    u = mids[:, None]
    v = mids[None, :]
    total = 0.0
    p2_below = region in (Region.B, Region.D)
    p3_below = region in (Region.C, Region.D)
    for t1 in mids:
        p2 = t1 * u if p2_below else t1 + (1.0 - t1) * u
        p3 = t1 * v if p3_below else t1 + (1.0 - t1) * v
        jac = (t1 if p2_below else 1.0 - t1) * (t1 if p3_below else 1.0 - t1)
        total += jac * float(_integrand_grid(t1, p2, p3).sum())
    return total / cells**3


def _with_error(
    evaluate: Callable[[int], float], spec: QuadratureSpec
) -> QuadratureEstimate:
    """Run `evaluate` per the QuadratureSpec, reporting the refinement error."""
    if spec.scheme == "midpoint-grid":
        cells = int(spec.resolution)
        coarse = evaluate(max(_MIN_CELLS // 2, cells // 2))
        fine = evaluate(cells)
        return QuadratureEstimate(value=fine, error=abs(fine - coarse), resolution=cells)
    tolerance = spec.resolution
    cells = 32
    previous = evaluate(cells)
    while True:
        cells *= 2
        current = evaluate(cells)
        error = abs(current - previous)
        if error <= tolerance or cells >= 2048:
            return QuadratureEstimate(value=current, error=error, resolution=cells)
        previous = current


def region_probability(
    region: Region, spec: QuadratureSpec = QuadratureSpec()
) -> QuadratureEstimate:
    """Integral of the disagreement width over one region (exactly 1/24)."""
    return _with_error(lambda cells: _region_sum(region, cells), spec)


def total_probability(spec: QuadratureSpec = QuadratureSpec()) -> QuadratureEstimate:
    """Integral over all four regions (exactly 1/6)."""
    return sum_estimates(region_probability(region, spec) for region in Region)


def sum_estimates(estimates: Iterable[QuadratureEstimate]) -> QuadratureEstimate:
    """The estimate of a sum of integrals: values and errors add."""
    estimates = list(estimates)
    return QuadratureEstimate(
        value=sum(e.value for e in estimates),
        error=sum(e.error for e in estimates),
        resolution=max(e.resolution for e in estimates),
    )


def _part_sum(part: int, cells: int) -> float:
    """Midpoint sum for one piece of the region-A decomposition.

    Region A fixes p1 < p2 and p1 < p3. The minimum min{1, c_rr} switches
    at p3 = p1/p2, which always lies inside (p1, 1) here, splitting the
    inner integral into

        part 1: p3 in (p1, p1/p2), integrand c_rr = p2*p3/p1   -> 1/16
        part 2: p3 in (p1/p2, 1), integrand 1                  -> 1/4
        part 3: p3 in (p1, 1), integrand c_rr* (subtracted)    -> 13/48
    """
    mids = _midpoints(cells)
    u = mids[:, None]
    v = mids[None, :]
    total = 0.0
    for t1 in mids:
        p2 = t1 + (1.0 - t1) * u
        if part == 1:
            split = t1 / p2
            p3 = t1 + (split - t1) * v
            jac = (1.0 - t1) * (split - t1)
            values = p2 * p3 / t1
        elif part == 2:
            split = t1 / p2
            jac = (1.0 - t1) * (1.0 - split)
            values = np.broadcast_to(1.0, (cells, cells))
        else:
            p3 = t1 + (1.0 - t1) * v
            jac = (1.0 - t1) ** 2
            values = 1.0 - (1.0 - p2) * (1.0 - p3) / (1.0 - t1)
        total += float((jac * values).sum())
    return total / cells**3


def region_a_parts(
    spec: QuadratureSpec = QuadratureSpec(),
) -> tuple[QuadratureEstimate, QuadratureEstimate, QuadratureEstimate]:
    """The three closed-form pieces of region A: 1/16, 1/4, 13/48.

    Parts 1 and 2 sum the resolved minimum; part 3 is the subtracted
    critical-value term, so part1 + part2 - part3 equals the region A
    integral (1/24).
    """
    return tuple(
        _with_error(lambda cells, p=part: _part_sum(p, cells), spec)
        for part in (1, 2, 3)
    )  # type: ignore[return-value]
