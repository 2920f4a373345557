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

and so does each region-A part, whose integrand is linear in p3:

    part 1, c_rr on (p1, p1/p2):   p1(1-p2)(1+p2) / (2 p2)
    part 2, 1 on (p1/p2, 1):       (p2-p1) / p2
    part 3, c_rr* on (p1, 1):      (1-p1)(1+p2) / 2

The outer integral is the midpoint rule on an n^2 grid of box coordinates
(p1, u), mapped onto each region's box so the grid never touches the
singular planes; it converges as O(h^2). With q = 1-p1, p2 = p1 + q u
above the diagonal (A, C and the region-A parts) and p2 = p1 u below it
(B and D). There p2-p1 = q u, 1-p2 = q(1-u), p1-p2 = p1(1-u) and
1-p2 = q + p1(1-u), so the p2-range width (q above, p1 below) times each
inner integral is a p1-only factor times a u-only weight times at most a
kernel, 1/p2 above and 1/(1-p2) below:

    A: q^3/2 u(1-u) / p2           B: p1 q/2 (1-u)
    C: p1 q/2 u                    D: p1^3/2 u(1-u) / (1-p2)
    part 1: p1 q^2/2 (1-u)(1/p2 + 1)
    part 2: q^2 u / p2             part 3: q^2/2 (1 + p1 + q u)

Every factor is positive and nothing cancels, so each term at a grid
point is accurate to a few roundings, relative. The sums over u are one
matmul of each block of kernel rows (about 8k entries, in one buffer, so
memory stays bounded) against the weight columns, and B, C and part 3
need only the sums of the weights. Each sum over p1 is one correctly
rounded math.fsum. The matmul adds in the order of numpy's BLAS
(OpenBLAS in the numpy wheels), so the last bits of each sum, and of
`concord exact` at --digits 17, follow its kernel choice for the CPU; they
do not depend on the block size, which the tests check. The reported
error bound is the difference from the half-resolution estimate; the
error of `total_probability` is the sum of the four region errors.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

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
# The work grows as cells^2: on a 2-CPU Xeon, `concord exact` took 0.44 s at
# 4096 cells per axis and 2.2 s at this cap, 2^14, in 34 MB.
_MAX_CELLS = 1 << 14
_BLOCK_POINTS = 8192  # kernel entries (p1 rows times u columns) built per block


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


def _weights(u: np.ndarray) -> np.ndarray:
    """The u-only column weights 1, u, 1-u and u(1-u), one row per u."""
    v = 1.0 - u
    return np.stack([np.ones_like(u), u, v, u * v], axis=-1)


def _kernel_sums(p1: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each p1, the sums over u of the weights times 1/p2 and times 1/(1-p2).

    With q = 1-p1, p2 runs over p1 + q u above the diagonal and over p1 u
    below it. Both denominators are sums of positive terms, the rows
    [p1, q, 0] and [q, 0, p1] times the weight columns [1, u, 1-u]:
    p2 = p1 + q u and 1-p2 = q + p1 (1-u). The rows of both boxes are built
    in blocks of about _BLOCK_POINTS entries in one buffer, and each block
    is summed against the weights by one matmul.
    """
    q, zeros = 1.0 - p1, np.zeros_like(p1)
    left = np.concatenate([np.stack([p1, q, zeros], -1), np.stack([q, zeros, p1], -1)])
    right = weights[:, :3].T
    rows = 2 * max(1, _BLOCK_POINTS // (2 * len(weights)))  # even: no block is a lone row
    kernel = np.empty((rows, len(weights)))
    sums = np.empty((len(left), weights.shape[1]))
    for first in range(0, len(left), rows):
        block = kernel[: min(rows, len(left) - first)]
        np.divide(1.0, np.matmul(left[first : first + rows], right, out=block), out=block)
        np.matmul(block, weights, out=sums[first : first + rows])
    return sums[: len(p1)].T, sums[len(p1) :].T


def _terms(
    p1: np.ndarray, plain: np.ndarray, above: np.ndarray, below: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Width times inner integral of A, B, C, D and region-A parts 1-3, summed over u.

    p1 may be a row of the grid. plain holds the sums over u of the
    _weights columns, and above and below the _kernel_sums of each box
    (module docstring, "Numerics").
    """
    q = 1.0 - p1
    count, sum_u, sum_v, _ = plain
    return (
        0.5 * q * q * q * above[3],  # A
        0.5 * p1 * q * sum_v,  # B
        0.5 * p1 * q * sum_u,  # C
        0.5 * p1 * p1 * p1 * below[3],  # D
        0.5 * p1 * q * q * (above[2] + sum_v),  # part 1
        q * q * above[1],  # part 2
        0.5 * q * q * ((1.0 + p1) * count + q * sum_u),  # part 3
    )


def _midpoint_sums(cells: int) -> list[float]:
    """The seven _terms' midpoint sums over cells^2 points of (p1, u), times the cell area."""
    mids = (np.arange(cells) + 0.5) / cells
    weights = _weights(mids)
    above, below = _kernel_sums(mids, weights)
    terms = _terms(mids, weights.sum(axis=0), above, below)
    return [math.fsum(term.tolist()) / cells**2 for term in terms]


def _all_estimates(cells: int) -> list[QuadratureEstimate]:
    """Regions A, B, C, D and region-A parts 1-3, reporting the refinement error."""
    if not float(cells).is_integer() or not _MIN_CELLS <= cells <= _MAX_CELLS:
        raise ResolutionError(
            f"grid scheme needs an integer resolution >= {_MIN_CELLS} and"
            f" <= {_MAX_CELLS}, got {cells!r}"
        )
    cells = int(cells)
    coarse = _midpoint_sums(cells // 2)
    fine = _midpoint_sums(cells)
    return [QuadratureEstimate(f, abs(f - c), cells) for c, f in zip(coarse, fine)]


def region_probability(region: Region, resolution: int = 256) -> QuadratureEstimate:
    """Integral of the disagreement width over one region (exactly 1/24).

    resolution is the number of grid cells per axis, an integer from 8 to
    16384.
    """
    return _all_estimates(resolution)[list(Region).index(region)]


def total_probability(resolution: int = 256) -> QuadratureEstimate:
    """Integral over all four regions (exactly 1/6)."""
    return sum_estimates(_all_estimates(resolution)[:4])


def sum_estimates(estimates: Iterable[QuadratureEstimate]) -> QuadratureEstimate:
    """The estimate of a sum of integrals: values and errors add."""
    estimates = list(estimates)
    value = error = 0.0
    for e in estimates:  # a chain of +, which rounds alike on every Python
        value, error = value + e.value, error + e.error
    return QuadratureEstimate(value, error, max(e.resolution for e in estimates))


def region_a_parts(
    resolution: int = 256,
) -> tuple[QuadratureEstimate, QuadratureEstimate, QuadratureEstimate]:
    """The three closed-form pieces of region A: 1/16, 1/4, 13/48.

    Parts 1 and 2 sum the resolved minimum; part 3 is the subtracted
    critical-value term, so part1 + part2 - part3 equals the region A
    integral (1/24).
    """
    return tuple(_all_estimates(resolution)[4:])  # type: ignore[return-value]
