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

Only the kernel 1/p2 is built: B and C need none, and D's term at (p1, u)
is A's at (1-p1, 1-u), by the mirror (p1, p2, p3) -> (1-p1, 1-p2, 1-p3)
that sends c_rr to 1 - c_rr* and A onto D. The midpoint grid is symmetric
under it (exactly so in floats when n is a power of two), so D's sum is
A's. Every factor is positive and nothing cancels, so each term is
accurate to a few roundings, relative. The sums over u are one matmul of
each block of kernel rows (about 16k entries, in one buffer) against the
weight columns u, 1-u and u(1-u); B, C and part 3 need only the sums of
the weights. Each sum over p1 is one correctly rounded math.fsum. The
matmul adds in the order of numpy's BLAS (OpenBLAS in the numpy wheels),
so the last bits of each sum, and of `concord exact` at --digits 17,
follow its kernel choice for the CPU and, at some n, where the row blocks
cut its row tiles. The reported error bound is the difference from the
half-resolution estimate; the error of `total_probability` is the sum of
the four region errors.
"""

from __future__ import annotations

import enum
import math
import numbers
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
# The work grows as cells^2: on a 2-CPU Xeon, `concord exact` took 0.17-0.35 s
# at 4096 cells per axis and 0.8-1.9 s at this cap, 2^14, in 35 MB.
_MAX_CELLS = 1 << 14
_BLOCK_POINTS = 16384  # kernel entries (p1 rows times u columns) built per block


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
    """The u-only column weights u, 1-u and u(1-u), one row per u."""
    weights = np.empty((len(u), 3))
    weights[:, 0] = u
    np.subtract(1.0, u, out=weights[:, 1])
    np.multiply(u, weights[:, 1], out=weights[:, 2])
    return weights


def _kernel_sums(p1q: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """For each p1, the sums over u of the weights times 1/p2, one row per weight.

    p1q are the _weights of the p1 values: p2 = p1 + (1-p1) u is their first
    two columns times [1, u]. The kernel is built in blocks of about
    _BLOCK_POINTS entries in one buffer, each summed by one matmul.
    """
    right = np.ones((2, len(weights)))
    right[1] = weights[:, 0]
    rows = 2 * max(1, _BLOCK_POINTS // (2 * len(weights)))  # even: numpy sums a lone row apart
    kernel = np.empty((rows, len(weights)))
    sums = np.empty((len(p1q), weights.shape[1]))
    for first in range(0, len(p1q), rows):
        block = kernel[: min(rows, len(p1q) - first)]
        np.divide(1.0, np.matmul(p1q[first : first + rows, :2], right, out=block), out=block)
        np.matmul(block, weights, out=sums[first : first + rows])
    return sums.T


def _terms(p1q: np.ndarray, count: int, plain: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Rows A, B, C and region-A parts 1-3: width times inner integral, summed over u.

    p1q are the _weights of a row of p1 values, with count u values each;
    plain and kernel are the sums over u of the weights and _kernel_sums.
    """
    p1, q = p1q[:, 0], p1q[:, 1]
    sum_u, sum_v, _ = plain
    by_u, by_v, by_uv = kernel
    terms = np.empty((6, len(p1)))
    terms[0] = 0.5 * q * q * q * by_uv  # A
    terms[1] = 0.5 * p1 * q * sum_v  # B
    terms[2] = 0.5 * p1 * q * sum_u  # C
    terms[3] = 0.5 * p1 * q * q * (by_v + sum_v)  # part 1
    terms[4] = q * q * by_u  # part 2
    terms[5] = 0.5 * q * q * ((1.0 + p1) * count + q * sum_u)  # part 3
    return terms


def _midpoint_sums(cells: int) -> list[float]:
    """The sums of A, B, C, D and parts 1-3 over cells^2 points of (p1, u), per cell area."""
    weights = _weights((np.arange(cells) + 0.5) / cells)  # the midpoints, as p1 and as u
    terms = _terms(weights, cells, weights.sum(axis=0), _kernel_sums(weights, weights))
    sums = [math.fsum(row) / cells**2 for row in terms.tolist()]
    return sums[:3] + sums[:1] + sums[3:]  # D's sum is A's (module docstring)


def _all_estimates(cells: int) -> list[QuadratureEstimate]:
    """Regions A, B, C, D and region-A parts 1-3, reporting the refinement error."""
    if not (isinstance(cells, numbers.Real) and _MIN_CELLS <= cells <= _MAX_CELLS) or cells % 1:
        raise ResolutionError(
            f"grid scheme needs an integer resolution >= {_MIN_CELLS} and"
            f" <= {_MAX_CELLS}, got {cells!r}"
        )
    cells = int(cells)
    coarse, fine = _midpoint_sums(cells // 2), _midpoint_sums(cells)
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
