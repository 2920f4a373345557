"""Tests for the deterministic disagreement-probability integrals."""

import math
import sys
from fractions import Fraction
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from concord import quadrature
from concord.errors import InputValidationError, ResolutionError
from concord.quadrature import (
    QuadratureEstimate,
    Region,
    integrand,
    region_a_parts,
    region_probability,
    sum_estimates,
    total_probability,
)

strict = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)

FAST = 64
EPS = sys.float_info.epsilon


# ---------------------------------------------------------------------------
# the integrand


def test_integrand_hand_values():
    # between the two critical values
    assert integrand(0.1, 0.2, 0.3) == pytest.approx(0.6 - 34 / 90, abs=1e-12)
    # lower critical value falls below zero and is clamped away
    assert integrand(0.3, 0.1, 0.2) == pytest.approx(1 / 15, abs=1e-12)
    # upper critical value exceeds one and is clamped to it
    assert integrand(0.1, 0.9, 0.9) == pytest.approx(1 - (1 - 0.01 / 0.9), abs=1e-12)


def test_integrand_vanishes_on_the_planes():
    assert integrand(0.4, 0.4, 0.7) == pytest.approx(0.0, abs=1e-12)
    assert integrand(0.4, 0.7, 0.4) == pytest.approx(0.0, abs=1e-12)


@given(strict, strict, strict)
def test_integrand_is_a_probability(p1, p2, p3):
    value = integrand(p1, p2, p3)
    assert 0.0 <= value <= 1.0


@given(strict, strict, strict)
def test_integrand_symmetric_in_p2_p3(p1, p2, p3):
    assert integrand(p1, p2, p3) == pytest.approx(integrand(p1, p3, p2), abs=1e-12)


@pytest.mark.parametrize(
    "triple", [(0.0, 0.5, 0.5), (1.0, 0.5, 0.5), (0.5, -0.1, 0.5), (0.5, 0.5, 1.5)]
)
def test_integrand_rejects_boundary_inputs(triple):
    with pytest.raises(InputValidationError):
        integrand(*triple)


# ---------------------------------------------------------------------------
# specs and regions


def test_region_membership():
    assert Region.A.contains(0.1, 0.5, 0.6)
    assert Region.B.contains(0.5, 0.1, 0.6)
    assert Region.C.contains(0.1, 0.5, 0.05)
    assert Region.D.contains(0.5, 0.1, 0.05)
    assert not Region.A.contains(0.5, 0.5, 0.6)  # boundary plane


def test_spec_validation():
    for resolution in (4, 32.5, 0, math.nan, math.inf, 2**14 + 1):
        with pytest.raises(ResolutionError, match="integer resolution >= 8"):
            region_probability(Region.A, resolution)


@pytest.mark.parametrize(
    "resolution",
    [10**400, "256", None, [256], "abc", 16 + 0j, Fraction(33, 2), True],
    ids=["10**400", "'256'", "None", "[256]", "'abc'", "16+0j", "33/2", "True"],
)
def test_resolution_that_is_not_an_integral_real_is_a_resolution_error(resolution):
    message = f"grid scheme needs an integer resolution >= 8 and <= 16384, got {resolution!r}"
    with pytest.raises(ResolutionError) as info:
        region_probability(Region.A, resolution)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "resolution", [8.0, np.int64(8), np.uint16(8), np.float32(8), Fraction(8)]
)
def test_integral_reals_are_accepted_as_resolutions(resolution):
    assert region_probability(Region.A, resolution) == region_probability(Region.A, 8)


# ---------------------------------------------------------------------------
# integrals


@pytest.mark.parametrize("region", list(Region))
def test_each_region_integrates_to_one_twenty_fourth(region):
    estimate = region_probability(region, FAST)
    assert estimate.value == pytest.approx(1 / 24, abs=5e-3)
    assert estimate.error >= 0.0
    assert estimate.resolution == 64


def test_regions_b_and_c_match_by_symmetry():
    b = region_probability(Region.B, FAST)
    c = region_probability(Region.C, FAST)
    assert b.value == pytest.approx(c.value, rel=1e-12)


def test_total_integrates_to_one_sixth():
    estimate = total_probability(FAST)
    assert estimate.value == pytest.approx(1 / 6, abs=1e-2)
    assert estimate.resolution == 64


def test_region_a_parts_hand_values():
    part1, part2, part3 = region_a_parts(FAST)
    assert part1.value == pytest.approx(1 / 16, abs=5e-3)
    assert part2.value == pytest.approx(1 / 4, abs=5e-3)
    assert part3.value == pytest.approx(13 / 48, abs=5e-3)


@pytest.mark.parametrize("region", list(Region))
def test_region_golden_values(region):
    # Midpoint sums at resolution 64 of the closed-form inner integrals.
    golden = {
        Region.A: 0.041658727110986435,
        Region.B: 0.0416717529296875,
        Region.C: 0.0416717529296875,
        Region.D: 0.041658727110986435,
    }
    assert region_probability(region, FAST).value == pytest.approx(golden[region], rel=1e-14)


def test_region_a_parts_golden_values():
    # Values of a 3D midpoint grid at resolution 64. The parts' p3 integrands
    # are linear, so that grid is exact in p3 and the closed forms match it.
    golden = (0.06250539642416982, 0.24997394836259793, 0.27082061767578125)
    for estimate, value in zip(region_a_parts(FAST), golden):
        assert estimate.value == pytest.approx(value, rel=1e-14)


def test_parts_recombine_into_region_a():
    part1, part2, part3 = region_a_parts(FAST)
    region_a = region_probability(Region.A, FAST)
    combined = part1.value + part2.value - part3.value
    assert combined == pytest.approx(region_a.value, abs=1e-12)


def test_estimates_are_plain_floats():
    estimates = [
        region_probability(Region.A, 16),
        total_probability(16),
        sum_estimates(region_a_parts(16)),
        *region_a_parts(16),
    ]
    for estimate in estimates:
        assert type(estimate.value) is float
        assert type(estimate.error) is float


def test_sum_estimates_adds_left_to_right():
    # a compensated sum (sum() from Python 3.12 on, or math.fsum) would keep
    # the two 1e-16s that a chain of + drops
    estimates = [QuadratureEstimate(x, x, 8) for x in (1.0, 1e-16, 1e-16)]
    assert sum_estimates(estimates) == QuadratureEstimate(1.0, 1.0, 8)
    assert math.fsum(e.value for e in estimates) > 1.0


# ---------------------------------------------------------------------------
# the exact inner p3 integral

REFERENCE_POINTS = 2**17
inner_risks = st.floats(min_value=0.01, max_value=0.99)


def _integrand_array(p1, p2, p3):
    """The RR/RR* disagreement width from its definition, elementwise."""
    c_rr = p2 * p3 / p1
    c_rr_star = 1.0 - (1.0 - p2) * (1.0 - p3) / (1.0 - p1)
    high = np.maximum(c_rr, c_rr_star)
    low = np.minimum(c_rr, c_rr_star)
    return np.minimum(1.0, high) - np.maximum(0.0, low)


def _terms_at(p1, u):
    """The six src terms at the one grid point (p1, u), as floats.

    Each sum over u has one term, so this is the grid sum of a one-point grid.
    """
    p1q, weights = quadrature._weights(np.array([p1])), quadrature._weights(np.array([u]))
    kernel = quadrature._kernel_sums(p1q, weights)
    return quadrature._terms(p1q, 1, weights.sum(axis=0), kernel)[:, 0].tolist()


# the index of each integral in the _terms rows; D has no term of its own,
# its sum is A's by the mirror (p1, u) -> (1-p1, 1-u)
ONE_BOX_TERM = {Region.A: 0, Region.B: 1, Region.C: 2, 1: 3, 2: 4, 3: 5}
# the index of each integral in the _midpoint_sums list
TERM = {Region.A: 0, Region.B: 1, Region.C: 2, Region.D: 3, 1: 4, 2: 5, 3: 6}
ONE_BOX_REGIONS = [Region.A, Region.B, Region.C]


@pytest.mark.parametrize("region", ONE_BOX_REGIONS)
@settings(max_examples=40, deadline=None)
@given(inner_risks, inner_risks)
def test_inner_integral_matches_a_fine_midpoint_sum(region, a, b):
    assume(abs(a - b) > 1e-3)
    low, high = sorted((a, b))
    # p2 lies below p1 in regions B and D, above it in A and C
    below = region in (Region.B, Region.D)
    p1, p2 = (high, low) if below else (low, high)
    start, end = (0.0, p1) if region in (Region.C, Region.D) else (p1, 1.0)
    width = end - start
    p3 = start + width * (np.arange(REFERENCE_POINTS) + 0.5) / REFERENCE_POINTS
    # midpoint error per kink is at most h^2/8 times the slope jump (<= 99)
    reference = width * float(_integrand_array(p1, p2, p3).mean())
    # the box coordinate of p2, whose rounding moves the inner integral by ~1e-14
    box_width = p1 if below else 1.0 - p1
    terms = _terms_at(p1, p2 / p1 if below else (p2 - p1) / box_width)
    exact = terms[ONE_BOX_TERM[region]] / box_width
    assert exact == pytest.approx(reference, abs=1e-9)
    assert integrand(p1, p2, p3[0]) == _integrand_array(p1, p2, p3[0])
    if region is Region.A:
        parts = [terms[ONE_BOX_TERM[k]] / box_width for k in (1, 2, 3)]
        assert parts[0] + parts[1] - parts[2] == pytest.approx(exact, abs=1e-14)


def _exact_region_inner(region, p1, p2):
    """The inner integral of g for exact rationals p1, p2, by clipping the lines.

    For a line f of slope m > 0 the integral of clip(f, 0, 1) over (lo, hi)
    is (R(f(hi)) - R(f(lo))) / m, with R the clip antiderivative.
    """

    def R(y):
        return 0 if y <= 0 else y * y / 2 if y <= 1 else y - Fraction(1, 2)

    lo, hi = (0, p1) if region in (Region.C, Region.D) else (p1, 1)
    m_rr = p2 / p1
    m_star = (1 - p2) / (1 - p1)
    rr = (R(m_rr * hi) - R(m_rr * lo)) / m_rr
    star = (R(1 - m_star * (1 - hi)) - R(1 - m_star * (1 - lo))) / m_star
    return rr - star if region in (Region.A, Region.D) else star - rr


def _spread_points(rng, n):
    """Grid points (p1, u) in (0, 1)^2, each coordinate drawn as r, r**12 or 1 - r**12.

    Of n draws, those with a coordinate rounded onto 0 or 1 are dropped.
    """
    r = rng.random((n, 2))
    points = np.choose(rng.integers(3, size=(n, 2)), [r, r**12, 1.0 - r**12])
    return points[((points > 0.0) & (points < 1.0)).all(axis=1)]


def _exact_part_inner(part, p1, p2):
    """A region-A part's inner integral for exact rationals p1 < p2.

    Each part's integrand is linear in p3, so its integral is the mean of
    the end values times the length of its p3 range.
    """
    lo, hi, f = {
        1: (p1, p1 / p2, lambda p3: p2 * p3 / p1),
        2: (p1 / p2, 1, lambda p3: 1),
        3: (p1, 1, lambda p3: 1 - (1 - p2) * (1 - p3) / (1 - p1)),
    }[part]
    return (f(lo) + f(hi)) * (hi - lo) / 2


EXACT_INNERS = [
    *(pytest.param(ONE_BOX_TERM[region], partial(_exact_region_inner, region), region,
                   id=str(region))
      for region in ONE_BOX_REGIONS),
    *(pytest.param(ONE_BOX_TERM[part], partial(_exact_part_inner, part), Region.A,
                   id=f"part-{part}")
      for part in (1, 2, 3)),
]  # fmt: skip


@cache
def _spread_terms():
    """The six src terms at 2,400 spread grid points, one row per point."""
    points = _spread_points(np.random.default_rng(20211), 2400)
    return points, np.array([_terms_at(p1, u) for p1, u in points.tolist()])


@pytest.mark.parametrize("term, exact_inner, region", EXACT_INNERS)
def test_inner_integral_matches_the_exact_rational_integral(term, exact_inner, region):
    # Each term is the p2-range width times the inner integral at the grid
    # point (p1, u), whose p2 is exactly p1 + (1-p1) u above p1 or p1 u below.
    points, terms = _spread_terms()
    assert len(points) >= 2000 and points.min(axis=0).max() < 1e-30
    assert points.max(axis=0).min() > 1.0 - 1e-13
    below = region in (Region.B, Region.D)
    for (a, b), value in zip(points.tolist(), terms[:, term].tolist()):
        p1, u = Fraction(a), Fraction(b)
        width = p1 if below else 1 - p1
        exact = width * exact_inner(p1, p1 * u if below else p1 + width * u)
        assert exact > 0
        assert abs(Fraction(value) - exact) <= 4 * EPS * exact, (a, b)


@pytest.mark.parametrize("region", list(Region))
def test_grid_converges_at_second_order(region):
    errors = [
        region_probability(region, n).value - 1 / 24
        for n in (32, 64, 128, 256)
    ]
    for coarse, fine in zip(errors, errors[1:]):
        assert abs(fine) <= abs(coarse) / 3


def test_refinement_shrinks_the_error():
    coarse = region_probability(Region.A, 16)
    fine = region_probability(Region.A, 128)
    assert abs(fine.value - 1 / 24) < abs(coarse.value - 1 / 24)



# ---------------------------------------------------------------------------
# the grid sums against the elementwise closed forms


def _unscratched_region_inner(region, p1, p2):
    if region is Region.A:
        return (p2 - p1) * (1.0 - p2) / (2.0 * p2)
    if region is Region.B:
        return (1.0 - p1) / (2.0 * p1) * (p1 - p2)
    if region is Region.C:
        return p1 / (2.0 * (1.0 - p1)) * (p2 - p1)
    return p2 * (p1 - p2) / (2.0 * (1.0 - p2))


def _unscratched_part_inner(part, p1, p2):
    if part == 1:
        return 0.5 * p1 * (1.0 - p2) * (1.0 + p2) / p2
    if part == 2:
        return (p2 - p1) / p2
    return 0.5 * (1.0 - p1) * (1.0 + p2)


CLOSED_FORMS = [
    *(pytest.param(TERM[region], partial(_unscratched_region_inner, region),
                   region in (Region.B, Region.D), id=f"region-{region.value}")
      for region in Region),
    *(pytest.param(TERM[part], partial(_unscratched_part_inner, part), False, id=f"part-{part}")
      for part in (1, 2, 3)),
]  # fmt: skip

# On an x86-64 host with OpenBLAS, the worst at cells 8 to 2048 was 7 ulps
# (region C at 257 cells), against 8 for the per-point evaluation that these
# sums replaced.
GRID_SUM_ULPS = 16


@cache
def _fsum_grid_sum(closed_form, p2_below, cells):
    """math.fsum over the grid of the p2-range width times a closed form, over cells^2."""
    mids = (np.arange(cells) + 0.5) / cells
    p1 = mids[:, None]
    width = p1 if p2_below else 1.0 - p1
    p2 = width * mids if p2_below else p1 + width * mids
    return math.fsum((width * closed_form(p1, p2)).ravel().tolist()) / cells**2


@cache
def _sums_with_blocks(cells, block_points=quadrature._BLOCK_POINTS):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "_BLOCK_POINTS", block_points)
        return quadrature._midpoint_sums(cells)


@pytest.mark.parametrize("rows", [None, 2])  # the default blocks, and two rows per block
@pytest.mark.parametrize("cells", [8, 100, 257, 1024])  # partial last blocks at 100 and 257
@pytest.mark.parametrize("term, closed_form, p2_below", CLOSED_FORMS)
def test_grid_sum_is_within_ulps_of_the_closed_form_fsum(term, closed_form, p2_below, cells, rows):
    value = _sums_with_blocks(cells, rows * cells if rows else quadrature._BLOCK_POINTS)[term]
    reference = _fsum_grid_sum(closed_form, p2_below, cells)
    assert abs(value - reference) <= GRID_SUM_ULPS * math.ulp(reference)


@pytest.mark.parametrize("rows", [1, 2, 3, 14])  # the grid makes odd counts even: 1 and 3 give 2
@pytest.mark.parametrize("cells", [8, 100, 257])
@pytest.mark.parametrize("term", range(7), ids=[p.id for p in CLOSED_FORMS])
def test_grid_sums_do_not_depend_on_the_block_size(term, cells, rows):
    # bit for bit, against the whole grid of both boxes in one block
    whole = _sums_with_blocks(cells, 2 * cells * cells)[term]
    assert _sums_with_blocks(cells, rows * cells)[term] == whole
