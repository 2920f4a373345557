"""Tests for the deterministic disagreement-probability integrals."""

import math

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
    for resolution in (4, 32.5, 0, math.nan, math.inf):
        with pytest.raises(ResolutionError, match="integer resolution >= 8"):
            region_probability(Region.A, resolution)


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


@pytest.mark.parametrize("region", list(Region))
@settings(max_examples=40, deadline=None)
@given(inner_risks, inner_risks)
def test_inner_integral_matches_a_fine_midpoint_sum(region, a, b):
    assume(abs(a - b) > 1e-3)
    low, high = sorted((a, b))
    # p2 lies below p1 in regions B and D, above it in A and C
    p1, p2 = (high, low) if region in (Region.B, Region.D) else (low, high)
    start, end = (0.0, p1) if region in (Region.C, Region.D) else (p1, 1.0)
    width = end - start
    p3 = start + width * (np.arange(REFERENCE_POINTS) + 0.5) / REFERENCE_POINTS
    # midpoint error per kink is at most h^2/8 times the slope jump (<= 99)
    reference = width * float(_integrand_array(p1, p2, p3).mean())
    exact = float(quadrature._region_inner(region, np.float64(p1), np.float64(p2)))
    assert exact == pytest.approx(reference, abs=1e-9)
    assert integrand(p1, p2, p3[0]) == _integrand_array(p1, p2, p3[0])
    if region is Region.A:
        parts = [float(quadrature._part_inner(k, p1, p2)) for k in (1, 2, 3)]
        assert parts[0] + parts[1] - parts[2] == pytest.approx(exact, abs=1e-14)


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

