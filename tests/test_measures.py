"""Tests for the six effect measures and the derived-measure layer."""

import math
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from concord.errors import InputValidationError, UndefinedMeasure
from concord.measures import (
    ALL_KINDS,
    MeasureKind,
    Orientation,
    RiskPair,
    derived_measures,
    grrr,
    measure,
    measure_vector,
)

INF = math.inf

strict_probs = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)
strict_pairs = st.builds(RiskPair, strict_probs, strict_probs)


# ---------------------------------------------------------------------------
# construction and validation


def test_riskpair_fields():
    pair = RiskPair(0.2, 0.3)
    assert pair.p_control == 0.2
    assert pair.p_exposed == 0.3
    assert pair.is_strict


@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan, INF, -INF])
def test_riskpair_rejects_out_of_range(bad):
    with pytest.raises(InputValidationError):
        RiskPair(bad, 0.5)
    with pytest.raises(InputValidationError):
        RiskPair(0.5, bad)


def test_riskpair_allows_boundaries():
    # one 0 and one 1 are fine; measures handle the limits
    assert not RiskPair(0.0, 0.3).is_strict
    assert not RiskPair(0.4, 1.0).is_strict
    assert not RiskPair(0.0, 1.0).is_strict


def test_opposite_swaps_and_complements():
    pair = RiskPair(0.2, 0.3)
    opp = pair.opposite
    assert opp.p_control == pytest.approx(0.7)
    assert opp.p_exposed == pytest.approx(0.8)


# ---------------------------------------------------------------------------
# formulas on a hand-checked interior point


def test_hand_checked_values():
    pair = RiskPair(0.2, 0.3)
    assert measure(pair, MeasureKind.RR) == pytest.approx(1.5)
    assert measure(pair, MeasureKind.RR_STAR) == pytest.approx(0.8 / 0.7)
    assert measure(pair, MeasureKind.HR) == pytest.approx(
        math.log(0.7) / math.log(0.8)
    )
    assert measure(pair, MeasureKind.HR_STAR) == pytest.approx(
        math.log(0.2) / math.log(0.3)
    )
    assert measure(pair, MeasureKind.RD) == pytest.approx(0.1)
    assert measure(pair, MeasureKind.OR) == pytest.approx(
        (0.3 * 0.8) / (0.2 * 0.7)
    )


def test_vector_matches_scalar_calls():
    pair = RiskPair(0.7, 0.9)
    vec = measure_vector(pair)
    for kind in ALL_KINDS:
        assert vec.value(kind) == measure(pair, kind)
    d = vec.as_dict()
    assert set(d) == {"RR", "RR*", "HR", "HR*", "RD", "OR"}
    assert d["RR"] == pytest.approx(0.9 / 0.7)


def test_null_point():
    pair = RiskPair(0.4, 0.4)
    for kind in ALL_KINDS:
        assert measure(pair, kind) == kind.null_value


# ---------------------------------------------------------------------------
# boundary limits

# rows: (control, exposed) -> expected values for RR, RR*, HR, HR*, RD, OR
BOUNDARY_CASES = [
    ((0.0, 0.3), (INF, 1 / 0.7, INF, INF, 0.3, INF)),
    ((0.4, 1.0), (2.5, INF, INF, INF, 0.6, INF)),
    ((1.0, 0.3), (0.3, 0.0, 0.0, 0.0, -0.7, 0.0)),
    ((0.4, 0.0), (0.0, 0.6, 0.0, 0.0, -0.4, 0.0)),
    ((0.0, 1.0), (INF, INF, INF, INF, 1.0, INF)),
    ((1.0, 0.0), (0.0, 0.0, 0.0, 0.0, -1.0, 0.0)),
]


@pytest.mark.parametrize("probs,expected", BOUNDARY_CASES)
def test_boundary_limits(probs, expected):
    pair = RiskPair(*probs)
    got = tuple(measure(pair, kind) for kind in ALL_KINDS)
    assert got == expected
    # str() tells 0.0 from -0.0, which == does not
    assert [str(v) for v in got] == [str(v) for v in expected]
    assert tuple(measure_vector(pair)) == got


@pytest.mark.parametrize("probs", [(0.0, 0.0), (1.0, 1.0)])
def test_degenerate_pairs_are_undefined(probs):
    pair = RiskPair(*probs)
    for kind in ALL_KINDS:
        with pytest.raises(UndefinedMeasure):
            measure(pair, kind)


# ---------------------------------------------------------------------------
# structural identities


@given(strict_pairs)
def test_or_is_rr_times_rr_star(pair):
    or_ = measure(pair, MeasureKind.OR)
    rr = measure(pair, MeasureKind.RR)
    rr_star = measure(pair, MeasureKind.RR_STAR)
    assert or_ == pytest.approx(rr * rr_star, rel=1e-12)


@given(strict_pairs)
def test_opposite_pair_swaps_rr_and_rr_star(pair):
    opp = pair.opposite
    # rel 1e-9: forming 1 - (1 - a) costs ~1e-10 relative error at a = 1e-6
    assert measure(opp, MeasureKind.RR) == pytest.approx(
        measure(pair, MeasureKind.RR_STAR), rel=1e-9
    )
    assert measure(opp, MeasureKind.RR_STAR) == pytest.approx(
        measure(pair, MeasureKind.RR), rel=1e-9
    )
    assert measure(opp, MeasureKind.HR) == pytest.approx(
        measure(pair, MeasureKind.HR_STAR), rel=1e-9
    )
    assert measure(opp, MeasureKind.HR_STAR) == pytest.approx(
        measure(pair, MeasureKind.HR), rel=1e-9
    )


@given(strict_pairs)
def test_opposite_pair_preserves_or_and_rd_magnitude(pair):
    opp = pair.opposite
    assert measure(opp, MeasureKind.OR) == pytest.approx(
        measure(pair, MeasureKind.OR), rel=1e-9
    )
    assert measure(opp, MeasureKind.RD) == pytest.approx(
        measure(pair, MeasureKind.RD), abs=1e-12
    )


@given(strict_pairs)
def test_all_measures_sit_on_same_side_of_null(pair):
    assume(abs(pair.p_exposed - pair.p_control) > 1e-9)
    side = pair.p_exposed > pair.p_control
    for kind in ALL_KINDS:
        value = measure(pair, kind)
        assert (value > kind.null_value) == side, kind


@given(strict_probs, strict_probs, strict_probs)
def test_measures_increase_in_exposed_risk(control, lo, hi):
    assume(abs(lo - hi) > 1e-6)
    if lo > hi:
        lo, hi = hi, lo
    for kind in ALL_KINDS:
        a = measure(RiskPair(control, lo), kind)
        b = measure(RiskPair(control, hi), kind)
        assert a < b, kind


# ---------------------------------------------------------------------------
# derived measures


def test_derived_hand_checked():
    d = derived_measures(RiskPair(0.2, 0.3))
    assert d.cp_generative == pytest.approx(0.125)
    assert d.cp_preventative == pytest.approx(-0.5)
    assert d.prob_necessity == pytest.approx(1 - 2 / 3)
    assert d.prob_sufficiency == pytest.approx(0.125)
    assert d.pns == pytest.approx(0.1)
    assert d.nnt == pytest.approx(10.0)
    assert d.vaccine_efficacy == pytest.approx(-0.5)
    assert d.grrr == pytest.approx(0.125)


@pytest.mark.parametrize("compute", [derived_measures, grrr])
@pytest.mark.parametrize(
    "pair, message",
    [
        (RiskPair(0.0, 0.5), "p_control must lie strictly inside (0, 1), got 0.0"),
        (RiskPair(0.5, 1.0), "p_exposed must lie strictly inside (0, 1), got 1.0"),
    ],
)
def test_derived_requires_strict_pair(compute, pair, message):
    with pytest.raises(InputValidationError, match=re.escape(message)):
        compute(pair)


def test_nnt_at_null_is_infinite():
    assert derived_measures(RiskPair(0.3, 0.3)).nnt == INF


def test_nnt_sign_tracks_direction():
    assert derived_measures(RiskPair(0.2, 0.3)).nnt > 0
    assert derived_measures(RiskPair(0.3, 0.2)).nnt < 0


@given(strict_pairs)
def test_necessity_preventative_duality(pair):
    # (1 - PN)(1 - CP_prev) = 1 because both reduce to a/b and b/a
    d = derived_measures(pair)
    assert (1 - d.prob_necessity) * (1 - d.cp_preventative) == pytest.approx(
        1.0, rel=1e-9
    )


@given(strict_pairs)
def test_generative_probability_complements_rr_star(pair):
    d = derived_measures(pair)
    rr_star = measure(pair, MeasureKind.RR_STAR)
    # rel term: CPg grows like -1/RR*, so one ulp can exceed 1e-12 absolute
    assert d.cp_generative == pytest.approx(1 - 1 / rr_star, rel=1e-12, abs=1e-12)


@given(strict_pairs)
def test_pns_equals_risk_difference(pair):
    d = derived_measures(pair)
    assert d.pns == measure(pair, MeasureKind.RD)


def test_grrr_branches():
    # harmful side uses the generative scale, protective side RR - 1
    assert grrr(RiskPair(0.2, 0.6)) == pytest.approx(0.5)
    assert grrr(RiskPair(0.4, 0.1)) == pytest.approx(0.25 - 1)


@given(strict_probs)
def test_grrr_continuous_at_null(p):
    eps = 1e-9 * min(p, 1 - p)
    assume(eps > 0)
    below = grrr(RiskPair(p, max(p - eps, 1e-12)))
    above = grrr(RiskPair(p, min(p + eps, 1 - 1e-12)))
    assert abs(below) < 1e-6
    assert abs(above) < 1e-6


def test_orientations():
    d = derived_measures(RiskPair(0.2, 0.3))
    assert d.orientation("cp_generative") is Orientation.DIRECT
    assert d.orientation("cp_preventative") is Orientation.INVERSE
    assert d.orientation("nnt") is Orientation.INVERSE
    assert d.orientation("vaccine_efficacy") is Orientation.INVERSE
    assert d.orientation("grrr") is Orientation.DIRECT
    with pytest.raises(KeyError):
        d.orientation("not_a_measure")


def test_derived_as_dict_round_trip():
    d = derived_measures(RiskPair(0.2, 0.3))
    out = d.as_dict()
    assert out["nnt"] == d.nnt
    assert set(out) == {
        "cp_generative",
        "cp_preventative",
        "prob_necessity",
        "prob_sufficiency",
        "pns",
        "nnt",
        "vaccine_efficacy",
        "grrr",
    }


# ---------------------------------------------------------------------------
# kind metadata used by the simulation bit packing


def test_kind_bits_are_a_permutation():
    bits = sorted(kind.bit for kind in ALL_KINDS)
    assert bits == [0, 1, 2, 3, 4, 5]
    assert MeasureKind.RR.bit == 0
    assert MeasureKind.OR.bit == 5


def test_kind_string_values():
    assert MeasureKind("RR*") is MeasureKind.RR_STAR
    assert MeasureKind("HR*") is MeasureKind.HR_STAR
    with pytest.raises(ValueError):
        MeasureKind("IRR")
