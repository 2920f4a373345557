"""Tests for the subset-agreement simulation and the tent sampler."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from concord.agreement import Direction, StratifiedRisks, agree, critical_p4
from concord import montecarlo
from concord.errors import ConfigError, DomainError
from concord.measures import (
    ALL_KINDS,
    MeasureKind,
    RiskPair,
    _strict_measures,
    measure_vector,
)
from concord.montecarlo import (
    _BLOCK,
    _QUANTILE_WORK,
    _REDRAW_ROUNDS,
    _TILE,
    Distribution,
    SimulationConfig,
    SimulationResult,
    _block_counts,
    _counts_from_histogram,
    _direction_masks,
    _draw_tile,
    _gate_conflicts,
    _redraw_on_bounds,
    _Scratch,
    _spare_draws,
    _tent_quantile,
    quadruple_density,
    run,
    subset_mask,
    tent_cdf,
    tent_inverse_cdf,
    tent_pdf,
    venn_csv,
    venn_json_rows,
    venn_table,
)

RR = MeasureKind.RR
RR_STAR = MeasureKind.RR_STAR

peaks = st.floats(min_value=1e-3, max_value=1.0 - 1e-3)
unit = st.floats(min_value=0.0, max_value=1.0)


def _draw(entropy, n, config):
    # n trials of (p1, p2, p3, p4) through one _draw_tile, from four lanes and
    # a spare spawned from SeedSequence(entropy)
    *lanes, spare = map(np.random.default_rng, np.random.SeedSequence(entropy).spawn(5))
    draws = np.empty((4, n))
    _draw_tile(lanes, spare, config, draws, np.empty((_QUANTILE_WORK, n)))
    return draws


def _kernel_keys(*risks):
    # the six-measure kernel's keys, in the buffers run gives it
    scratch = _Scratch(risks[0].size)
    return _direction_masks(*risks, out=scratch.keys, work=scratch.kernel)


def _screen(*risks):
    # the RR/RR* screen's flags, in the buffers run gives it
    scratch = _Scratch(risks[0].size)
    return _gate_conflicts(*risks, out=scratch.gate, work=scratch.screen)


def _record_screened_tiles(monkeypatch):
    # the tiles of (p1, p2, p3, p4) that run's screen sees, in order
    tiles = []

    def recording_gate(*risks, out, work):
        tiles.append(np.stack(risks))
        return _gate_conflicts(*risks, out=out, work=work)

    monkeypatch.setattr(montecarlo, "_gate_conflicts", recording_gate)
    return tiles


class _Emitter:
    """Stands in for a generator: random() hands out the given values in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size=None, out=None):
        if out is None:
            out = np.empty(size)
        out[...] = self.values[: out.size]
        self.values = self.values[out.size :]
        return out


# ---------------------------------------------------------------------------
# tent distribution


def test_tent_cdf_endpoints_and_peak():
    assert tent_cdf(0.0, 0.3) == 0.0
    assert tent_cdf(1.0, 0.3) == 1.0
    assert tent_cdf(-0.5, 0.3) == 0.0
    assert tent_cdf(1.5, 0.3) == 1.0
    # on unit bounds the mass left of the peak equals the peak itself
    assert tent_cdf(0.3, 0.3) == pytest.approx(0.3)
    assert tent_cdf(0.5, 0.5, (0.0, 1.0)) == pytest.approx(0.5)


def test_tent_icdf_endpoints():
    assert tent_inverse_cdf(0.0, 0.3) == 0.0
    assert tent_inverse_cdf(1.0, 0.3) == 1.0
    assert tent_inverse_cdf(0.0, 0.5, (0.2, 0.8)) == pytest.approx(0.2)
    assert tent_inverse_cdf(1.0, 0.5, (0.2, 0.8)) == pytest.approx(0.8)


@given(unit, peaks)
def test_tent_round_trip_unit_bounds(u, peak):
    x = tent_inverse_cdf(u, peak)
    assert 0.0 <= x <= 1.0
    assert tent_cdf(x, peak) == pytest.approx(u, abs=1e-9)


@given(unit, st.floats(min_value=0.21, max_value=0.79))
def test_tent_round_trip_custom_bounds(u, peak):
    bounds = (0.2, 0.8)
    x = tent_inverse_cdf(u, peak, bounds)
    assert 0.2 <= x <= 0.8
    assert tent_cdf(x, peak, bounds) == pytest.approx(u, abs=1e-9)


@settings(max_examples=300)
@given(
    st.sampled_from([(0.0, 1.0), (0.2, 0.8)]),
    st.floats(min_value=0.01, max_value=0.99),
    st.one_of(unit, st.integers(min_value=-2, max_value=2)),
)
# at this threshold u, u <= (peak - L) / span holds and u * span <= peak - L does not
@example((0.2, 0.8), 0.03873938237130803, 0)
def test_scalar_tent_quantile_is_the_array_quantile(bounds, t, u):
    # an integer u means: u on the branch threshold, moved by that many ulp
    lower, upper = bounds
    peak = lower + t * (upper - lower)
    assume(lower < peak < upper)
    if isinstance(u, int):
        threshold = (peak - lower) / (upper - lower)
        u = min(1.0, max(0.0, threshold + u * math.ulp(threshold)))
    array = _tent_quantile(np.array([u]), np.array([peak]), lower, upper)
    assert tent_inverse_cdf(u, peak, bounds) == array[0]


def test_tent_pdf_shape():
    # peak height is 2/span regardless of where the peak sits
    assert tent_pdf(0.3, 0.3) == pytest.approx(2.0)
    assert tent_pdf(0.5, 0.5, (0.2, 0.8)) == pytest.approx(2.0 / 0.6)
    assert tent_pdf(0.1, 0.3) == pytest.approx(2 * 0.1 / 0.3)
    assert tent_pdf(0.9, 0.3) == pytest.approx(2 * 0.1 / 0.7)
    assert tent_pdf(-0.1, 0.3) == 0.0
    assert tent_pdf(1.1, 0.3) == 0.0


def test_tent_pdf_integrates_to_one():
    xs = np.linspace(0.0, 1.0, 20001)
    ys = np.array([tent_pdf(float(x), 0.37) for x in xs])
    assert np.trapezoid(ys, xs) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize(
    "call",
    [
        lambda: tent_cdf(0.5, 0.0),  # peak on the boundary
        lambda: tent_cdf(0.5, 1.0),
        lambda: tent_inverse_cdf(0.5, 0.9, (0.2, 0.8)),  # peak outside bounds
        lambda: tent_inverse_cdf(1.5, 0.3),  # u out of range
        lambda: tent_inverse_cdf(-0.1, 0.3),
        lambda: tent_pdf(0.5, 0.5, (0.8, 0.2)),  # reversed bounds
        lambda: tent_cdf(math.nan, 0.3),  # NaN arguments
        lambda: tent_pdf(math.nan, 0.3),
        lambda: quadruple_density(0.5, math.nan, 0.5, 0.5),
        lambda: quadruple_density(0.5, 0.5, 0.5, 0.5, (0.8, 0.2)),
    ],
)
def test_tent_argument_errors(call):
    with pytest.raises(DomainError):
        call()


def test_quadruple_density_hand_values():
    # independent uniforms for the controls, tents peaked there for the rest
    num = quadruple_density(0.56, 0.53, 0.78, 0.74)
    assert num == pytest.approx((2 * 0.53 / 0.56) * (2 * 0.74 / 0.78))
    den = quadruple_density(0.1, 0.9, 0.8, 0.3)
    assert den == pytest.approx((2 * 0.1 / 0.9) * (2 * 0.3 / 0.8))
    assert 20.0 < num / den < 23.0
    assert quadruple_density(-0.1, 0.5, 0.5, 0.5) == 0.0


def test_tent_draws_match_cdf():
    # one-sample KS against the analytic CDF at a fixed peak
    n = 200_000
    peak = 0.3
    u = _draw(11, n // 4, SimulationConfig(trials=1)).ravel()  # uniform on (0, 1)
    x = np.sort(_tent_quantile(u, np.full(n, peak), 0.0, 1.0))
    left = x <= peak
    cdf = np.where(left, x**2 / peak, 1.0 - (1.0 - x) ** 2 / (1.0 - peak))
    grid = np.arange(1, n + 1) / n
    ks = np.max(np.abs(cdf - grid))
    assert ks < 0.005  # 0.1% critical value is about 0.0044 at this n


def test_tent_draws_match_cdf_at_the_smallest_spans():
    # near the span rule's limit every exposed risk, put through its own
    # stratum's tent CDF, must still be uniform (KS on 2 * 100000 draws)
    lower, upper = 0.0, 1e-130
    cfg = SimulationConfig(
        trials=1, distribution=Distribution.TENT_DEPENDENT, bounds=(lower, upper)
    )
    p1, p2, p3, p4 = _draw(13, 100_000, cfg)
    span = upper - lower
    x = (np.concatenate([p2, p4]) - lower) / span
    peak = (np.concatenate([p1, p3]) - lower) / span
    cdf = np.sort(np.where(x <= peak, x**2 / peak, 1.0 - (1.0 - x) ** 2 / (1.0 - peak)))
    n = cdf.size
    ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert ks < 0.005  # 0.1% critical value is about 0.0044 at this n


# ---------------------------------------------------------------------------
# samplers


def test_draw_tile_ranges():
    cfg = SimulationConfig(trials=1, distribution=Distribution.UNIFORM_UNIT)
    draws = _draw([3, 0], 10_000, cfg)
    for arr in draws:
        assert np.all((arr > 0.0) & (arr < 1.0))

    cfg = SimulationConfig(trials=1, distribution=Distribution.UNIFORM_RARE)
    draws = _draw([3, 1], 10_000, cfg)
    for arr in draws:
        assert np.all((arr > 0.0) & (arr <= 0.1))

    cfg = SimulationConfig(
        trials=1, distribution=Distribution.TENT_DEPENDENT, bounds=(0.2, 0.8)
    )
    p1, p2, p3, p4 = _draw([3, 2], 10_000, cfg)
    assert np.all((p1 > 0.2) & (p1 < 0.8))
    assert np.all((p3 > 0.2) & (p3 < 0.8))
    assert np.all((p2 >= 0.2) & (p2 <= 0.8))
    assert np.all((p4 >= 0.2) & (p4 <= 0.8))


def test_draw_tile_keeps_control_risks_off_the_bounds():
    # span * u rounds onto U = 1 about once in 2000 draws at these bounds
    bounds = (0.9999999999999, 1.0)
    cfg = SimulationConfig(
        trials=1, distribution=Distribution.TENT_DEPENDENT, bounds=bounds
    )
    p1, p2, p3, p4 = _draw(0, 10_000, cfg)
    for control in (p1, p3):
        assert np.all((control > bounds[0]) & (control < bounds[1]))
    for exposed in (p2, p4):
        assert np.all((exposed >= bounds[0]) & (exposed < bounds[1]))
    # uniform risks take the same map and the same redraw, all four of them
    cfg = SimulationConfig(trials=1, bounds=bounds)
    for risk in _draw(0, 10_000, cfg):
        assert np.all((risk > bounds[0]) & (risk < bounds[1]))


def test_redraw_gives_up_after_a_fixed_number_of_rounds():
    rounds = []

    def stuck(bad):  # every redraw lands on a bound again
        rounds.append(int(bad.sum()))
        return np.zeros(int(bad.sum()))

    values = np.array([0.5, 0.0, 0.25, 1.0])
    with pytest.raises(ConfigError, match=f"after {_REDRAW_ROUNDS} rounds"):
        _redraw_on_bounds(values, stuck, 0.0, 1.0)
    assert rounds == [2] * _REDRAW_ROUNDS
    assert values[0] == 0.5 and values[2] == 0.25  # in-bounds draws are kept


def test_spare_draws_redraw_their_own_zeros():
    spare = _Emitter([0.0, 0.3, 0.0, 0.6, 0.8])
    assert list(_spare_draws(spare, np.array([True, False, True]))) == [0.6, 0.3]
    assert list(spare.values) == [0.8]


def test_draw_tile_replaces_only_zeros_from_the_spare():
    # p1's zeros take the spare's next draws first, then p2's, p3's, p4's
    lanes = [
        _Emitter([0.25, 0.0, 0.5]),
        _Emitter([0.0, 0.75, 0.0]),
        _Emitter([0.5, 0.5, 0.5]),
        _Emitter([0.125, 0.0, 0.375]),
    ]
    out = np.empty((4, 3))
    _draw_tile(lanes, np.random.default_rng(9), SimulationConfig(), out, [])
    t = np.random.default_rng(9).random(4)
    expected = [[0.25, t[0], 0.5], [t[1], 0.75, t[2]], [0.5] * 3, [0.125, t[3], 0.375]]
    assert np.array_equal(out, expected)


def _quantile(u, peak, bounds):
    return _tent_quantile(np.array([u]), np.array([peak]), *bounds)[0]


@pytest.mark.parametrize(
    "bounds, u1, u2, u3, u4",
    [
        # p1[1] and p3[1] land on 0, and so do p2[0] and p4[2]; u3[0] is a zero
        (
            (0.0, 0.5),
            [0.5, 5e-324, 0.25],
            [5e-324, 0.5, 0.5],
            [0.0, 5e-324, 0.5],
            [0.5, 0.5, 5e-324],
        ),
        # p1[1] and p3[2] land on 1, and so do p2[2] and p4[0]; u3[1] is a zero
        (
            (0.9999999999999, 1.0),
            [0.5, 1 - 2**-53, 0.99],
            [0.5, 0.5, 0.999999],
            [0.99, 0.0, 1 - 2**-53],
            [0.999999, 0.5, 0.5],
        ),
    ],
)
def test_draw_tile_replaces_only_tent_values_on_a_bound(bounds, u1, u2, u3, u4):
    # lanes emit p1, p2, p3, p4 as uniforms. The zero is replaced first, then
    # the control risks p1, p3 on a bound, then the exposed risks p2, p4 on 0
    # or 1, each by the spare's next draw put through that risk's transform.
    lower, upper = bounds
    cfg = SimulationConfig(distribution=Distribution.TENT_DEPENDENT, bounds=bounds)
    out = np.empty((4, 3))
    lanes = [_Emitter(u) for u in (u1, u2, u3, u4)]
    _draw_tile(lanes, np.random.default_rng(9), cfg, out, np.empty((_QUANTILE_WORK, 3)))
    spare = iter(np.random.default_rng(9).random(5))

    def control(u):
        return lower + (upper - lower) * u

    u3 = [next(spare) if u == 0.0 else u for u in u3]
    p1, p3 = [control(u) for u in u1], [control(u) for u in u3]
    for p in (p1, p3):
        for i, x in enumerate(p):
            if not lower < x < upper:
                p[i] = control(next(spare))
    p2 = [_quantile(u, peak, bounds) for u, peak in zip(u2, p1)]
    p4 = [_quantile(u, peak, bounds) for u, peak in zip(u4, p3)]
    for p, peaks in ((p2, p1), (p4, p3)):
        for i, x in enumerate(p):
            if not 0.0 < x < 1.0:
                p[i] = _quantile(next(spare), peaks[i], bounds)
    assert next(spare, None) is None  # each planted value, and only it, was bad
    assert np.array_equal(out, [p1, p2, p3, p4])


def test_draw_tile_replaces_uniform_values_on_a_bound():
    # u = 1 - 2**-53 maps onto U = 1 at these bounds. The zero is replaced
    # first, then each of p1, p2, p3, p4 on a bound in turn, by the spare's
    # next draw put through the same map.
    lower, upper = bounds = (0.9999999999999, 1.0)
    top = 1 - 2**-53
    us = [[0.5, top], [0.0, 0.5], [top, 0.25], [0.75, top]]
    out = np.empty((4, 2))
    lanes = [_Emitter(u) for u in us]
    _draw_tile(lanes, np.random.default_rng(9), SimulationConfig(bounds=bounds), out, [])
    spare = iter(np.random.default_rng(9).random(4))
    us[1][0] = next(spare)
    expected = [[lower + (upper - lower) * u for u in risk] for risk in us]
    for risk in expected:
        for i, x in enumerate(risk):
            if not lower < x < upper:
                risk[i] = lower + (upper - lower) * next(spare)
    assert next(spare, None) is None  # each planted value, and only it, was bad
    assert np.array_equal(out, expected)


# The draw models, as (distribution, bounds).
DRAW_MODELS = [
    (Distribution.UNIFORM_UNIT, (0.0, 1.0)),
    (Distribution.UNIFORM_RARE, (0.0, 0.1)),
    (Distribution.TENT_DEPENDENT, (0.0, 1.0)),
    (Distribution.TENT_DEPENDENT, (0.2, 0.8)),
    (Distribution.UNIFORM_UNIT, (0.2, 0.8)),
]


@pytest.mark.parametrize("dist, bounds", DRAW_MODELS)
def test_gate_flags_exactly_the_two_sided_keys(dist, bounds):
    # run() sends only the gate's conflicts through the six-measure kernel;
    # that is exact because every other trial's key has at most one side
    cfg = SimulationConfig(trials=1, distribution=dist, bounds=bounds)
    for block in range(2):
        draws = _draw([5, block], _BLOCK, cfg)
        keys = _kernel_keys(*draws)
        two_sided = ((keys >> 6) != 0) & ((keys & 63) != 0)
        assert np.array_equal(_screen(*draws), two_sided)


def test_gate_tie_never_conflicts():
    # trial 0: RR ties at exactly 2 while RR* points toward Q;
    # trial 1: identical strata tie on both
    p1, p2 = np.array([0.2, 0.3]), np.array([0.4, 0.6])
    p3, p4 = np.array([0.3, 0.3]), np.array([0.6, 0.6])
    assert p2[0] / p1[0] == p4[0] / p3[0]
    assert not _screen(p1, p2, p3, p4).any()


# Sizes around the tile edges: one trial, a tile less one, one tile, one
# tile and one, and a ragged run of tiles.
TILED_SIZES = [1, _TILE - 1, _TILE, _TILE + 1, 3 * _TILE + 5]


def _untiled_gate(p1, p2, p3, p4):
    rr_p, rr_q = p2 / p1, p4 / p3
    star_p, star_q = (1.0 - p1) / (1.0 - p2), (1.0 - p3) / (1.0 - p4)
    return ((rr_q < rr_p) & (star_q > star_p)) | ((rr_q > rr_p) & (star_q < star_p))


def _untiled_tent_ppf(u, peak, lower, upper):
    span = upper - lower
    left = lower + np.sqrt(u * (peak - lower) * span)
    right = upper - np.sqrt((1.0 - u) * (upper - peak) * span)
    return np.where(u * span <= peak - lower, left, right)


@pytest.mark.parametrize("n", TILED_SIZES)
def test_tiled_gate_matches_untiled_reference(n):
    rng = np.random.default_rng(n)
    p1, p2, p3, p4 = rng.random((4, n))
    # some trials tie on both measures, some on RR alone
    p3[::5], p4[::5] = p1[::5], p2[::5]
    p3[1::5], p4[1::5] = 0.5 * p1[1::5], 0.5 * p2[1::5]
    expected = _untiled_gate(p1, p2, p3, p4)
    scratch = _Scratch(n)  # run's layout, for tiles of n trials
    scratch.gate.fill(True)
    out = _gate_conflicts(p1, p2, p3, p4, out=scratch.gate, work=scratch.screen)
    assert out is scratch.gate
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("n", TILED_SIZES)
@pytest.mark.parametrize("lower, upper", [(0.0, 1.0), (0.2, 0.8)])
def test_tiled_tent_quantile_matches_untiled_reference(n, lower, upper):
    rng = np.random.default_rng(n)
    span = upper - lower
    peak = lower + span * rng.random(n)
    u = rng.random(n)
    u[::7] = (peak[::7] - lower) / span  # on the branch threshold
    expected = _untiled_tent_ppf(u, peak, lower, upper)
    assert np.array_equal(_tent_quantile(u, peak, lower, upper), expected)
    work = np.empty((_QUANTILE_WORK, n))
    assert _tent_quantile(u, peak, lower, upper, out=u, work=work) is u
    assert np.array_equal(u, expected)


def _tent_bounds_ok(bounds):
    try:
        SimulationConfig(distribution=Distribution.TENT_DEPENDENT, bounds=bounds)
    except ConfigError:
        return False
    return True


tent_bounds = st.one_of(
    st.sampled_from([(0.0, 1.0), (-0.0, 1.0), (0.2, 0.8), (0.0, 1e-130)]),
    st.tuples(unit, unit).map(lambda b: (min(b), max(b))).filter(_tent_bounds_ok),
)


@settings(max_examples=300)
@given(
    tent_bounds,
    st.one_of(unit, st.sampled_from(["above lower", "below upper"])),
    st.one_of(unit, st.integers(min_value=-2, max_value=2)),
)
@example((0.2, 0.8), 0.03873938237130803, 0)  # u on the branch threshold
@example((0.0, 1.0), 0.3, 0.0)
@example((0.0, 1.0), 0.3, 1.0)
@example((-0.0, 1.0), 0.5, 0.0)
@example((-0.0, 1.0), 0.5, -0.0)  # the left branch is -0.0
@example((0.0, 1e-130), 0.5, 0.25)
@example((0.0, 1e-130), 0.5, 1.0)
@example((0.2, 0.8), "above lower", 0.5)
@example((0.2, 0.8), "below upper", 0.5)
def test_blended_tent_quantile_is_the_where_quantile(bounds, t, u):
    # the peak is lower + t * span, or one ulp inside a bound; an integer u
    # means: u on the branch threshold, moved by that many ulp
    lower, upper = bounds
    if t == "above lower":
        peak = math.nextafter(lower, upper)
    elif t == "below upper":
        peak = math.nextafter(upper, lower)
    else:
        peak = lower + t * (upper - lower)
    assume(lower < peak < upper)
    if isinstance(u, int):
        threshold = (peak - lower) / (upper - lower)
        u = min(1.0, max(0.0, threshold + u * math.ulp(threshold)))
    expected = _untiled_tent_ppf(np.array([u]), np.array([peak]), lower, upper)
    scalar = np.array([tent_inverse_cdf(u, peak, bounds)])
    work = np.empty((_QUANTILE_WORK, 1))
    array = _tent_quantile(
        np.array([u]), np.array([peak]), lower, upper, out=np.empty(1), work=work
    )
    for got in (scalar, array):
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("dist", list(Distribution))
def test_tiles_allocate_no_tile_temporaries(dist):
    # run() draws, screens and counts every tile in one _Scratch; a float
    # temporary of one tile would be 8 * _TILE bytes. What is left is the
    # histogram, the conflicts' indices and the kernel's bincount.
    cfg = SimulationConfig(trials=1, distribution=dist)
    rng, spare = np.random.default_rng(4), np.random.default_rng(5)
    lanes = [np.random.default_rng(0) for _ in range(4)]  # states are overwritten
    scratch = _Scratch(_TILE)

    def three_tiles():
        _block_counts(rng, spare, lanes, 3 * _TILE, cfg, scratch)

    three_tiles()  # warm-up
    tracemalloc.start()
    try:
        three_tiles()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * _TILE


@pytest.mark.parametrize(
    "dist, scale", [(Distribution.UNIFORM_UNIT, 1.0), (Distribution.UNIFORM_RARE, 0.1)]
)
def test_uniform_draws_are_scaled_generator_output_in_order(
    dist, scale, monkeypatch
):
    # a block's p1, p2, p3, p4 each take the next n draws of the main stream
    # (no exact zero at this seed), which then moves past all 4n of them
    n = _TILE + 1
    reference = np.random.default_rng(2)
    expected = reference.random((4, n))
    tiles = _record_screened_tiles(monkeypatch)
    rng = np.random.default_rng(2)
    lanes = [np.random.default_rng(0) for _ in range(4)]  # states are overwritten
    cfg = SimulationConfig(trials=1, distribution=dist)
    _block_counts(rng, np.random.default_rng(3), lanes, n, cfg, _Scratch(_TILE))
    assert np.array_equal(np.concatenate(tiles, axis=1), scale * expected)
    assert rng.random() == reference.random()


open_unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
near_ties = st.one_of(
    st.none(), st.tuples(st.sampled_from(ALL_KINDS), st.integers(min_value=-4, max_value=4))
)


@settings(max_examples=300, deadline=None)
@given(open_unit, open_unit, open_unit, open_unit, near_ties)
def test_direction_keys_match_agree_outside_the_tie_band(p1, p2, p3, p4, near_tie):
    # agree() ties measures within a relative 1e-9 and the kernel compares
    # exactly, so the two must give the same direction everywhere else;
    # p4 is often moved to within a few ulp of a critical value
    if near_tie is not None:
        kind, steps = near_tie
        c = critical_p4(p1, p2, p3, kind)
        p4 = c + steps * math.ulp(c)
        assume(0.0 < p4 < 1.0)
    with np.errstate(all="ignore"):
        key = int(_kernel_keys(*(np.array([p]) for p in (p1, p2, p3, p4)))[0])
        twin = int(_kernel_keys(*(np.array([p]) for p in (p1, p2, p1, p2)))[0])
    assert twin == 0  # identical strata tie exactly on every measure
    report = agree(StratifiedRisks.from_probs(p1, p2, p3, p4))
    em_p = measure_vector(RiskPair(p1, p2))
    em_q = measure_vector(RiskPair(p3, p4))
    for kind, vp, vq in zip(ALL_KINDS, em_p, em_q):
        if math.isclose(vp, vq, rel_tol=1e-9):
            continue
        d = report.directions[kind]
        assert ((key >> (6 + kind.bit)) & 1) == (d is Direction.TOWARD_P), kind
        assert ((key >> kind.bit) & 1) == (d is Direction.TOWARD_Q), kind


# ---------------------------------------------------------------------------
# the simulation


def test_config_validation():
    with pytest.raises(ConfigError):
        SimulationConfig(trials=0)
    with pytest.raises(ConfigError):
        SimulationConfig(trials=10, bounds=(0.5, 0.2))
    with pytest.raises(ConfigError):
        SimulationConfig(trials=10, bounds=(-0.1, 0.5))
    with pytest.raises(ConfigError):
        SimulationConfig(trials=10, distribution="uniform")
    with pytest.raises(ConfigError):
        SimulationConfig(trials=10, seed=-1)
    with pytest.raises(ConfigError, match="integer"):
        SimulationConfig(trials=2.5)
    with pytest.raises(ConfigError, match="integer"):
        SimulationConfig(seed=0.5)
    with pytest.raises(ConfigError, match="integer"):
        SimulationConfig(trials=True)
    # bounds apply to every distribution: uniform draws lie inside them
    for risk in _draw(1, 10_000, SimulationConfig(trials=10, bounds=(0.2, 0.5))):
        assert np.all((risk > 0.2) & (risk < 0.5))
    with pytest.raises(ConfigError, match="span squared"):
        SimulationConfig(trials=10, bounds=(0.0, 1e-140))
    with pytest.raises(ConfigError, match="strictly between"):
        SimulationConfig(
            trials=10, distribution=Distribution.TENT_DEPENDENT, bounds=(0.0, 5e-324)
        )
    with pytest.raises(ConfigError, match="span squared"):
        SimulationConfig(
            trials=10, distribution=Distribution.TENT_DEPENDENT, bounds=(0.0, 1e-140)
        )
    SimulationConfig(
        trials=10, distribution=Distribution.TENT_DEPENDENT, bounds=(0.0, 1e-130)
    )
    tent = Distribution.TENT_DEPENDENT
    for bounds in [(0.0, 1.0, 2.0), (0.2,), ("0.2", "0.8"), (0.2 + 0j, 0.8)]:
        with pytest.raises(ConfigError, match="two reals"):
            SimulationConfig(trials=10, distribution=tent, bounds=bounds)
    with pytest.raises(ConfigError, match="two reals"):
        SimulationConfig(trials=10, distribution=tent, bounds=(False, True))
    SimulationConfig(trials=10, distribution=tent, bounds=[np.float64(0.2), 0.8])
    # bounds=None is the default: (0, 0.1) for rare, (0, 1) otherwise
    for dist in Distribution:
        expected = (0.0, 0.1) if dist is Distribution.UNIFORM_RARE else (0.0, 1.0)
        assert SimulationConfig(distribution=dist, bounds=None).bounds == expected


def test_subset_mask_values():
    assert subset_mask([]) == 0
    assert subset_mask([RR, RR_STAR]) == 3
    assert subset_mask(ALL_KINDS) == 63


def test_run_is_deterministic():
    cfg = SimulationConfig(trials=30_000, seed=42)
    assert run(cfg).counts == run(cfg).counts


# Counts of run(SimulationConfig(trials=300_000, seed=7, distribution=d)),
# pinned so that a seed gives the same output across versions. A change to
# the stream layout, the block size or the direction kernel shows up here.
GOLDEN_COUNTS = {
    Distribution.UNIFORM_UNIT: (
        300000, 300000, 300000, 250029, 300000, 287497, 262532, 250029,
        300000, 262573, 287456, 250029, 275076, 262573, 262532, 250029,
        300000, 275114, 274915, 250029, 283661, 273136, 260554, 250029,
        283587, 260637, 272979, 250029, 271162, 260637, 260554, 250029,
        300000, 275053, 274976, 250029, 287556, 275053, 262532, 250029,
        287520, 262573, 274976, 250029, 275076, 262573, 262532, 250029,
        284143, 267155, 267017, 250029, 277680, 267155, 260554, 250029,
        277625, 260637, 267017, 250029, 271162, 260637, 260554, 250029,
    ),
    Distribution.UNIFORM_RARE: (
        300000, 300000, 300000, 274046, 300000, 299613, 274433, 274046,
        300000, 293640, 280406, 274046, 294027, 293640, 274433, 274046,
        300000, 275114, 298932, 274046, 275501, 275114, 274433, 274046,
        281474, 275114, 280406, 274046, 275501, 275114, 274433, 274046,
        300000, 299220, 274826, 274046, 299607, 299220, 274433, 274046,
        294420, 293640, 274826, 274046, 294027, 293640, 274433, 274046,
        275894, 275114, 274826, 274046, 275501, 275114, 274433, 274046,
        275894, 275114, 274826, 274046, 275501, 275114, 274433, 274046,
    ),
    Distribution.TENT_DEPENDENT: (
        300000, 300000, 300000, 253659, 300000, 287609, 266050, 253659,
        300000, 266164, 287495, 253659, 278555, 266164, 266050, 253659,
        300000, 276892, 276767, 253659, 284643, 274572, 263730, 253659,
        284828, 263942, 274545, 253659, 274013, 263942, 263730, 253659,
        300000, 276883, 276776, 253659, 289274, 276883, 266050, 253659,
        289281, 266164, 276776, 253659, 278555, 266164, 266050, 253659,
        284553, 269164, 269048, 253659, 279235, 269164, 263730, 253659,
        279331, 263942, 269048, 253659, 274013, 263942, 263730, 253659,
    ),
}


@pytest.mark.parametrize("dist", list(Distribution))
def test_seeded_counts_are_stable_across_versions(dist):
    result = run(SimulationConfig(trials=300_000, seed=7, distribution=dist))
    assert result.counts == GOLDEN_COUNTS[dist]


def _reference_tiles(config):
    # the tiles of (p1, p2, p3, p4) that run(config) draws, with each block's
    # lanes read off the main stream drawn serially
    main, spare = np.random.SeedSequence(config.seed).spawn(2)
    rng, spare = np.random.default_rng(main), np.random.default_rng(spare)
    # the rows of p1, p2, p3, p4 in the block's stream
    tent = config.distribution is Distribution.TENT_DEPENDENT
    rows = (0, 2, 1, 3) if tent else (0, 1, 2, 3)
    work = np.empty((_QUANTILE_WORK, _TILE))
    remaining = config.trials
    while remaining > 0:
        block = min(_BLOCK, remaining)
        stream = rng.random((4, block))
        lanes = [_Emitter(stream[row]) for row in rows]
        for start in range(0, block, _TILE):
            draws = np.empty((4, min(_TILE, block - start)))
            _draw_tile(lanes, spare, config, draws, work)
            yield draws
        remaining -= block


def _unscreened_counts(config):
    # run() without the gate screen: every trial through the full kernel
    hist = np.zeros(4096, dtype=np.int64)
    for draws in _reference_tiles(config):
        hist += np.bincount(_kernel_keys(*draws), minlength=4096)
    return _counts_from_histogram(hist)


# Two doubles apart: about half the draws land on a bound, so every tile
# replaces values from the spare.
TWO_ULP_BOUNDS = (0.5, 0.5000000000000002)


NEAR_ONE_SCREEN_XFAIL = pytest.mark.xfail(
    strict=True,
    reason="the RR/RR* screen is not exact near 1 (CHANGES.md FOUND, "
    "ROADMAP items 1 and 7)",
)


SCREENED_RUNS = [
    *(
        pytest.param(dist, bounds, seed, trials, id=f"{seed}-{trials}-{dist}-{bounds}")
        for seed, trials in [(3, _BLOCK + 7), (2, 3 * _TILE + 5), (0, 1), (1, 1)]
        for dist, bounds in [
            *DRAW_MODELS,
            (Distribution.TENT_DEPENDENT, TWO_ULP_BOUNDS),
            (Distribution.UNIFORM_UNIT, TWO_ULP_BOUNDS),
        ]
    ),
    # A float RR ties exactly while RD and RR* split, and the screen counts
    # that trial at key 0: for each distribution 30 of the 64 counts differ
    # (for uniform, from index 18 on, as 45,077 against 45,064)
    *(
        pytest.param(
            dist, (0.9999999999999, 1.0), 2, 3 * _TILE + 5,
            id=f"2-49157-{dist}-near-one", marks=NEAR_ONE_SCREEN_XFAIL,
        )
        for dist in (Distribution.TENT_DEPENDENT, Distribution.UNIFORM_UNIT)
    ),
]  # fmt: skip


@pytest.mark.parametrize("dist, bounds, seed, trials", SCREENED_RUNS)
def test_screened_counts_equal_unscreened_counts(dist, bounds, seed, trials):
    # with one trial, seed 0 draws an RR/RR* conflict and seed 1 does not
    cfg = SimulationConfig(trials=trials, seed=seed, distribution=dist, bounds=bounds)
    assert run(cfg).counts == _unscreened_counts(cfg)


def test_full_packing_buffer_runs_the_kernel_mid_block(monkeypatch):
    # The conflicts of a 2^18-trial block overflow the _TILE-trial packing
    # buffer, so the kernel runs before the block ends, and the counts are
    # still those of every trial through the kernel.
    cfg = SimulationConfig(trials=_BLOCK + 7, seed=3)
    blocks = []

    def recording_block_counts(*args):
        blocks.append([])
        return _block_counts(*args)

    def counting_kernel(p1, p2, p3, p4, out, work):
        blocks[-1].append(p1.size)
        return _direction_masks(p1, p2, p3, p4, out, work)

    monkeypatch.setattr(montecarlo, "_block_counts", recording_block_counts)
    monkeypatch.setattr(montecarlo, "_direction_masks", counting_kernel)
    counts = run(cfg).counts
    assert len(blocks) == 2
    assert len(blocks[0]) >= 3 and max(blocks[0]) <= _TILE
    assert counts == _unscreened_counts(cfg)


def test_run_draws_the_reference_stream_near_one(monkeypatch):
    # Near 1 about one control draw in 900 is replaced from the spare. The
    # float gate screen is not exact this close to 1, so the draws are
    # compared here, not the counts.
    cfg = SimulationConfig(
        trials=_BLOCK + 7,
        seed=3,
        distribution=Distribution.TENT_DEPENDENT,
        bounds=(0.9999999999999, 1.0),
    )
    tiles, replaced = _record_screened_tiles(monkeypatch), []
    run(cfg)

    def counting_spare_draws(spare, bad):
        replaced.append(int(bad.sum()))
        return _spare_draws(spare, bad)

    monkeypatch.setattr(montecarlo, "_spare_draws", counting_spare_draws)
    reference = list(_reference_tiles(cfg))
    assert sum(replaced) > 100
    assert len(tiles) == len(reference) == 17
    for got, expected in zip(tiles, reference):
        assert np.array_equal(got, expected)


class _FirstDrawZero:
    """A lane whose next random(out=) call has its first value set to 0.0."""

    def __init__(self, lane):
        self.lane = lane

    def random(self, out):
        self.lane.random(out=out)[0] = 0.0
        return out


def _blocks_of_run(config, monkeypatch, force_zero):
    # run(config)'s per-block histograms, and the first p1 of block 0's sixth
    # tile, whose draw is made 0.0 before _draw_tile sees it if force_zero
    blocks, tiles, first_p1 = [], [], []

    def recording_block_counts(*args):
        blocks.append(_block_counts(*args))
        return blocks[-1]

    def tile(lanes, spare, config, out, work):
        tiles.append(None)
        if force_zero and len(tiles) == 6:
            lanes = [_FirstDrawZero(lanes[0]), *lanes[1:]]
        _draw_tile(lanes, spare, config, out, work)
        if len(tiles) == 6:
            first_p1.append(out[0][0])

    monkeypatch.setattr(montecarlo, "_block_counts", recording_block_counts)
    monkeypatch.setattr(montecarlo, "_draw_tile", tile)
    result = run(config)
    return result, blocks, first_p1[0]


@pytest.mark.parametrize("dist", list(Distribution))
def test_replaced_value_keeps_the_other_blocks_counts(dist, monkeypatch):
    # A 0.0 forced into p1 of the sixth tile of block 0 takes the spare's
    # next draw; the main stream does not move, so blocks 1 onward keep their
    # counts, and each total moves by at most that one trial.
    cfg = SimulationConfig(trials=300_000, seed=7, distribution=dist)
    plain, plain_blocks, plain_p1 = _blocks_of_run(cfg, monkeypatch, False)
    forced, forced_blocks, forced_p1 = _blocks_of_run(cfg, monkeypatch, True)
    assert plain.counts == GOLDEN_COUNTS[dist]
    assert len(forced_blocks) == 2
    assert np.array_equal(forced_blocks[1], plain_blocks[1])
    assert np.abs(forced_blocks[0] - plain_blocks[0]).sum() <= 2
    assert 0.0 < forced_p1 != plain_p1
    for got, golden in zip(forced.counts, GOLDEN_COUNTS[dist]):
        assert abs(got - golden) <= 1


@pytest.mark.parametrize("dist", list(Distribution))
def test_run_holds_no_block(dist):
    # run() streams each block tile by tile through one scratch allocation
    # of about 3.2 MiB; a block of four float arrays alone is 8 MiB
    cfg = SimulationConfig(trials=1_000_000, distribution=dist)
    run(cfg)  # warm-up
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_strict_measures_through_out_match_fresh_arrays():
    rng = np.random.default_rng(10)
    a, b = rng.random((2, 4096))
    a[:3], b[:3] = [5e-324, 1e-300, 1 - 2**-53], [1e-300, 5e-324, 0.5]
    out = list(np.full((6, 4096), np.nan))
    # the scalar formulas on arrays: RR, RR*, HR, HR*, RD, OR = RR * RR*
    rr, rr_star = b / a, (1.0 - a) / (1.0 - b)
    hr, hr_star = np.log1p(-b) / np.log1p(-a), np.log(a) / np.log(b)
    fresh = (rr, rr_star, hr, hr_star, b - a, rr * rr_star)
    through_out = _strict_measures(a, b, out=out)
    for got, expected, row in zip(through_out, fresh, out):
        assert got is row
        assert np.array_equal(got, expected)


def test_counts_shrink_as_subsets_grow():
    result = run(SimulationConfig(trials=50_000, seed=1))
    counts = result.counts
    assert counts[0] == result.trials
    for kind in ALL_KINDS:
        assert counts[1 << kind.bit] == result.trials  # singletons never split
    for mask in range(64):
        for bit in range(6):
            if not mask & (1 << bit):
                assert counts[mask | (1 << bit)] <= counts[mask]


@pytest.mark.parametrize(
    "dist", [Distribution.UNIFORM_UNIT, Distribution.UNIFORM_RARE]
)
def test_rr_pair_decides_all_six_per_trial(dist):
    result = run(SimulationConfig(trials=100_000, seed=9, distribution=dist))
    assert result.counts[3] == result.counts[63]
    assert result.frequency([RR, RR_STAR]) == result.all_six_frequency


def test_uniform_all_six_frequency_near_five_sixths():
    result = run(SimulationConfig(trials=200_000, seed=0))
    assert result.all_six_frequency == pytest.approx(5 / 6, abs=0.01)


def test_rare_risks_agree_more_often_than_uniform():
    uniform = run(SimulationConfig(trials=100_000, seed=2))
    rare = run(
        SimulationConfig(trials=100_000, seed=2, distribution=Distribution.UNIFORM_RARE)
    )
    assert rare.all_six_frequency > uniform.all_six_frequency


def test_rare_limit_keeps_rr_rd_and_brings_rr_star_to_rd():
    # Uniform on (0, r) with one seed draws r * u for the same u. RR and RD
    # are homogeneous, so their directions, and the RR/RD row, move with r
    # only by float near-ties. RR* differs from RD by an O(r^2) term against
    # RD's O(r) comparison, so RR*/RD disagreement is O(r); it was about
    # 0.035 r at r = 0.1, 0.01 and 0.001. Per trial, RR and RR* cannot split
    # without RD splitting from one of them, unless RD ties exactly (see the
    # module docstring).
    trials = 200_000
    rr_rd, rr_star_rd = [], []
    for r in (1.0, 0.1, 0.01, 0.001):
        result = run(SimulationConfig(trials=trials, seed=3, bounds=(0.0, r)))

        def disagree(*kinds):
            return trials - result.counts[subset_mask(kinds)]

        rr_rd.append(disagree(RR, MeasureKind.RD))
        rr_star_rd.append(disagree(RR_STAR, MeasureKind.RD))
        assert disagree(RR, RR_STAR) <= rr_rd[-1] + rr_star_rd[-1]
        if r < 1.0:
            assert rr_star_rd[-1] <= 0.1 * r * trials
    assert max(rr_rd) - min(rr_rd) <= 3
    assert rr_rd[0] == pytest.approx(trials / 12, rel=0.02)


def test_frequency_accessors_consistent():
    result = run(SimulationConfig(trials=20_000, seed=4))
    mask = subset_mask([RR, RR_STAR])
    assert result.frequency([RR, RR_STAR]) == result.counts[mask] / result.trials
    assert result.frequency_of_mask(63) == result.all_six_frequency


# ---------------------------------------------------------------------------
# venn output


def test_venn_table_structure():
    result = run(SimulationConfig(trials=20_000, seed=4))
    rows = venn_table(result)
    assert len(rows) == 64
    assert rows[0].members == ()
    assert rows[0].count == result.trials
    assert rows[63].members == ALL_KINDS
    assert rows[3].members == (RR, RR_STAR)
    for row in rows:
        assert row.frequency == pytest.approx(row.count / result.trials)


def test_venn_csv_shape():
    result = run(SimulationConfig(trials=20_000, seed=4))
    lines = venn_csv(result).strip().split("\n")
    assert lines[0] == "bitmask,members,count,frequency"
    assert len(lines) == 65
    assert lines[1].startswith("0,,20000,")
    assert lines[4].startswith("3,RR+RR*,")


def test_venn_json_rows_serializable():
    result = run(SimulationConfig(trials=20_000, seed=4))
    rows = venn_json_rows(result)
    payload = json.loads(json.dumps(rows))
    assert payload[63]["members"] == ["RR", "RR*", "HR", "HR*", "RD", "OR"]
    assert payload[63]["count"] == result.counts[63]
