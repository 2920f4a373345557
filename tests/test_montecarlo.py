"""Tests for the subset-agreement simulation and the tent sampler."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from concord.agreement import Direction, StratifiedRisks, agree
from concord.errors import ConfigError, DomainError
from concord.measures import ALL_KINDS, MeasureKind
from concord.montecarlo import (
    Distribution,
    SimulationConfig,
    SimulationResult,
    _direction_masks,
    _draw_block,
    _open_uniform,
    _tent_ppf_array,
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
    rng = np.random.default_rng(11)
    peak = 0.3
    x = np.sort(_tent_ppf_array(_open_uniform(rng, n), np.full(n, peak), 0.0, 1.0))
    left = x <= peak
    cdf = np.where(left, x**2 / peak, 1.0 - (1.0 - x) ** 2 / (1.0 - peak))
    grid = np.arange(1, n + 1) / n
    ks = np.max(np.abs(cdf - grid))
    assert ks < 0.005  # 0.1% critical value is about 0.0044 at this n


# ---------------------------------------------------------------------------
# samplers


def test_draw_block_ranges():
    rng = np.random.default_rng(3)
    cfg = SimulationConfig(trials=1, distribution=Distribution.UNIFORM_UNIT)
    draws = _draw_block(rng, 10_000, cfg)
    for arr in draws:
        assert np.all((arr > 0.0) & (arr < 1.0))

    cfg = SimulationConfig(trials=1, distribution=Distribution.UNIFORM_RARE)
    draws = _draw_block(rng, 10_000, cfg)
    for arr in draws:
        assert np.all((arr > 0.0) & (arr <= 0.1))

    cfg = SimulationConfig(
        trials=1, distribution=Distribution.TENT_DEPENDENT, bounds=(0.2, 0.8)
    )
    p1, p2, p3, p4 = _draw_block(rng, 10_000, cfg)
    assert np.all((p1 > 0.2) & (p1 < 0.8))
    assert np.all((p3 > 0.2) & (p3 < 0.8))
    assert np.all((p2 >= 0.2) & (p2 <= 0.8))
    assert np.all((p4 >= 0.2) & (p4 <= 0.8))


def test_direction_masks_match_scalar_path():
    rng = np.random.default_rng(5)
    p = rng.uniform(0.01, 0.99, size=(4, 200))
    keys = _direction_masks(p[0], p[1], p[2], p[3])
    for t in range(p.shape[1]):
        report = agree(StratifiedRisks.from_probs(*(float(v) for v in p[:, t])))
        toward_p = int(keys[t]) >> 6
        toward_q = int(keys[t]) & 63
        for kind in ALL_KINDS:
            d = report.directions[kind]
            assert ((toward_p >> kind.bit) & 1) == (d is Direction.TOWARD_P), kind
            assert ((toward_q >> kind.bit) & 1) == (d is Direction.TOWARD_Q), kind


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
