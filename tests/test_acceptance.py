"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints one PASS/FAIL line (bypassing capture) with the measured
numbers, so a full run reads as a ten-line scorecard. Tolerances and
runtime budgets are part of the criteria and asserted alongside values.
"""

import math
import time

import numpy as np
import pytest

from concord.agreement import (
    Direction,
    StratifiedRisks,
    critical_p4,
    modification_direction,
)
from concord.casestudies import CASE_NAMES, case_study
from concord.inference import CountTable, estimate_rrr, modification_test
from concord.measures import ALL_KINDS, MeasureKind, RiskPair, subset_agrees
from concord.montecarlo import (
    Distribution,
    SimulationConfig,
    _direction_masks,
    _Scratch,
    quadruple_density,
    run,
    subset_mask,
)
from concord.quadrature import Region, region_a_parts, region_probability

RR = MeasureKind.RR
RR_STAR = MeasureKind.RR_STAR
HR = MeasureKind.HR
HR_STAR = MeasureKind.HR_STAR
RD = MeasureKind.RD
OR = MeasureKind.OR


def _report(capsys, number, name, ok, detail):
    line = f"ACCEPTANCE {number:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def _seeded_direction_keys(n, seed):
    """Per-trial direction keys for n seeded uniform strata."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(1e-12, 1.0, size=(4, n))
    scratch = _Scratch(n)
    keys = _direction_masks(p[0], p[1], p[2], p[3], scratch.keys, scratch.kernel)
    return keys >> 6, keys & 63


def test_acceptance_01_fixture_reproduction(capsys):
    start = time.perf_counter()
    mismatches = []
    checked = 0
    for name in CASE_NAMES:
        study = case_study(name)
        mismatches.extend(study.verify())
        checked += len(study.expected)
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 1.0
    _report(
        capsys, 1, "fixture reproduction", ok,
        f"{checked} printed values across {len(CASE_NAMES)} case studies, "
        f"{len(mismatches)} mismatches, {elapsed:.2f}s < 1s",
    )


def test_acceptance_02_theorem_gate(capsys):
    start = time.perf_counter()
    n = 100_000
    toward_p, toward_q = _seeded_direction_keys(n, seed=0)
    gate = subset_agrees(toward_p, toward_q, subset_mask([RR, RR_STAR]))
    all_six = subset_agrees(toward_p, toward_q, subset_mask(ALL_KINDS))
    violations = int(np.count_nonzero(gate & ~all_six))
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 5.0
    _report(
        capsys, 2, "theorem gate", ok,
        f"{n} strata, gate fired {int(gate.sum())} times, "
        f"{violations} violations, {elapsed:.2f}s < 5s",
    )


def test_acceptance_03_uniform_frequency(capsys):
    start = time.perf_counter()
    result = run(SimulationConfig(trials=1_000_000, seed=0))
    elapsed = time.perf_counter() - start
    sigma = math.sqrt((5 / 6) * (1 / 6) / result.trials)
    freq = result.all_six_frequency
    ok = abs(freq - 5 / 6) <= 4 * sigma and elapsed < 30.0
    _report(
        capsys, 3, "uniform all-six frequency", ok,
        f"{freq:.6f} vs 5/6 = {5 / 6:.6f}, |diff| = {abs(freq - 5 / 6):.6f} "
        f"<= 4 sigma = {4 * sigma:.6f}, {elapsed:.1f}s < 30s",
    )


def test_acceptance_04_rare_frequencies(capsys):
    # The published {OR,RD} estimate of 0.915381 is not reproducible from
    # the stated model (all four risks iid uniform on (0, 0.1)). Quadrature
    # over the closed-form critical windows gives 0.919054, matching this
    # simulator; the published number instead matches the {OR,RR*} cell
    # (0.915544) to within its own Monte Carlo noise, so it looks like a
    # mislabeled Venn cell. The check against the published value is kept
    # and marked as an expected failure; the independently computed value
    # anchors the regression check.
    start = time.perf_counter()
    result = run(
        SimulationConfig(
            trials=1_000_000, seed=0, distribution=Distribution.UNIFORM_RARE
        )
    )
    elapsed = time.perf_counter() - start
    sound_targets = [
        ("all six", ALL_KINDS, 0.912943),
        ("{OR,RR}", [OR, RR], 0.997562),
        ("{RD,RR*}", [RD, RR_STAR], 0.996460),
    ]
    pieces = []
    sound_ok = elapsed < 30.0
    for label, kinds, target in sound_targets:
        freq = result.frequency(kinds)
        sound_ok = sound_ok and abs(freq - target) <= 0.003
        pieces.append(f"{label} {freq:.6f} vs {target:.6f}")
    freq_or_rd = result.frequency([OR, RD])
    published_ok = abs(freq_or_rd - 0.915381) <= 0.003
    anchor_ok = abs(freq_or_rd - 0.919054) <= 0.003
    ok = sound_ok and published_ok
    detail = (
        f"{'; '.join(pieces)}; {{OR,RD}} {freq_or_rd:.6f} vs published "
        f"0.915381 (quadrature oracle 0.919054); tol 0.003, {elapsed:.1f}s < 30s"
    )
    if not ok and sound_ok and anchor_ok:
        line = f"ACCEPTANCE  4 rare-risk frequencies: FAIL expected ({detail})"
        with capsys.disabled():
            print(line)
        pytest.xfail(
            "{OR,RD} target 0.915381 is a transcription error in the source: "
            "two independent computations give 0.9190 and the published "
            "number matches {OR,RR*} instead"
        )
    _report(capsys, 4, "rare-risk frequencies", ok, detail)


def test_acceptance_05_tent_disagreement(capsys):
    # The published disagreement estimate of 0.067433 is not reproducible
    # from the stated model, which its own density-ratio example pins down
    # (controls uniform on (0,1), exposed risks tent-peaked at the control).
    # Three independent computations agree on 0.1545-0.1549: this simulator,
    # quadrature of the closed-form critical windows in the tent measure,
    # and a from-scratch inverse-CDF sampler. No pair, none of the 64
    # subset-agreement frequencies, and no plausible dependence variant
    # comes within Monte Carlo noise of 0.067433. The published-value check
    # is kept and marked as an expected failure; the independently computed
    # value anchors the regression check.
    start = time.perf_counter()
    result = run(
        SimulationConfig(
            trials=1_000_000, seed=0, distribution=Distribution.TENT_DEPENDENT
        )
    )
    elapsed = time.perf_counter() - start
    disagree = 1.0 - result.frequency([RR, RR_STAR])
    ratio = quadruple_density(0.56, 0.53, 0.78, 0.74) / quadruple_density(
        0.1, 0.9, 0.8, 0.3
    )
    ratio_ok = 20.0 <= ratio <= 23.0
    published_ok = abs(disagree - 0.067433) <= 0.003
    anchor_ok = abs(disagree - 0.154549) <= 0.003
    ok = ratio_ok and published_ok
    detail = (
        f"RR/RR* disagreement {disagree:.6f} vs published 0.067433 "
        f"(quadrature oracle 0.154549), tol 0.003; "
        f"density ratio {ratio:.2f} in [20, 23], {elapsed:.1f}s"
    )
    if not ok and ratio_ok and anchor_ok:
        line = f"ACCEPTANCE  5 tent-dependent risks: FAIL expected ({detail})"
        with capsys.disabled():
            print(line)
        pytest.xfail(
            "disagreement target 0.067433 is irreproducible from the stated "
            "tent model; three independent computations give 0.1545-0.1549"
        )
    _report(capsys, 5, "tent-dependent risks", ok, detail)


def test_acceptance_06_quadrature(capsys):
    start = time.perf_counter()
    regions = {region: region_probability(region, 256) for region in Region}
    parts = region_a_parts(256)
    elapsed = time.perf_counter() - start
    total = sum(estimate.value for estimate in regions.values())
    worst_region = max(abs(e.value - 1 / 24) for e in regions.values())
    part_targets = (1 / 16, 1 / 4, 13 / 48)
    worst_part = max(
        abs(estimate.value - target) for estimate, target in zip(parts, part_targets)
    )
    ok = (
        worst_region <= 1e-3
        and abs(total - 1 / 6) <= 2e-3
        and worst_part <= 1e-3
        and elapsed < 60.0
    )
    _report(
        capsys, 6, "quadrature", ok,
        f"region max |err| {worst_region:.2e} <= 1e-3, "
        f"total {total:.6f} vs 1/6 (tol 2e-3), "
        f"parts max |err| {worst_part:.2e} <= 1e-3, {elapsed:.1f}s < 60s",
    )


def test_acceptance_07_critical_values(capsys):
    start = time.perf_counter()
    # the printed table, at printed precision. Row D's RR entry is printed
    # as 0.67 in the source, which contradicts its own formula
    # p2*p3/p1 = 0.1*0.2/0.3 = 0.0667; the corrected value is pinned here.
    rows = [
        ((0.1, 0.2, 0.3), {RR: (0.6, 2), RD: (0.4, 2), RR_STAR: (0.38, 2)}),
        ((0.2, 0.1, 0.3), {RR: (0.15, 2), RD: (0.2, 2), RR_STAR: (0.21, 2)}),
        ((0.2, 0.3, 0.1), {RR: (0.15, 2), RD: (0.2, 2), RR_STAR: (0.21, 2)}),
        ((0.3, 0.1, 0.2), {RR: (0.0667, 4), RD: (0.0, 2), RR_STAR: (-0.03, 2)}),
    ]
    table_ok = True
    for triple, expectations in rows:
        for kind, (printed, decimals) in expectations.items():
            got = critical_p4(*triple, kind)
            if abs(got - printed) >= 10.0 ** (-decimals):
                table_ok = False

    rng = np.random.default_rng(7)
    triples = rng.uniform(0.001, 0.999, size=(10_000, 3))
    checked = 0
    skipped_boundary = 0
    null_failures = 0
    flip_failures = 0
    for p1, p2, p3 in triples:
        for kind in ALL_KINDS:
            c = critical_p4(p1, p2, p3, kind)
            if not 0.0 < c < 1.0:
                continue
            if not 1e-6 < c < 1.0 - 1e-6:
                # double spacing near 0/1 exceeds what a 1e-9 relative
                # reproduction of the measure can absorb
                skipped_boundary += 1
                continue
            checked += 1
            s = StratifiedRisks(RiskPair(p1, p2), RiskPair(p3, c))
            if modification_direction(s, kind) is not Direction.NULL:
                null_failures += 1
            delta = 1e-3 * min(c, 1.0 - c)
            above = StratifiedRisks(RiskPair(p1, p2), RiskPair(p3, c + delta))
            below = StratifiedRisks(RiskPair(p1, p2), RiskPair(p3, c - delta))
            if modification_direction(above, kind) is not Direction.TOWARD_Q:
                flip_failures += 1
            if modification_direction(below, kind) is not Direction.TOWARD_P:
                flip_failures += 1
    elapsed = time.perf_counter() - start
    ok = table_ok and null_failures == 0 and flip_failures == 0
    _report(
        capsys, 7, "critical values", ok,
        f"printed table {'ok' if table_ok else 'MISMATCH'} "
        "(row D RR pinned to the formula value 0.0667, not the printed 0.67); "
        f"{checked} in-range critical points: {null_failures} null failures, "
        f"{flip_failures} flip failures "
        f"({skipped_boundary} within 1e-6 of a boundary excluded), {elapsed:.1f}s",
    )


def test_acceptance_08_conjecture_suite(capsys):
    start = time.perf_counter()
    n = 100_000
    toward_p, toward_q = _seeded_direction_keys(n, seed=0)
    conjectures = [
        ("{HR,HR*} => OR", [HR, HR_STAR], OR),
        ("{HR,RR*} => HR*", [HR, RR_STAR], HR_STAR),
        ("{OR,RR*} => HR*", [OR, RR_STAR], HR_STAR),
        ("{HR*,RR} => HR", [HR_STAR, RR], HR),
        ("{RR,OR} => HR", [RR, OR], HR),
    ]
    pieces = []
    total_violations = 0
    for label, pair, implied in conjectures:
        pair_mask = subset_mask(pair)
        full_mask = pair_mask | subset_mask([implied])
        violations = int(
            np.count_nonzero(
                subset_agrees(toward_p, toward_q, pair_mask)
                & ~subset_agrees(toward_p, toward_q, full_mask)
            )
        )
        total_violations += violations
        pieces.append(f"{label}: {violations}")
    elapsed = time.perf_counter() - start
    ok = total_violations == 0
    _report(
        capsys, 8, "conjecture suite", ok,
        f"{n} strata; violations {'; '.join(pieces)}; {elapsed:.1f}s",
    )


def test_acceptance_09_delta_method_calibration(capsys):
    start = time.perf_counter()
    # null rejection rate: identical strata, n = 1000 per cell
    rng = np.random.default_rng(20240817)
    n, tables, alpha = 1000, 10_000, 0.05
    probs = np.array([0.3, 0.5, 0.3, 0.5])
    events = rng.binomial(n, probs[:, None], size=(4, tables))
    rejections = 0
    for t in range(tables):
        table = CountTable.from_ints([(int(e), n) for e in events[:, t]])
        if modification_test(table, alpha=alpha).reject:
            rejections += 1
    rate = rejections / tables
    bound = alpha + 3 * math.sqrt(alpha * (1 - alpha) / tables)

    # covariance against the parametric simulation oracle, 5% relative
    oracle_rng = np.random.default_rng(99)
    m, replicates = 500, 100_000
    oracle_probs = (0.3, 0.5, 0.4, 0.6)
    draws = (
        oracle_rng.binomial(m, np.array(oracle_probs)[:, None], size=(4, replicates))
        / m
    )
    log_rrr1 = np.log(draws[1]) + np.log(draws[2]) - np.log(draws[0]) - np.log(draws[3])
    log_rrr2 = (
        np.log1p(-draws[0])
        + np.log1p(-draws[3])
        - np.log1p(-draws[1])
        - np.log1p(-draws[2])
    )
    empirical = np.cov(np.vstack([log_rrr1, log_rrr2]))
    est = estimate_rrr(
        CountTable.from_ints(
            [(int(round(p * m)), m) for p in oracle_probs]
        )
    )
    rel_errors = (
        abs(est.covariance[0][0] / empirical[0, 0] - 1),
        abs(est.covariance[1][1] / empirical[1, 1] - 1),
        abs(est.covariance[0][1] / empirical[0, 1] - 1),
    )
    elapsed = time.perf_counter() - start
    ok = rate <= bound and max(rel_errors) <= 0.05
    _report(
        capsys, 9, "delta-method calibration", ok,
        f"null rejection {rate:.4f} <= {bound:.4f} ({tables} tables); "
        f"covariance vs oracle rel errors "
        f"{rel_errors[0]:.3f}/{rel_errors[1]:.3f}/{rel_errors[2]:.3f} <= 0.05; "
        f"{elapsed:.1f}s",
    )


def test_acceptance_10_hr_monotonicity(capsys):
    start = time.perf_counter()
    # x -> log(1 - xR)/log(1 - x) strictly increasing on (0, 1/R)
    failures = []
    for ratio in (1.1, 2.0, 5.0):
        n = 10_000
        x = (np.arange(1, n + 1) / (n + 1)) / ratio
        values = np.log1p(-x * ratio) / np.log1p(-x)
        increments = np.diff(values)
        if not np.all(increments > 0):
            failures.append(f"R={ratio}: {int((increments <= 0).sum())} bad steps")
    elapsed = time.perf_counter() - start
    ok = not failures
    _report(
        capsys, 10, "HR monotonicity", ok,
        f"3 grids of 10000 points (R in 1.1/2/5): "
        f"{'; '.join(failures) if failures else 'strictly increasing'}; "
        f"{elapsed:.1f}s",
    )
