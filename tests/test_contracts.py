"""Contracts that must hold on every input of the adversarial strategy.

Tiny, subnormal, near-1 and boundary risks, with p4 at a critical value
give or take a few ulps (tests/adversarial.py). The recorded inputs below
are the ones that broke other contracts in the past.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from adversarial import quadruples, strict_triples
from concord import agreement
from concord.agreement import (
    Direction,
    FiredCondition,
    StratifiedRisks,
    agree,
    critical_p4,
    critical_values,
    disagreement_window,
    rr_gate,
    sufficient_conditions,
)
from concord.errors import ConcordError, DegenerateCell
from concord.inference import CountTable, estimate_rrr
from concord.measures import ALL_KINDS, MeasureKind, subset_agrees, subset_mask

RR, RR_STAR = MeasureKind.RR, MeasureKind.RR_STAR
HR, HR_STAR, RD = MeasureKind.HR, MeasureKind.HR_STAR, MeasureKind.RD

RECORDED = [
    # the RR/RR* gate fires while RD disagrees (RR ties inside the band)
    (1.0, 0.9999999999995441, 0.9999999999996408, 0.999999999999147),
    # c_RR* cancels to 0.0 and c_RR underflows to 0.0
    (5.720579018256042e-31, 3.267254416865638e-31, 3.267254416865638e-31, 5e-324),
    (0.25, 5e-324, 0.5, 5e-324),
    # RR* is 1.0 in both strata
    (6.355618645054581e-47, 2.4941518327783792e-54, 2.4941518327783792e-54, 0.0),
]

# the RR/RR* gate fired while two other measures conflicted, before the
# exact RR/RR* comparison (RR or RR* ties in the band, or overflows to the
# same infinity in both strata)
GATE_BREAKERS = [
    (6.355618645054581e-47, 2.4941518327783792e-54, 2.4941518327783792e-54, 0.0),
    (3.846279244570397e-274, 0.0, 5.892614434230212e-28, 3.846279244570397e-274),
    (3.244690553810549e-159, 0.0, 3.026936338058996e-117, 3.244690553810549e-159),
    (0.0, 0.5, 2.225073858507e-311, 0.75),
    (0.9999999999999262, 0.9999999999999295, 0.9999999999999382, 0.9999999999999414),
    (1.0, 0.9999999999995441, 0.9999999999996408, 0.999999999999147),
    (2.2250738585e-313, 0.5, 0.0, 0.25),
]

kind_pairs = st.tuples(st.sampled_from(ALL_KINDS), st.sampled_from(ALL_KINDS))


def pinned(*rest):
    """Pin every recorded input, followed by `rest`, as an explicit example."""

    def decorate(test):
        for risks in RECORDED:
            test = example(risks, *rest)(test)
        return test

    return decorate


@settings(max_examples=150, deadline=None)
@given(quadruples())
@pinned()
def test_swapping_strata_flips_every_direction(risks):
    p1, p2, p3, p4 = risks
    try:
        report = agree(StratifiedRisks.from_probs(p1, p2, p3, p4))
    except ConcordError as exc:
        with pytest.raises(type(exc)):
            agree(StratifiedRisks.from_probs(p3, p4, p1, p2))
        return
    swapped = agree(StratifiedRisks.from_probs(p3, p4, p1, p2))
    for kind in ALL_KINDS:
        assert swapped.directions[kind] is report.directions[kind].flipped, kind


@settings(max_examples=150, deadline=None)
@given(quadruples())
@pinned()
def test_gate_forces_all_six_on_every_input(risks):
    try:
        report = agree(StratifiedRisks.from_probs(*risks))
    except ConcordError:
        return
    if report.rr_gate_fired:
        assert report.agrees, report.directions
    assert report.rr_gate_fired == rr_gate(report.strata)


@pytest.mark.parametrize("risks", GATE_BREAKERS)
def test_gate_breakers_keep_the_theorem_and_the_swap(risks):
    p1, p2, p3, p4 = risks
    report = agree(StratifiedRisks.from_probs(p1, p2, p3, p4))
    assert not report.rr_gate_fired or report.agrees, report.directions
    swapped = agree(StratifiedRisks.from_probs(p3, p4, p1, p2))
    for kind in ALL_KINDS:
        assert swapped.directions[kind] is report.directions[kind].flipped, kind


@settings(max_examples=150, deadline=None)
@given(strict_triples)
@example((5.720579018256042e-31, 3.267254416865638e-31, 3.267254416865638e-31))
@example((0.25, 5e-324, 0.5))
@example((5e-324, 0.5, 0.5))
def test_critical_table_has_no_nan_and_is_what_critical_p4_reads(triple):
    values = critical_values(*triple)
    for kind in ALL_KINDS:
        assert not math.isnan(values.value(kind)), kind
        assert values.value(kind) == critical_p4(*triple, kind), kind


@settings(max_examples=150, deadline=None)
@given(quadruples(), kind_pairs)
@pinned((RR, RR_STAR))
def test_only_concord_errors_escape(risks, kinds):
    p1, p2, p3, p4 = risks
    try:
        agree(StratifiedRisks.from_probs(p1, p2, p3, p4))
    except ConcordError:
        pass
    try:
        values = critical_values(p1, p2, p3)
    except ConcordError as exc:
        with pytest.raises(type(exc)):
            disagreement_window(p1, p2, p3, *kinds)
        return
    window = disagreement_window(p1, p2, p3, *kinds)
    ca, cb = (values.value(kind) for kind in kinds)
    assert window.lower == max(0.0, min(ca, cb))
    assert window.upper == min(1.0, max(ca, cb))


LABELINGS = (
    ("identity", (0, 1, 2, 3)),
    ("swap_strata", (2, 3, 0, 1)),
    ("swap_groups", (1, 0, 3, 2)),
    ("swap_both", (3, 2, 1, 0)),
)


# The five sufficient conditions in their readable inequality forms, with
# RR = p2 / p1 and RR* = (1 - p1) / (1 - p2) for stratum P, and likewise
# p4 / p3 and (1 - p3) / (1 - p4) for stratum Q.


def qualitative(p1, p2, p3, p4):
    # exposure raises risk in exactly one stratum (weakly in the other)
    return (p1 < p2 and p3 >= p4) or (p3 < p4 and p1 >= p2)


def rr_hr_star(p1, p2, p3, p4):
    # RR_P < RR_Q with p4 above both p2 and p3 forces HR* toward Q too
    return p4 > p2 and p4 > p3 and p2 / p1 < p4 / p3


def rr_star_hr_star(p1, p2, p3, p4):
    # p4 < p2 with 1 < RR*_P < RR*_Q forces HR* toward Q too
    return p4 < p2 and 1.0 < (1.0 - p1) / (1.0 - p2) < (1.0 - p3) / (1.0 - p4)


def rr_star_rd(p1, p2, p3, p4):
    # RR*_P < RR*_Q with p3 <= p1 <= p2 forces RD toward Q too
    return p3 <= p1 <= p2 and (1.0 - p1) / (1.0 - p2) < (1.0 - p3) / (1.0 - p4)


def rr_rd(p1, p2, p3, p4):
    # RR_P < RR_Q with p3 >= p1 and p2 >= p1 forces RD toward Q too
    return p3 >= p1 and p2 >= p1 and p2 / p1 < p4 / p3


CONDITIONS = (
    ("qualitative-modification", qualitative, frozenset(ALL_KINDS)),
    ("rr-and-hr-star", rr_hr_star, frozenset({RR, HR_STAR})),
    ("rr-star-and-hr-star", rr_star_hr_star, frozenset({RR_STAR, HR_STAR})),
    ("rr-star-and-rd", rr_star_rd, frozenset({RR_STAR, RD})),
    ("rr-and-rd", rr_rd, frozenset({RR, RD})),
)


def gate_breakers(test):
    """Pin every GATE_BREAKERS input as an explicit example."""
    for risks in GATE_BREAKERS:
        test = example(risks)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(quadruples())
@pinned()
@gate_breakers
def test_agree_equals_the_loop_reference(risks):
    # the verdicts from subset_agrees mask by mask, and a new FiredCondition
    # for each (labeling, condition) whose readable form holds
    strata = StratifiedRisks.from_probs(*risks)
    try:
        report = agree(strata)
    except ConcordError:
        return
    toward_p, toward_q = (
        subset_mask(k for k, d in report.directions.items() if d is side)
        for side in (Direction.TOWARD_P, Direction.TOWARD_Q)
    )
    verdicts = tuple(subset_agrees(toward_p, toward_q, mask) for mask in range(64))
    assert report.subset_verdicts == verdicts
    fired = ()
    if strata.is_strict:
        fired = tuple(
            FiredCondition(name=name, labeling=label, forces=forces)
            for label, perm in LABELINGS
            for name, predicate, forces in CONDITIONS
            if predicate(*(risks[i] for i in perm))
        )
        assert sufficient_conditions(strata) == fired
    assert report.fired_conditions == fired


@pytest.mark.parametrize("risks", [*RECORDED, *GATE_BREAKERS, (0.7, 0.9, 0.2, 0.3)])
def test_each_report_owns_its_directions_dict(risks):
    # reports with one direction key copy one cached dict: mutating a copy
    # reaches neither another report nor the cache
    strata = StratifiedRisks.from_probs(*risks)
    first, second = agree(strata), agree(strata)
    expected = dict(zip(ALL_KINDS, agreement._directions(strata)))
    assert type(first.directions) is dict
    assert first.directions == second.directions == expected
    assert first.directions is not second.directions
    for kind in ALL_KINDS:
        first.directions[kind] = "mutated"
    del first.directions[RR]
    assert second.directions == expected
    assert agree(strata).directions == expected


# the permutation sigma of subset masks that exchanges RR with RR* and HR
# with HR*, the measures that recoding the outcome exchanges
def _sigma(mask):
    swapped = 0
    for a, b in ((RR, RR_STAR), (HR, HR_STAR)):
        swapped |= (mask >> a.bit & 1) << b.bit | (mask >> b.bit & 1) << a.bit
    others = subset_mask((RD, MeasureKind.OR))
    return swapped | mask & others


_EXCHANGED = {RR: RR_STAR, RR_STAR: RR, HR: HR_STAR, HR_STAR: HR}


@settings(max_examples=300, deadline=None)
@given(quadruples().filter(lambda risks: all(1.0 - (1.0 - p) == p for p in risks)))
@example((0.7, 0.9, 0.2, 0.3))
@example((0.0, 0.5, 0.75, 1.0))
def test_opposite_outcome_exchanges_rr_with_rr_star_and_hr_with_hr_star(risks):
    """Recoding the outcome in both strata (RiskPair.opposite) exchanges RR
    with RR* and HR with HR*, and leaves RD and OR as they are.

    So agree() gives the same directions with those measures exchanged, its
    64 verdicts are the old ones permuted by that exchange, and rr_gate()
    does not change. Every risk here has an exact complement (1 - (1 - p)
    == p), so the recoded RR, RR*, RD and OR are the old floats and the
    exact repair reads the same rationals; HR and HR* are recomputed through
    log1p and log, whose last bits may differ, so where the recode rounds
    the contract can fail only inside the tie band.
    """
    strata = StratifiedRisks.from_probs(*risks)
    recoded = StratifiedRisks(strata.stratum_p.opposite, strata.stratum_q.opposite)
    try:
        report = agree(strata)
    except ConcordError as exc:
        with pytest.raises(type(exc)):
            agree(recoded)
        return
    opposite = agree(recoded)
    for kind in ALL_KINDS:
        assert opposite.directions[_EXCHANGED.get(kind, kind)] is report.directions[kind]
    for mask in range(64):
        assert opposite.subset_verdicts[mask] == report.subset_verdicts[_sigma(mask)]
    assert rr_gate(recoded) == rr_gate(strata) == report.rr_gate_fired


totals = st.one_of(st.integers(1, 100), st.integers(1, 2**53))
cells = totals.flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n)))


@settings(max_examples=300, deadline=None)
@given(st.tuples(cells, cells, cells, cells), st.booleans())
def test_estimate_rrr_equals_the_sum_forms_exactly(counts, corrected):
    table = CountTable.from_ints(counts)
    try:
        estimate = estimate_rrr(table, corrected)
    except DegenerateCell:
        return
    p1, p2, p3, p4 = table.risks(corrected)
    n1, n2, n3, n4 = [cell.total for cell in table.cells]
    # left-to-right chains of +, which round alike on every Python (sum() is
    # compensated from 3.12 on)
    var1 = ((1.0 - p1) / (n1 * p1) + (1.0 - p2) / (n2 * p2)
            + (1.0 - p3) / (n3 * p3) + (1.0 - p4) / (n4 * p4))
    var2 = (p1 / (n1 * (1.0 - p1)) + p2 / (n2 * (1.0 - p2))
            + p3 / (n3 * (1.0 - p3)) + p4 / (n4 * (1.0 - p4)))
    cov = 1.0 / n1 + 1.0 / n2 + 1.0 / n3 + 1.0 / n4
    assert estimate.covariance == ((var1, cov), (cov, var2))
    assert estimate.log_rrr1 == math.log(p2) + math.log(p3) - math.log(p1) - math.log(p4)
    assert estimate.log_rrr2 == (
        math.log1p(-p1) + math.log1p(-p4) - math.log1p(-p2) - math.log1p(-p3)
    )
