"""Contracts that must hold on every input of the adversarial strategy.

Tiny, subnormal, near-1 and boundary risks, with p4 at a critical value
give or take a few ulps (tests/adversarial.py). The recorded inputs below
are the ones that broke other contracts in the past.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from adversarial import quadruples, strict_triples
from concord.agreement import (
    _CONDITIONS,
    Direction,
    FiredCondition,
    StratifiedRisks,
    agree,
    critical_p4,
    critical_values,
    disagreement_window,
    rr_gate,
)
from concord.errors import ConcordError, DegenerateCell
from concord.inference import CountTable, estimate_rrr
from concord.measures import ALL_KINDS, MeasureKind, subset_agrees, subset_mask

RR, RR_STAR = MeasureKind.RR, MeasureKind.RR_STAR

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


@settings(max_examples=150, deadline=None)
@given(quadruples())
@pinned()
def test_agree_equals_the_loop_reference(risks):
    # the verdicts from subset_agrees mask by mask, and a new FiredCondition
    # for each (labeling, condition) that fires
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
            for name, predicate, forces in _CONDITIONS
            if predicate(*(risks[i] for i in perm))
        )
    assert report.fired_conditions == fired


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
