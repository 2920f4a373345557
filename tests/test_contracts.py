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
    StratifiedRisks,
    agree,
    critical_p4,
    critical_values,
    disagreement_window,
)
from concord.errors import ConcordError
from concord.measures import ALL_KINDS, MeasureKind

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
