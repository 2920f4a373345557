"""Tests for direction classification, critical values, windows, and the
inequality-only sufficient conditions."""

import dataclasses
import itertools
import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from concord import agreement
from concord.agreement import (
    AgreementReport,
    CriticalValues,
    Direction,
    FiredCondition,
    StratifiedRisks,
    Window,
    agree,
    critical_p4,
    critical_values,
    disagreement_window,
    modification_direction,
    rr_gate,
    sufficient_conditions,
)
from concord.errors import InputValidationError
from concord.measures import (
    ALL_KINDS,
    MeasureKind,
    RiskPair,
    _verdict_row,
    measure,
    subset_agrees,
    subset_mask,
)

RR = MeasureKind.RR
RR_STAR = MeasureKind.RR_STAR
HR = MeasureKind.HR
HR_STAR = MeasureKind.HR_STAR
RD = MeasureKind.RD
OR = MeasureKind.OR

strict_probs = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)
unit_probs = st.floats(min_value=0.0, max_value=1.0)
# boundary risks and an exact midpoint turn up far more often than by chance
edge_probs = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), unit_probs)


def strata(p1, p2, p3, p4):
    return StratifiedRisks.from_probs(p1, p2, p3, p4)


# classic textbook example: ratio and odds scales pull opposite ways
TEXTBOOK = strata(0.7, 0.9, 0.2, 0.3)
# prevented-fraction vaccine data: RR and RD split
VACCINE = strata(0.009, 0.075, 0.106, 0.253)
# low-incidence survival data: every printed measure pair agrees
SPARSE = strata(0.00384, 0.00830, 0.00045, 0.00140)


# ---------------------------------------------------------------------------
# directions


def test_direction_agrees_with():
    assert Direction.NULL.agrees_with(Direction.TOWARD_P)
    assert Direction.TOWARD_P.agrees_with(Direction.NULL)
    assert Direction.TOWARD_P.agrees_with(Direction.TOWARD_P)
    assert not Direction.TOWARD_P.agrees_with(Direction.TOWARD_Q)


def test_direction_flipped():
    assert Direction.TOWARD_P.flipped is Direction.TOWARD_Q
    assert Direction.TOWARD_Q.flipped is Direction.TOWARD_P
    assert Direction.NULL.flipped is Direction.NULL


def test_textbook_directions():
    # RR: 9/7 vs 1.5 -> Q stronger; OR: 3.857 vs 1.714 -> P stronger
    assert modification_direction(TEXTBOOK, RR) is Direction.TOWARD_Q
    assert modification_direction(TEXTBOOK, OR) is Direction.TOWARD_P
    assert modification_direction(TEXTBOOK, RD) is Direction.TOWARD_P
    assert modification_direction(TEXTBOOK, RR_STAR) is Direction.TOWARD_P


def test_identical_strata_are_null():
    s = strata(0.2, 0.5, 0.2, 0.5)
    for kind in ALL_KINDS:
        assert modification_direction(s, kind) is Direction.NULL
    report = agree(s)
    assert report.agrees
    assert report.rr_gate_fired


def test_equal_infinite_limits_compare_null():
    s = strata(0.0, 0.3, 0.0, 0.5)
    assert modification_direction(s, RR) is Direction.NULL
    assert modification_direction(s, RR_STAR) is Direction.TOWARD_Q
    assert modification_direction(s, RD) is Direction.TOWARD_Q
    report = agree(s)
    assert report.rr_gate_fired
    assert report.agrees  # null RR blocks no one


@pytest.mark.parametrize(
    "gap, expected",
    [
        (0.5e-9, Direction.NULL),
        (-0.5e-9, Direction.NULL),
        (2e-9, Direction.TOWARD_Q),
        (-2e-9, Direction.TOWARD_P),
    ],
)
def test_ties_are_a_fixed_relative_band(gap, expected):
    # RR_Q = RR_P * (1 + gap): a tie within a relative 1e-9, a direction beyond
    s = strata(0.2, 0.4, 0.2, 0.4 * (1.0 + gap))
    assert modification_direction(s, RR) is expected
    assert agree(s).directions[RR] is expected


def test_infinities_tie_only_each_other():
    assert modification_direction(strata(0.0, 0.3, 0.0, 0.5), RR) is Direction.NULL
    assert modification_direction(strata(0.0, 0.3, 0.2, 0.5), RR) is Direction.TOWARD_P
    assert modification_direction(strata(0.2, 0.5, 0.0, 0.3), RR) is Direction.TOWARD_Q


# ---------------------------------------------------------------------------
# agreement reports


def test_textbook_rr_or_disagree():
    report = agree(TEXTBOOK)
    assert not report.pair_agrees(RR, OR)
    assert not report.agrees
    assert not report.rr_gate_fired


def test_vaccine_rr_rd_disagree():
    report = agree(VACCINE)
    assert modification_direction(VACCINE, RR) is Direction.TOWARD_P
    assert modification_direction(VACCINE, RD) is Direction.TOWARD_Q
    assert not report.pair_agrees(RR, RD)
    assert not report.agrees


def test_singletons_always_agree():
    for s in (TEXTBOOK, VACCINE, SPARSE):
        report = agree(s)
        for kind in ALL_KINDS:
            assert report.subset_agrees([kind])
    assert agree(TEXTBOOK).subset_verdicts[0]  # empty set


def test_pair_agrees_symmetric_with_true_diagonal():
    report = agree(TEXTBOOK)
    for a in ALL_KINDS:
        assert report.pair_agrees(a, a)
        for b in ALL_KINDS:
            assert report.pair_agrees(a, b) == report.pair_agrees(b, a)
            assert report.pair_agrees(a, b) == report.subset_agrees([a, b])


def test_requested_kinds_drive_verdict():
    # RD and RR* point the same way in the textbook data, RR does not
    report = agree(TEXTBOOK)
    assert report.subset_agrees([RD, RR_STAR])
    assert not report.subset_agrees([RR, RD])


def test_subset_agrees_matches_verdicts():
    report = agree(VACCINE)
    assert report.subset_agrees([RR, OR]) == report.subset_verdicts[
        (1 << RR.bit) | (1 << OR.bit)
    ]


def test_verdict_row_for_every_direction_key(monkeypatch):
    # all 3**6 disjoint (toward_p, toward_q) keys: the cached row, the
    # simulator's agreement rows and agree() give the same 64 verdicts
    from concord.montecarlo import _agreement_rows

    rows = _agreement_rows()
    keys = list(itertools.product(Direction, repeat=6))
    assert len(keys) == 729
    for directions in keys:
        toward_p, toward_q = (
            subset_mask(k for k, d in zip(ALL_KINDS, directions) if d is side)
            for side in (Direction.TOWARD_P, Direction.TOWARD_Q)
        )
        row = _verdict_row(toward_p, toward_q)
        assert row == tuple(subset_agrees(toward_p, toward_q, mask) for mask in range(64))
        assert row == tuple(rows[:, toward_p << 6 | toward_q].tolist())
        monkeypatch.setattr(agreement, "_directions", lambda strata: directions)
        assert agree(TEXTBOOK).subset_verdicts is row


def test_agrees_reads_the_all_six_verdict():
    # stored once, in subset_verdicts; agrees is a view, not a field
    assert "agrees" not in {field.name for field in dataclasses.fields(AgreementReport)}
    for s in (TEXTBOOK, VACCINE, SPARSE):
        report = agree(s)
        assert report.agrees is report.subset_verdicts[63]
    assert agree(strata(0.2, 0.1, 0.1, 0.3)).agrees  # qualitative modification
    assert not agree(TEXTBOOK).agrees


# ---------------------------------------------------------------------------
# the relative-risk gate


@pytest.mark.parametrize(
    "s,fires",
    [
        (strata(0.05263, 0.15, 0.26316, 0.35), False),
        (SPARSE, False),
        (strata(0.2, 0.4, 0.5, 0.3), True),
        (strata(0.2, 0.4, 0.2, 0.4), True),
    ],
)
def test_rr_gate_examples(s, fires):
    assert rr_gate(s) == fires
    assert agree(s).rr_gate_fired == fires


@given(edge_probs, edge_probs, edge_probs, edge_probs, st.booleans(), st.booleans())
def test_verdicts_match_pairwise_definition(p1, p2, p3, p4, tie_p, tie_q):
    # a subset agrees iff every pair inside it does, by Direction.agrees_with
    if tie_p:
        p2 = p1
    if tie_q:
        p4 = p3
    assume(not (p1 == p2 and p1 in (0.0, 1.0)))
    assume(not (p3 == p4 and p3 in (0.0, 1.0)))
    s = strata(p1, p2, p3, p4)
    report = agree(s)
    d = [report.directions[kind] for kind in ALL_KINDS]
    for i, a in enumerate(ALL_KINDS):
        for j, b in enumerate(ALL_KINDS):
            assert report.pair_agrees(a, b) == d[i].agrees_with(d[j])
    for mask in range(64):
        members = [i for i in range(6) if mask >> i & 1]
        pairwise = all(d[i].agrees_with(d[j]) for i in members for j in members)
        assert report.subset_verdicts[mask] == pairwise, mask
    gate = report.directions[RR].agrees_with(report.directions[RR_STAR])
    assert report.rr_gate_fired == gate == rr_gate(s)


@given(unit_probs, unit_probs, unit_probs, unit_probs)
def test_gate_forces_all_six(p1, p2, p3, p4):
    assume(not (p1 == p2 and p1 in (0.0, 1.0)))
    assume(not (p3 == p4 and p3 in (0.0, 1.0)))
    s = strata(p1, p2, p3, p4)
    report = agree(s)
    if report.rr_gate_fired:
        assert report.subset_verdicts[63]


# ---------------------------------------------------------------------------
# critical values

# (p1, p2, p3) -> exact closed-form RR, RD, RR* critical points
CRITICAL_ROWS = [
    ((0.1, 0.2, 0.3), (0.6, 0.4, 34 / 90)),
    ((0.2, 0.1, 0.3), (0.15, 0.2, 0.2125)),
    ((0.2, 0.3, 0.1), (0.15, 0.2, 0.2125)),
    ((0.3, 0.1, 0.2), (1 / 15, 0.0, -1 / 35)),
]


@pytest.mark.parametrize("triple,expected", CRITICAL_ROWS)
def test_critical_closed_forms(triple, expected):
    want_rr, want_rd, want_rr_star = expected
    assert critical_p4(*triple, RR) == pytest.approx(want_rr, abs=1e-12)
    assert critical_p4(*triple, RD) == pytest.approx(want_rd, abs=1e-12)
    assert critical_p4(*triple, RR_STAR) == pytest.approx(want_rr_star, abs=1e-12)


def test_critical_hr_hand_value():
    # 1 - 0.7^(log 0.8 / log 0.9)
    got = critical_p4(0.1, 0.2, 0.3, HR)
    assert got == pytest.approx(1 - 0.7 ** (math.log(0.8) / math.log(0.9)), abs=1e-12)
    assert got == pytest.approx(0.53017905, abs=1e-8)


def _bisect_critical(p1, p2, p3, kind):
    target = measure(RiskPair(p1, p2), kind)
    lo, hi = 1e-12, 1.0 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if measure(RiskPair(p3, mid), kind) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "triple",
    [(0.1, 0.2, 0.3), (0.56, 0.53, 0.78), (0.3, 0.7, 0.12), (0.9, 0.4, 0.65)],
)
def test_critical_matches_bisection(triple):
    # measures increase in p4, so the null crossing is a bisection root
    for kind in ALL_KINDS:
        closed = critical_p4(*triple, kind)
        if not 1e-9 < closed < 1.0 - 1e-9:
            continue  # RR/RD/RR* can land outside the unit interval
        root = _bisect_critical(*triple, kind)
        assert closed == pytest.approx(root, abs=1e-9), kind


# Near p4 = 1 the odds ratio is so steep that no double reproduces it to
# 1e-9 (for the triple below, the doubles either side of the exact root
# are off by -3.75e-9 and +1.02e-8), so a root is judged in p4 space:
# every measure increases in p4, and the target must lie between its
# values a few steps either side of c. The step is absolute because the
# closed forms subtract risks of order 1, so their error is a few
# ulp(1.0) whatever the size of c.
ROOT_STEP = 4 * math.ulp(1.0)
STEEP_OR_TRIPLE = (0.5, 0.984375, 0.9999989999999999)


def _measure_around(p1, p2, p3, kind, c):
    """The target measure, and stratum Q's measure a step below and above c."""
    below = measure(RiskPair(p3, c - ROOT_STEP), kind)
    above = measure(RiskPair(p3, c + ROOT_STEP), kind)
    return measure(RiskPair(p1, p2), kind), below, above


def _brackets_root(p1, p2, p3, kind, c):
    em_p, below, above = _measure_around(p1, p2, p3, kind, c)
    return below <= em_p <= above


def test_root_check_rejects_a_root_off_by_16_ulp():
    c = critical_p4(*STEEP_OR_TRIPLE, OR)
    assert _brackets_root(*STEEP_OR_TRIPLE, OR, c)
    assert not _brackets_root(*STEEP_OR_TRIPLE, OR, c + 16 * math.ulp(c))
    assert not _brackets_root(*STEEP_OR_TRIPLE, OR, c - 16 * math.ulp(c))


@given(strict_probs, strict_probs, strict_probs)
@example(*STEEP_OR_TRIPLE)
def test_critical_point_reproduces_the_measure(p1, p2, p3):
    for kind in ALL_KINDS:
        c = critical_p4(p1, p2, p3, kind)
        if not 1e-9 < c < 1.0 - 1e-9:
            continue
        em_p, below, above = _measure_around(p1, p2, p3, kind, c)
        assert below <= em_p <= above, kind
        # the direction is NULL only where a step either side of c stays
        # inside the tolerance band: not where the measure is steep, as OR
        # is near p4 = 1, nor where it is near 0 on an absolute scale
        if math.isclose(em_p, below, rel_tol=1e-9) and math.isclose(em_p, above, rel_tol=1e-9):
            s = strata(p1, p2, p3, c)
            assert modification_direction(s, kind) is Direction.NULL, kind


@given(strict_probs, strict_probs)
def test_equal_stratum_p_risks_collapse_criticals(p1, p3):
    # on the plane p2 = p1 every measure's critical point is p3 itself
    values = critical_values(p1, p1, p3)
    for kind in ALL_KINDS:
        assert values.value(kind) == pytest.approx(p3, rel=1e-9), kind


@given(strict_probs, strict_probs, strict_probs)
def test_classic_criticals_are_ordered(p1, p2, p3):
    # p4*_RR - p4*_RD = (p1-p2)(p1-p3)/p1 and
    # p4*_RD - p4*_RR* = (p2-p1)(p3-p1)/(1-p1) share slack off the planes
    assume(abs(p1 - p2) > 1e-3 and abs(p1 - p3) > 1e-3)
    c_rr = critical_p4(p1, p2, p3, RR)
    c_rd = critical_p4(p1, p2, p3, RD)
    c_rr_star = critical_p4(p1, p2, p3, RR_STAR)
    if (p1 < p2) == (p1 < p3):
        assert c_rr_star < c_rd < c_rr
    else:
        assert c_rr < c_rd < c_rr_star


def test_critical_values_container():
    values = critical_values(0.1, 0.2, 0.3)
    d = values.as_dict()
    assert set(d) == {"RR", "RR*", "HR", "HR*", "RD", "OR"}
    assert d["RR"] == values.value(RR) == pytest.approx(0.6)
    assert (values.p1, values.p2, values.p3) == (0.1, 0.2, 0.3)


@pytest.mark.parametrize("triple", [(5e-324, 0.5, 0.5), (0.5, 5e-324, 0.5)])
def test_critical_values_survive_subnormal_risks(triple):
    # the odds ratio of a subnormal risk overflows or underflows
    values = critical_values(*triple).as_dict()
    assert not any(math.isnan(v) for v in values.values()), values
    assert 0.0 <= values["OR"] <= 1.0


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3, math.nan])
def test_critical_rejects_non_strict_inputs(bad):
    with pytest.raises(InputValidationError):
        critical_p4(bad, 0.2, 0.3, RR)
    with pytest.raises(InputValidationError):
        critical_p4(0.1, bad, 0.3, RR)
    with pytest.raises(InputValidationError):
        critical_p4(0.1, 0.2, bad, RR)


@pytest.mark.parametrize(
    "call",
    [
        lambda: critical_p4(0.1, 0.2, 0.3, "RR"),
        lambda: disagreement_window(0.1, 0.2, 0.3, "RR", OR),
        lambda: modification_direction(TEXTBOOK, "RR"),
        lambda: agree(TEXTBOOK).pair_agrees("RR", OR),
        lambda: agree(TEXTBOOK).subset_agrees([OR, "RR"]),
        lambda: measure(RiskPair(0.1, 0.2), "RR"),
    ],
    ids=[
        "critical_p4",
        "disagreement_window",
        "modification_direction",
        "pair_agrees",
        "subset_agrees",
        "measure",
    ],
)
def test_kind_that_is_not_a_measure_kind_is_an_input_error(call):
    with pytest.raises(InputValidationError, match="unknown measure kind 'RR'"):
        call()


# ---------------------------------------------------------------------------
# disagreement windows


def test_window_hand_values():
    w = disagreement_window(0.1, 0.2, 0.3, RR, RR_STAR)
    assert w.lower == pytest.approx(34 / 90, abs=1e-12)
    assert w.upper == pytest.approx(0.6, abs=1e-12)
    assert not w.is_empty
    assert w.width == pytest.approx(0.6 - 34 / 90)
    assert w.contains(0.5)
    assert not w.contains(w.lower)  # open interval


def test_window_rr_rd_value():
    w = disagreement_window(0.56, 0.53, 0.78, RR, RD)
    assert w.lower == pytest.approx(0.53 * 0.78 / 0.56, abs=1e-12)
    assert w.upper == pytest.approx(0.75, abs=1e-12)


def test_window_clips_to_unit_interval():
    w = disagreement_window(0.3, 0.1, 0.2, RR, RR_STAR)
    assert w.lower == 0.0  # RR* critical is negative here
    assert w.upper == pytest.approx(1 / 15, abs=1e-12)


def test_window_empty_when_criticals_collapse():
    # dyadic inputs keep the two closed forms bit-identical
    w = disagreement_window(0.5, 0.5, 0.75, RR, RD)
    assert w.is_empty
    assert w.width == 0.0
    assert not w.contains(0.75)
    # off the dyadic grid the collapse survives only up to rounding
    assert disagreement_window(0.4, 0.4, 0.7, RR, RD).width < 1e-12


def test_window_symmetric_in_kind_order():
    a = disagreement_window(0.56, 0.53, 0.78, RR, RD)
    b = disagreement_window(0.56, 0.53, 0.78, RD, RR)
    assert (a.lower, a.upper) == (b.lower, b.upper)


@given(strict_probs, strict_probs, strict_probs, strict_probs)
def test_window_membership_matches_directions(p1, p2, p3, p4):
    # p4 inside the RR/RR* window iff the two measures genuinely disagree
    w = disagreement_window(p1, p2, p3, RR, RR_STAR)
    report = agree(strata(p1, p2, p3, p4))
    d_rr = report.directions[RR]
    d_rr_star = report.directions[RR_STAR]
    if w.contains(p4):
        margin = min(p4 - w.lower, w.upper - p4)
        if margin > 1e-6:  # keep clear of the tolerance band at the edges
            assert not d_rr.agrees_with(d_rr_star)
    elif not w.is_empty:
        margin = min(abs(p4 - w.lower), abs(p4 - w.upper))
        if margin > 1e-6:
            assert d_rr.agrees_with(d_rr_star)


# ---------------------------------------------------------------------------
# sufficient conditions


def test_qualitative_condition_fires():
    fired = sufficient_conditions(strata(0.2, 0.4, 0.5, 0.3))
    assert any(
        c.name == "qualitative-modification" and c.forces == frozenset(ALL_KINDS)
        for c in fired
    )
    assert agree(strata(0.2, 0.4, 0.5, 0.3)).subset_verdicts[63]


def test_rr_hr_star_condition_fires_identity():
    s = strata(0.2, 0.3, 0.1, 0.6)
    fired = sufficient_conditions(s)
    hits = [c for c in fired if c.name == "rr-and-hr-star"]
    assert any(c.labeling == "identity" for c in hits)
    report = agree(s)
    assert report.pair_agrees(RR, HR_STAR)


def test_conditions_checked_under_relabelings():
    # same data with the strata swapped fires via the swap_strata labeling
    fired = sufficient_conditions(strata(0.1, 0.6, 0.2, 0.3))
    assert any(
        c.name == "rr-and-hr-star" and c.labeling == "swap_strata" for c in fired
    )
    # and with control/exposed swapped in both strata via swap_groups
    fired = sufficient_conditions(strata(0.3, 0.2, 0.6, 0.1))
    assert any(
        c.name == "rr-and-hr-star" and c.labeling == "swap_groups" for c in fired
    )


@pytest.mark.parametrize(
    "risks, name",
    [
        ((0.5, 0.5, 0.2, 0.4), "rr-star-and-rd"),  # p1 == p2
        ((0.2, 0.3, 0.2, 0.5), "rr-and-rd"),  # p3 == p1
        ((0.2, 0.3, 0.2, 0.5), "rr-star-and-rd"),  # p3 == p1
        ((0.3, 0.3, 0.4, 0.6), "rr-and-rd"),  # p2 == p1
        ((0.2, 0.3, 0.4, 0.4), "qualitative-modification"),  # p3 == p4
        ((0.3, 0.3, 0.2, 0.4), "qualitative-modification"),  # p1 == p2
    ],
)
def test_conditions_fire_at_their_equality_edges(risks, name):
    # the weak inequalities of each condition include their equality case
    s = strata(*risks)
    fired = sufficient_conditions(s)
    assert any(c.name == name and c.labeling == "identity" for c in fired)
    assert all(agree(s).subset_agrees(c.forces) for c in fired)


def test_describe_mentions_name_and_labeling():
    fired = sufficient_conditions(strata(0.2, 0.4, 0.5, 0.3))
    text = fired[0].describe()
    assert fired[0].name in text
    assert fired[0].labeling in text


def test_conditions_require_strict_strata():
    with pytest.raises(InputValidationError):
        sufficient_conditions(strata(0.0, 0.4, 0.5, 0.3))
    assert agree(strata(0.0, 0.4, 0.5, 0.3)).fired_conditions == ()


# Dropping the relative-risk ordering hypotheses from the pairwise
# conditions admits counterexamples; each quadruple below satisfies a
# truncated published form while its target pair genuinely disagrees.
TRUNCATED_FORMS = [
    # p4 > p2 > p1 and p4 > p3 > p1 without RR_P < RR_Q: RR vs HR* split
    (strata(0.1, 0.3, 0.2, 0.5), (RR, HR_STAR)),
    # RR*_P < RR*_Q and p3 <= p1 without p1 <= p2: RR* vs RD split
    (strata(0.5, 0.3, 0.25, 0.01), (RR_STAR, RD)),
    # RR_P < RR_Q and p3 >= p1 without p2 >= p1: RR vs RD split
    (strata(0.2, 0.1, 0.8, 0.48), (RR, RD)),
]


@pytest.mark.parametrize("s,pair", TRUNCATED_FORMS)
def test_truncated_condition_counterexamples(s, pair):
    kind_a, kind_b = pair
    report = agree(s)
    assert not report.pair_agrees(kind_a, kind_b)
    # soundness: with the pair split, nothing may claim to force it
    for c in report.fired_conditions:
        assert not c.forces >= {kind_a, kind_b}


def test_sparse_data_fires_nothing_yet_agrees():
    # agreement can hold with no inequality screen detecting it
    assert sufficient_conditions(SPARSE) == ()
    report = agree(SPARSE)
    assert report.pair_agrees(RR_STAR, RD)
    assert modification_direction(SPARSE, RR_STAR) is Direction.TOWARD_P
    assert modification_direction(SPARSE, RD) is Direction.TOWARD_P


@given(strict_probs, strict_probs, strict_probs, strict_probs)
def test_fired_conditions_are_sound(p1, p2, p3, p4):
    report = agree(strata(p1, p2, p3, p4))
    for condition in report.fired_conditions:
        assert report.subset_agrees(condition.forces), condition.describe()
