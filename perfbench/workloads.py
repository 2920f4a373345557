"""The four benchmark workloads: input generation, one operation, output check.

Every workload is a closed loop with one client in one process: the next
operation starts only after the previous one returned. Inputs come from a
``random.Random`` seeded by the benchmark's ``--seed``; the program sees only
the generated argv (CLI workloads) or the generated risks and counts
(``screen``). Each check returns a list of problems, empty when the output
is correct, so a test can feed it a corrupted output and see it rejected.

Ops call the program through module attributes (``concord.cli.main``,
``agreement.agree``) so that trace wrappers installed on the modules apply.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import concord.cli
from concord import agreement, inference
from concord.inference import CountTable, TestDirection
from concord.measures import MeasureKind

SIM_TRIALS = 1_000_000
EXACT_RESOLUTION = 256
SCREEN_BOUNDARY_SHARE = 0.1  # strata with one risk set to exactly 0 or 1
SCREEN_TOTALS = (50, 5000)  # per-cell totals of the drawn count tables
QUAD_TOL = 1e-5  # worst quadrature error at resolution 256 is 1.6e-6
BINOMIAL_SES = 5.0

FULL_MASK = 63  # Venn bitmask of all six measures
RR_PAIR_MASK = (1 << MeasureKind.RR.bit) | (1 << MeasureKind.RR_STAR.bit)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``make_input`` draws the next op's input, ``run_op`` is the timed call
    into the program, ``check`` lists what is wrong with its output and
    ``counters`` returns counts read from a correct output (summed over the
    traced ops). ``setup_argv`` is the subcommand a cold shell user runs.
    """

    name: str
    setup_argv: Callable[[random.Random], list[str]]
    make_input: Callable[[random.Random], Any]
    run_op: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    counters: Callable[[Any, Any], dict[str, float]]
    work_per_op: int
    work_unit: str


# --- CLI workloads -----------------------------------------------------------


@dataclass(frozen=True)
class CliOutcome:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliOutcome:
    """One in-process ``concord`` invocation with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = concord.cli.main(argv)
    return CliOutcome(code, out.getvalue(), err.getvalue())


def _payload(outcome: CliOutcome) -> tuple[Optional[dict], list[str]]:
    if outcome.code != 0:
        return None, [f"exit code {outcome.code}: {outcome.stderr.strip()}"]
    try:
        return json.loads(outcome.stdout), []
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def venn_counts(payload: dict) -> list[int]:
    return [row["count"] for row in payload["results"]["venn"]]


def check_simulate_payload(payload: dict, seed: int, uniform: bool) -> list[str]:
    """Gate theorem, subset monotonicity, trivial rows, and for uniform the 5/6 law."""
    problems = []
    if payload.get("seed") != seed or payload["inputs"].get("trials") != SIM_TRIALS:
        problems.append("envelope does not echo the requested seed and trials")
    rows = payload["results"]["venn"]
    if [row["bitmask"] for row in rows] != list(range(64)):
        return problems + ["venn rows are not the 64 bitmasks in order"]
    counts = venn_counts(payload)
    trials = SIM_TRIALS
    if counts[RR_PAIR_MASK] != counts[FULL_MASK]:
        problems.append(
            f"gate theorem: {{RR,RR*}} count {counts[RR_PAIR_MASK]} "
            f"!= all-six count {counts[FULL_MASK]}"
        )
    for mask in range(64):
        for bit in range(6):
            wider = mask | (1 << bit)
            if counts[wider] > counts[mask]:
                problems.append(f"count rises from subset {mask} to superset {wider}")
    for mask in (0, 1, 2, 4, 8, 16, 32):
        if counts[mask] != trials:
            problems.append(f"row {mask} counts {counts[mask]}, not all {trials} trials")
    if uniform:
        p = 5.0 / 6.0
        freq = counts[FULL_MASK] / trials
        se = math.sqrt(p * (1.0 - p) / trials)
        if abs(freq - p) > BINOMIAL_SES * se:
            problems.append(f"all-six frequency {freq} is more than {BINOMIAL_SES:g} SE from 5/6")
    return problems


def _simulate_workload(name: str, dist_args: list[str]) -> Workload:
    uniform = dist_args == ["--dist", "uniform"]

    def make_input(rng: random.Random) -> list[str]:
        seed = rng.randrange(2**31)
        return ["simulate", *dist_args, "--trials", str(SIM_TRIALS), "--seed", str(seed)]

    def check(argv: list[str], outcome: CliOutcome) -> list[str]:
        payload, problems = _payload(outcome)
        if payload is None:
            return problems
        return check_simulate_payload(payload, int(argv[-1]), uniform)

    def counters(argv: list[str], outcome: CliOutcome) -> dict[str, float]:
        counts = venn_counts(json.loads(outcome.stdout))
        return {"trials": SIM_TRIALS, "rr_conflicts": SIM_TRIALS - counts[RR_PAIR_MASK]}

    return Workload(
        name=name,
        setup_argv=lambda rng: [
            "simulate", *dist_args, "--trials", "1", "--seed", str(rng.randrange(2**31))
        ],
        make_input=make_input,
        run_op=run_cli,
        check=check,
        counters=counters,
        work_per_op=SIM_TRIALS,
        work_unit="trials",
    )


EXACT_VALUES = {
    "regions": {name: 1.0 / 24.0 for name in "ABCD"},
    "region_a_parts": {"part1": 1.0 / 16.0, "part2": 1.0 / 4.0, "part3": 13.0 / 48.0},
}


def exact_abs_err(payload: dict) -> float:
    return abs(payload["results"]["total"]["value"] - 1.0 / 6.0)


def check_exact_payload(payload: dict) -> list[str]:
    """Total, every region and every region-A part within QUAD_TOL of its closed form."""
    problems = []
    results = payload["results"]
    if payload["inputs"].get("resolution") != EXACT_RESOLUTION:
        problems.append("envelope does not echo the requested resolution")
    if exact_abs_err(payload) > QUAD_TOL:
        problems.append(f"total {results['total']['value']} is not within {QUAD_TOL} of 1/6")
    for group, expected in EXACT_VALUES.items():
        for key, value in expected.items():
            got = results[group][key]["value"]
            if abs(got - value) > QUAD_TOL:
                problems.append(f"{group}.{key} = {got} is not within {QUAD_TOL} of {value}")
    return problems


def _exact_check(argv: list[str], outcome: CliOutcome) -> list[str]:
    payload, problems = _payload(outcome)
    return problems if payload is None else check_exact_payload(payload)


EXACT = Workload(
    name="exact",
    setup_argv=lambda rng: ["exact", "--resolution", "8"],
    # Full digits on stdout: the default 4 would hide errors below 5e-5.
    make_input=lambda rng: ["exact", "--resolution", str(EXACT_RESOLUTION), "--digits", "17"],
    run_op=run_cli,
    check=_exact_check,
    counters=lambda argv, outcome: {"abs_err": exact_abs_err(json.loads(outcome.stdout))},
    work_per_op=1,
    work_unit="runs",
)


# --- screen: the scalar library path -----------------------------------------


@dataclass(frozen=True)
class ScreenInput:
    risks: tuple[float, float, float, float]
    table: CountTable


@dataclass(frozen=True)
class ScreenOutcome:
    report: agreement.AgreementReport
    rr_gate: bool
    window: Optional[agreement.Window]  # None when not computed
    verdict: inference.TestVerdict


def _open_unit(rng: random.Random) -> float:
    value = rng.random()
    while value == 0.0:
        value = rng.random()
    return value


def _events(rng: random.Random, risk: float, total: int) -> int:
    # Normal approximation to Binomial(total, risk), kept off 0 and total so
    # that every table has a defined log-scale estimate.
    mean = total * risk
    drawn = round(mean + math.sqrt(mean * (1.0 - risk)) * rng.gauss(0.0, 1.0))
    return min(total - 1, max(1, drawn))


def make_screen_input(rng: random.Random) -> ScreenInput:
    risks = [_open_unit(rng) for _ in range(4)]
    if rng.random() < SCREEN_BOUNDARY_SHARE:
        risks[rng.randrange(4)] = float(rng.randrange(2))
    totals = [rng.randint(*SCREEN_TOTALS) for _ in range(4)]
    table = CountTable.from_ints(
        [(_events(rng, risk, total), total) for risk, total in zip(risks, totals)]
    )
    return ScreenInput(tuple(risks), table)


def run_screen(inp: ScreenInput) -> ScreenOutcome:
    """agree(), rr_gate(), the RR/RR* window when the gate failed, and the test."""
    strata = agreement.StratifiedRisks.from_probs(*inp.risks)
    report = agreement.agree(strata)
    gate = agreement.rr_gate(strata)
    window = None
    if strata.is_strict and not report.rr_gate_fired:
        p1, p2, p3, _ = inp.risks
        window = agreement.disagreement_window(
            p1, p2, p3, MeasureKind.RR, MeasureKind.RR_STAR
        )
    verdict = inference.modification_test(inp.table)
    return ScreenOutcome(report, gate, window, verdict)


def check_screen(inp: ScreenInput, out: ScreenOutcome) -> list[str]:
    """Gate theorem, rr_gate consistency, window membership, test direction."""
    problems = []
    report = out.report
    if report.rr_gate_fired and not report.agrees:
        problems.append(f"gate fired but the measures disagree at {inp.risks}")
    if out.rr_gate != report.rr_gate_fired:
        problems.append(f"rr_gate() = {out.rr_gate} but agree() says {report.rr_gate_fired}")
    strict = all(0.0 < p < 1.0 for p in inp.risks)
    if strict and not report.rr_gate_fired:
        if out.window is None or not out.window.contains(inp.risks[3]):
            problems.append(f"RR/RR* window {out.window} misses p4 at {inp.risks}")
    verdict = out.verdict
    (lo1, hi1), (lo2, hi2) = verdict.region
    above, below = lo1 > 0.0 and lo2 > 0.0, hi1 < 0.0 and hi2 < 0.0
    expected = (
        TestDirection.BOTH_ABOVE if above
        else TestDirection.BOTH_BELOW if below
        else TestDirection.NONE
    )
    if verdict.direction is not expected or verdict.reject != (expected is not TestDirection.NONE):
        problems.append(
            f"test says reject={verdict.reject} {verdict.direction} for intervals {verdict.region}"
        )
    return problems


SCREEN = Workload(
    name="screen",
    setup_argv=lambda rng: [
        "agree", *(arg for i in range(1, 5) for arg in (f"--p{i}", repr(_open_unit(rng))))
    ],
    make_input=make_screen_input,
    run_op=run_screen,
    check=check_screen,
    counters=lambda inp, out: {"gate_fired": int(out.report.rr_gate_fired)},
    work_per_op=1,
    work_unit="strata",
)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        _simulate_workload("simulate-uniform", ["--dist", "uniform"]),
        _simulate_workload("simulate-tent", ["--dist", "tent", "--bounds", "0,1"]),
        EXACT,
        SCREEN,
    )
}
