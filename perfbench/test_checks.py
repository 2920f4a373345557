"""Self-checks of the benchmark: its output checks reject corrupted outputs.

Run from the root of a source checkout:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def simulate_payload() -> dict:
    argv = wl.WORKLOADS["simulate-uniform"].make_input(random.Random(0))
    return json.loads(wl.run_cli(argv).stdout)


@pytest.fixture(scope="module")
def exact_payload() -> dict:
    argv = wl.WORKLOADS["exact"].make_input(random.Random(0))
    return json.loads(wl.run_cli(argv).stdout)


def _with_count(payload: dict, mask: int, delta: int) -> dict:
    corrupted = json.loads(json.dumps(payload))
    corrupted["results"]["venn"][mask]["count"] += delta
    return corrupted


def test_simulate_check_accepts_real_output(simulate_payload):
    assert wl.check_simulate_payload(simulate_payload, simulate_payload["seed"], True) == []


@pytest.mark.parametrize(
    "mask, delta",
    [
        (wl.FULL_MASK, 1),  # all-six count off by one breaks the gate theorem
        (wl.RR_PAIR_MASK, -1),  # {RR,RR*} count off by one
        (0, -1),  # empty-set row no longer equals trials
        (4, 1),  # single-measure row off by one
        (7, 10**6),  # a subset counting more than its own subset
    ],
)
def test_simulate_check_rejects_count_off(simulate_payload, mask, delta):
    corrupted = _with_count(simulate_payload, mask, delta)
    assert wl.check_simulate_payload(corrupted, simulate_payload["seed"], True)


def test_simulate_check_rejects_frequency_far_from_five_sixths(simulate_payload):
    corrupted = simulate_payload
    for mask in (wl.RR_PAIR_MASK, wl.FULL_MASK):
        corrupted = _with_count(corrupted, mask, -10_000)
    problems = wl.check_simulate_payload(corrupted, simulate_payload["seed"], True)
    assert any("5/6" in problem for problem in problems)


def test_exact_check_accepts_real_output(exact_payload):
    assert wl.check_exact_payload(exact_payload) == []


@pytest.mark.parametrize(
    "path", [("total",), ("regions", "C"), ("region_a_parts", "part3")]
)
def test_exact_check_rejects_value_shifted_by_1e_4(exact_payload, path):
    corrupted = json.loads(json.dumps(exact_payload))
    node = corrupted["results"]
    for key in path:
        node = node[key]
    node["value"] += 1e-4
    assert wl.check_exact_payload(corrupted)


def _screen_case(fired: bool) -> tuple[wl.ScreenInput, wl.ScreenOutcome]:
    rng = random.Random(0)
    while True:
        inp = wl.make_screen_input(rng)
        out = wl.run_screen(inp)
        strict = all(0.0 < p < 1.0 for p in inp.risks)
        if strict and out.report.rr_gate_fired == fired and not out.verdict.reject:
            return inp, out


@pytest.mark.parametrize("fired", [True, False])
def test_screen_check_accepts_real_output(fired):
    assert wl.check_screen(*_screen_case(fired)) == []


@pytest.mark.parametrize("fired", [True, False])
def test_screen_check_rejects_flipped_gate_flag(fired):
    inp, out = _screen_case(fired)
    report = dataclasses.replace(out.report, rr_gate_fired=not fired)
    assert wl.check_screen(inp, dataclasses.replace(out, report=report))
    assert wl.check_screen(inp, dataclasses.replace(out, rr_gate=not fired))


def test_screen_check_rejects_window_missing_p4():
    inp, out = _screen_case(False)
    window = dataclasses.replace(out.window, upper=inp.risks[3])
    assert wl.check_screen(inp, dataclasses.replace(out, window=window))


def test_screen_check_rejects_reject_without_matching_intervals():
    from concord.inference import TestDirection

    inp, out = _screen_case(True)
    verdict = dataclasses.replace(out.verdict, reject=True, direction=TestDirection.BOTH_ABOVE)
    assert wl.check_screen(inp, dataclasses.replace(out, verdict=verdict))


def test_benchmark_json_lists_the_per_layer_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        row[:3] for row in layers.PER_LAYER
    ]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric(trace, section):
    done = _run(ROOT, "screen", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in bench[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "screen", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
