"""concord benchmark: one workload, one run, one JSON result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload screen --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced closed loop.
``--trace 1`` runs the loop untraced for half the time and traced for the
other half, then prints the per-layer metrics and the tracing overhead; the
spans go to ``.perfbench_out/spans-<workload>.npz``. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it carry
provenance and details that are recorded but not gated. The program is
imported from ``src/`` of the checkout, never from an installed copy, and
the run exits with status 1 and no result when that source is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 7  # cold starts per run; setup_s is their median
IMPORT_PROBES = 3  # -X importtime runs per traced run
SUBPROCESS_TIMEOUT_S = 60
TAIL_BEYOND = 10  # the tail percentile leaves this many samples above it
MAX_REPORTED_PROBLEMS = 5

IMPORT_MODULES = ("numpy", "concord", "concord.montecarlo", "concord.quadrature", "concord.cli")
IMPORT_PROBE_CODE = "import sys, concord.cli; sys.exit(concord.cli.main(sys.argv[1:]))"


def _import_program() -> None:
    """Put the checkout's src/ first on sys.path and import concord from it."""
    if not (SRC / "concord" / "__init__.py").is_file():
        sys.exit(f"perfbench: no concord source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import concord

    if Path(concord.__file__).resolve().parent != (SRC / "concord").resolve():
        sys.exit(f"perfbench: imported concord from {concord.__file__}, not from {SRC}")


def _subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def provenance(args: argparse.Namespace) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": sum(
            len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py")
        ),
    }


# --- set-up: cold starts of the CLI ------------------------------------------


def cold_starts(argv: list[str]) -> tuple[list[float], int]:
    """Wall times of cold ``python -m concord.cli`` runs, after one untimed run.

    The untimed run leaves the bytecode cache as a user's second run sees it.
    Returns the times and the number of runs that did not exit 0.
    """
    command = [sys.executable, "-m", "concord.cli", *argv]
    times, failures = [], 0
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        done = subprocess.run(
            command, cwd=ROOT, env=_subprocess_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=SUBPROCESS_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            failures += 1
            print(f"perfbench: cold start failed: {done.stderr.decode().strip()}", file=sys.stderr)
        elif i > 0:
            times.append(elapsed)
    return times, failures


def import_times_ms(argv: list[str]) -> dict[str, float]:
    """Median cumulative ``-X importtime`` cost of the set-up command's imports."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_MODULES}
    command = [sys.executable, "-X", "importtime", "-c", IMPORT_PROBE_CODE, *argv]
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            command, cwd=ROOT, env=_subprocess_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=SUBPROCESS_TIMEOUT_S, text=True,
        )
        for line in done.stderr.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[2].strip() in samples:
                samples[fields[2].strip()].append(int(fields[1]) / 1000.0)
    return {name: statistics.median(vals) if vals else 0.0 for name, vals in samples.items()}


# --- the closed loop ----------------------------------------------------------


class Loop:
    """Runs a workload's ops back to back and keeps latencies and verdicts."""

    def __init__(self, workload, rng: random.Random) -> None:
        self.workload = workload
        self.rng = rng
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counters: Counter = Counter()

    def _one(self, call) -> int | None:
        """One op: input, timed call, check. Returns its latency in ns, or None."""
        inp = self.workload.make_input(self.rng)
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            out = call(inp)
        except Exception as exc:  # a raising op is a failed op, not a crash
            self._fail([f"{type(exc).__name__}: {exc}"])
            return None
        elapsed = time.perf_counter_ns() - start
        problems = self.workload.check(inp, out)
        if problems:
            self._fail(problems)
            return None
        self.counters["ops"] += 1
        self.counters.update(self.workload.counters(inp, out))
        return elapsed

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        room = MAX_REPORTED_PROBLEMS - len(self.problems)
        self.problems.extend(problems[: max(0, room)])

    def run(self, seconds: float, call=None, warmup: bool = True) -> array:
        """Latencies (ns) of the ops that passed, over `seconds` of wall time."""
        call = call or self.workload.run_op
        if warmup:
            self._one(call)
        latencies = array("d")
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            elapsed = self._one(call)
            if elapsed is not None:
                latencies.append(elapsed)
        return latencies


def rank(n: int, percentile: float) -> int:
    """Nearest-rank position (1-based) of a percentile among n sorted samples."""
    return max(1, math.ceil(percentile * n / 100))


def tail_rank(n: int) -> int:
    """Rank of the highest percentile with TAIL_BEYOND samples above it, kept in [p90, p99].

    Above p99 a run of many short ops measures the host's scheduling
    hiccups rather than the program; a run of few ops has no percentile
    with TAIL_BEYOND samples above it and reports p90.
    """
    return min(max(n - TAIL_BEYOND, rank(n, 90)), rank(n, 99))


def p90(latencies) -> float:
    ordered = sorted(latencies)
    return ordered[rank(len(ordered), 90) - 1]


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# --- modes --------------------------------------------------------------------


def end_to_end(workload, rng: random.Random, seconds: float) -> tuple[Loop, dict, dict]:
    setup_times, setup_failures = cold_starts(workload.setup_argv(rng))
    loop = Loop(workload, rng)
    latencies = loop.run(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop.attempted += SETUP_REPEATS + 1
    loop.failed += setup_failures
    if not latencies or not setup_times:
        return loop, {}, {}
    ms = sorted(v / 1e6 for v in latencies)
    n = len(ms)
    tail = tail_rank(n)
    work_per_s = workload.work_per_op * n / (sum(ms) / 1e3)
    metrics = {
        "latency_p90_ms": _metric(p90(ms), "ms"),
        "latency_tail_ms": _metric(ms[tail - 1], "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
    }
    detail = {
        "ops_timed": n,
        "latency_p50_ms": statistics.median(ms),
        "latency_tail_percentile": 100.0 * tail / n,
        f"{workload.work_unit}_per_s": work_per_s,
        "setup_s_all": setup_times,
        "failed_frac": loop.failed / loop.attempted,
        **({"abs_err": loop.counters["abs_err"] / loop.counters["ops"]}
           if "abs_err" in loop.counters else {}),
    }
    return loop, metrics, detail


def traced(workload, rng: random.Random, seconds: float) -> tuple[Loop, dict, dict]:
    import layers
    from tracing import Tracer

    imports = import_times_ms(workload.setup_argv(rng))
    loop = Loop(workload, rng)
    plain = loop.run(seconds / 2)
    tracer = Tracer()
    tracer.install()
    loop.counters = Counter()
    try:
        with_trace = loop.run(
            seconds / 2, call=lambda inp: tracer.run_op(workload.run_op, inp), warmup=False
        )
    finally:
        tracer.uninstall()
    if not plain or not with_trace:
        return loop, {}, {}
    overhead = p90(with_trace) / p90(plain) - 1.0
    tracer.save(OUT_DIR / f"spans-{workload.name}.npz")
    metrics = layers.per_layer(tracer, loop.counters, imports, overhead)
    ops = tracer.op_id + 1
    detail = {"ops_traced": ops, "spans_per_op": len(tracer.start) / ops}
    return loop, {k: _metric(v, layers.UNITS[k]) for k, v in metrics.items()}, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    print(json.dumps({"provenance": provenance(args)}))
    mode = traced if args.trace else end_to_end
    loop, metrics, detail = mode(workload, rng, args.seconds)
    print(json.dumps({"detail": detail, "problems": loop.problems}))
    print(json.dumps({
        "correct": loop.failed == 0 and bool(metrics),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
