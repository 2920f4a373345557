"""Per-layer metrics of a traced run, and what each one should move.

``PER_LAYER`` is the single list of per-layer metrics: name, unit, which
direction is better, the end-to-end metric it should move, and the
workloads whose ops run that layer. On other workloads the layer is not on
the path and its metric reads 0. ``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

import numpy as np

from tracing import LAYERS, OP_SPAN, Tracer

LAYERS_AND_UNWRAPPED = (*LAYERS, "unwrapped")
SIM = "simulate-uniform, simulate-tent"
ALL = "simulate-uniform, simulate-tent, exact, screen"

PER_LAYER: tuple[tuple[str, str, str, str, str], ...] = (
    ("cli.main.ms", "ms", "lower", "latency_p90_ms", f"{SIM}, exact"),
    ("cli.main.self_ms", "ms", "lower", "latency_p90_ms", f"{SIM}, exact"),
    ("montecarlo.run.ms", "ms", "lower", "latency_p90_ms, trials_per_s", SIM),
    ("montecarlo.run.ns_per_trial", "ns", "lower", "trials_per_s", SIM),
    ("montecarlo.gate_conflict_frac", "frac", "lower", "latency_p90_ms of a gate-screened kernel", SIM),
    ("montecarlo.venn_json_rows.ms", "ms", "lower", "latency_p90_ms", SIM),
    ("report.to_json.ms", "ms", "lower", "latency_p90_ms", f"{SIM}, exact"),
    ("quadrature.region_probability.ms", "ms", "lower", "latency_p90_ms, runs_per_s", "exact"),
    ("quadrature.region_a_parts.ms", "ms", "lower", "latency_p90_ms, runs_per_s", "exact"),
    ("quadrature.abs_err", "1", "lower", "abs_err of exact (checked at 1e-5)", "exact"),
    ("agreement.agree.us", "us", "lower", "latency_p90_ms, strata_per_s", "screen"),
    ("agreement.agree.self_us", "us", "lower", "latency_p90_ms, strata_per_s", "screen"),
    ("agreement.sufficient_conditions.us", "us", "lower", "latency_p90_ms, strata_per_s", "screen"),
    ("agreement.rr_gate.us", "us", "lower", "latency_p90_ms, strata_per_s", "screen"),
    ("agreement.disagreement_window.us", "us", "lower", "latency_p90_ms, strata_per_s", "screen"),
    ("agreement.gate_fired_frac", "frac", "higher", "latency_p90_ms of a gate-screened path", "screen"),
    ("measures.measure.calls_per_op", "count", "lower", "latency_p90_ms, strata_per_s", "screen"),
    ("measures.measure.us", "us", "lower", "latency_p90_ms, strata_per_s", "screen"),
    ("inference.modification_test.us", "us", "lower", "strata_per_s", "screen"),
    ("inference.estimate_rrr.us", "us", "lower", "strata_per_s", "screen"),
    *(
        (f"{layer}.self_share", "frac", "lower", "latency_p90_ms", ALL)
        for layer in LAYERS_AND_UNWRAPPED
    ),
    ("import.numpy_ms", "ms", "lower", "setup_s", ALL),
    ("import.concord_ms", "ms", "lower", "setup_s", ALL),
    ("import.concord.montecarlo_ms", "ms", "lower", "setup_s", ALL),
    ("import.concord.quadrature_ms", "ms", "lower", "setup_s", ALL),
    ("import.concord.cli_ms", "ms", "lower", "setup_s", ALL),
    ("trace_overhead_frac", "frac", "lower", "none: the cost of tracing itself", ALL),
)

UNITS = {name: unit for name, unit, *_ in PER_LAYER}
_NS_PER = {"ms": 1e6, "us": 1e3}


def per_layer(
    tracer: Tracer, counters: dict[str, float], imports_ms: dict[str, float], overhead: float
) -> dict[str, float]:
    """Every PER_LAYER metric from the spans, the op counters and the import probe."""
    spans = tracer.spans()
    name_id = spans["name_id"]
    # The op span's own time is the time spent outside every wrapped function.
    layer_of_name = np.array(
        [LAYERS_AND_UNWRAPPED.index("unwrapped" if n == OP_SPAN else n.partition(".")[0])
         for n in tracer.names]
    )
    layer_id = layer_of_name[name_id]

    def calls(fn: str) -> np.ndarray:
        if fn not in tracer.names:
            return np.zeros(len(name_id), dtype=bool)
        return name_id == tracer.names.index(fn)

    op_ns = spans["duration_ns"][calls(OP_SPAN)].sum()
    ops = int(calls(OP_SPAN).sum())

    def median(fn: str, field: str, unit: str) -> float:
        values = spans[field][calls(fn)]
        return float(np.median(values)) / _NS_PER[unit] if values.size else 0.0

    def ratio(num: float, den: float) -> float:
        return float(num) / den if den else 0.0

    out: dict[str, float] = {}
    for name, unit, *_ in PER_LAYER:
        fn, _, suffix = name.rpartition(".")
        if name.startswith("import."):
            out[name] = imports_ms[name[len("import."):-len("_ms")]]
        elif suffix == "self_share":
            in_layer = layer_id == LAYERS_AND_UNWRAPPED.index(fn)
            out[name] = ratio(spans["self_ns"][in_layer].sum(), op_ns)
        elif suffix in ("ms", "us"):
            out[name] = median(fn, "duration_ns", unit)
        elif suffix in ("self_ms", "self_us"):
            out[name] = median(fn, "self_ns", unit)
    trials = counters.get("trials", 0)
    out["montecarlo.run.ns_per_trial"] = ratio(
        spans["duration_ns"][calls("montecarlo.run")].sum(), trials
    )
    out["montecarlo.gate_conflict_frac"] = ratio(counters.get("rr_conflicts", 0), trials)
    out["quadrature.abs_err"] = ratio(counters.get("abs_err", 0), counters.get("ops", 0))
    out["agreement.gate_fired_frac"] = ratio(counters.get("gate_fired", 0), counters.get("ops", 0))
    out["measures.measure.calls_per_op"] = ratio(calls("measures.measure").sum(), ops)
    out["trace_overhead_frac"] = overhead
    return {name: out[name] for name, *_ in PER_LAYER}
