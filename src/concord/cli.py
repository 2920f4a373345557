"""Command-line interface.

Subcommands:

    measures           effect measures (and derived measures) of one or two risk pairs
    agree              direction of modification per measure and agreement verdict
    critical           the six critical p4 values for (p1, p2, p3)
    window             open p4 interval on which two measures disagree
    simulate           Monte Carlo agreement frequencies over random risks
    exact              deterministic quadrature of the RR/RR* disagreement probability
    test-modification  delta-method test for common-direction modification from counts
    case               bundled case-study fixture with golden-value verification

Every subcommand emits one JSON report envelope. stdout is rounded per
--digits (default 4); --out writes the full-precision envelope to a file
instead, with its provenance (simulate's stream_layout). Exit codes: 0
success, 1 input/usage error, 2 computation error (an undefined measure
limit or a degenerate count cell).

The --seed default can be supplied via the CONCORD_SEED environment
variable; an explicit --seed always wins.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .errors import (
    ConcordError,
    ConfigError,
    DegenerateCell,
    InputValidationError,
    UndefinedMeasure,
)
from .measures import (
    ALL_KINDS,
    MeasureKind,
    RiskPair,
    derived_measures,
    measure_vector,
)
from .agreement import (
    AgreementReport,
    StratifiedRisks,
    agree,
    critical_values,
    disagreement_window,
)
from .inference import CountTable, _checked_risks, _estimate, _verdict, _z, from_counts
from .casestudies import CASE_NAMES, case_study
from .dataio import _ROW_ORDER, load_strata
from .report import VERSION, ReportEnvelope

__all__ = ["main", "build_parser"]

_KIND_CHOICES = tuple(kind.value for kind in ALL_KINDS)
# The Distribution values, written out so that the parser is built without
# importing montecarlo (and numpy); tests/test_package.py pins them.
_DIST_CHOICES = ("uniform", "rare", "tent")
_RISK_HELP = (
    "control risk, stratum P",
    "exposed risk, stratum P",
    "control risk, stratum Q",
    "exposed risk, stratum Q",
)


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = _nonnegative_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("expected a positive integer, got 0")
    return value


def _bounds(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated numbers L,U, got {text!r}"
        )
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bounds must be numbers, got {text!r}")


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--digits",
        type=_nonnegative_int,
        default=4,
        help="decimal places for stdout values (default 4)",
    )
    sub.add_argument(
        "--out",
        metavar="PATH",
        help="write the full-precision report to PATH instead of stdout",
    )


def _add_risk_flags(
    sub: argparse.ArgumentParser, count: int, required: bool = False
) -> None:
    for i, text in enumerate(_RISK_HELP[:count], start=1):
        sub.add_argument(f"--p{i}", type=float, required=required, help=text)


def _add_file_flags(sub: argparse.ArgumentParser, required: bool = False) -> None:
    sub.add_argument(
        "--in",
        dest="infile",
        metavar="PATH",
        required=required,
        help="risks or counts file (see --format)",
    )
    sub.add_argument(
        "--format",
        choices=("csv", "json"),
        help="input file format (default: inferred from suffix)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concord",
        description="Direction of effect-measure modification across two strata.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {VERSION}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    measures = sub.add_parser(
        "measures",
        help="effect measures of one or two risk pairs",
        description=(
            "Compute the six effect measures (and, for risks strictly inside "
            "(0, 1), the derived measures) of the pair (--p1, --p2), the "
            "optional second pair (--p3, --p4), or both strata of --in."
        ),
    )
    measures.set_defaults(handler=_cmd_measures)
    _add_risk_flags(measures, 4)
    _add_file_flags(measures)
    _add_output_flags(measures)

    agree_cmd = sub.add_parser(
        "agree",
        help="agreement verdict across two strata",
        description=(
            "Direction of modification for all six measures, the pairwise "
            "disagreements, the RR/RR* gate, and any fired sufficient conditions."
        ),
    )
    agree_cmd.set_defaults(handler=_cmd_agree)
    _add_risk_flags(agree_cmd, 4)
    _add_file_flags(agree_cmd)
    _add_output_flags(agree_cmd)

    critical = sub.add_parser(
        "critical",
        help="critical p4 values for (p1, p2, p3)",
        description=(
            "For each measure, the p4 at which stratum Q shows exactly the "
            "same effect as stratum P. Values may fall outside (0, 1) for "
            "RR, RR*, and RD; they are reported unclamped."
        ),
    )
    critical.set_defaults(handler=_cmd_critical)
    _add_risk_flags(critical, 3, required=True)
    _add_output_flags(critical)

    window = sub.add_parser(
        "window",
        help="p4 interval on which two measures disagree",
        description=(
            "The open interval of p4 values (intersected with (0, 1)) on "
            "which the two named measures point in opposite directions."
        ),
    )
    window.set_defaults(handler=_cmd_window)
    window.add_argument("kind_a", choices=_KIND_CHOICES, help="first measure")
    window.add_argument("kind_b", choices=_KIND_CHOICES, help="second measure")
    _add_risk_flags(window, 3, required=True)
    _add_output_flags(window)

    simulate = sub.add_parser(
        "simulate",
        help="Monte Carlo agreement frequencies",
        description=(
            "Draw random risk quadruples, tally agreement for all 64 measure "
            "subsets, and report the full Venn table. Deterministic for a "
            "fixed seed."
        ),
    )
    simulate.set_defaults(handler=_cmd_simulate)
    simulate.add_argument(
        "--trials", type=_positive_int, default=1_000_000, help="default 1000000"
    )
    simulate.add_argument(
        "--seed",
        type=int,
        default=None,
        help="RNG seed (default: CONCORD_SEED or 0)",
    )
    simulate.add_argument(
        "--dist",
        choices=_DIST_CHOICES,
        default="uniform",
        help="risk distribution (default uniform)",
    )
    simulate.add_argument(
        "--bounds",
        type=_bounds,
        default=None,
        metavar="L,U",
        help="support bounds for every --dist (default 0,0.1 for rare, else 0,1)",
    )
    _add_output_flags(simulate)

    exact = sub.add_parser(
        "exact",
        help="quadrature of the RR/RR* disagreement probability",
        description=(
            "Integration of the disagreement width over the four regions of "
            "the (p1, p2, p3) cube, with the region-A closed-form "
            "decomposition. The p3 integral is exact; (p1, p2) is summed by "
            "the midpoint rule on an n x n grid, so the error falls as 1/n^2. "
            "Exact values: 1/24 per region, 1/6 total, parts 1/16 + 1/4 - 13/48."
        ),
    )
    exact.set_defaults(handler=_cmd_exact)
    exact.add_argument(
        "--resolution",
        type=_positive_int,
        default=256,
        help="grid cells per axis, 8 to 16384 (default 256)",
    )
    _add_output_flags(exact)

    test = sub.add_parser(
        "test-modification",
        help="delta-method common-direction test from counts",
        description=(
            "Estimate the two log relative risk ratios from a counts file "
            "and test whether both exclude the null in the same direction "
            "(Bonferroni rectangle)."
        ),
    )
    test.set_defaults(handler=_cmd_test_modification)
    _add_file_flags(test, required=True)
    test.add_argument("--alpha", type=float, default=0.05, help="default 0.05")
    test.add_argument(
        "--correct-degenerate",
        action="store_true",
        help="apply the 0.5-event correction to cells at 0 or 100%% events",
    )
    _add_output_flags(test)

    case = sub.add_parser(
        "case",
        help="bundled case-study fixture",
        description=(
            "Report a bundled case study: its risks, all computed measures, "
            "and verification of every value the source printed."
        ),
    )
    case.set_defaults(handler=_cmd_case)
    case.add_argument("name", choices=CASE_NAMES, help="case study name")
    _add_output_flags(case)

    return parser


def _effective_seed(flag_value: Optional[int]) -> int:
    if flag_value is not None:
        return flag_value
    raw = os.environ.get("CONCORD_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"CONCORD_SEED must be an integer, got {raw!r}") from None


def _risk_inputs(*risks: float) -> dict:
    """{"p1": risks[0], "p2": risks[1], ...}"""
    return {f"p{i}": risk for i, risk in enumerate(risks, start=1)}


def _resolve_strata(args: argparse.Namespace) -> tuple[StratifiedRisks, dict]:
    inline = [args.p1, args.p2, args.p3, args.p4]
    given = [value for value in inline if value is not None]
    if args.infile and given:
        raise InputValidationError("give risks either inline or via --in, not both")
    if args.infile:
        loaded = load_strata(args.infile, args.format)
        if isinstance(loaded, CountTable):
            strata = from_counts(loaded)
        else:
            strata = loaded
        source: dict = {"in": args.infile}
    elif len(given) == 4:
        strata = StratifiedRisks.from_probs(*inline)
        source = {}
    else:
        raise InputValidationError("need --p1 --p2 --p3 --p4, or --in FILE")
    risks = _risk_inputs(strata.p1, strata.p2, strata.p3, strata.p4)
    return strata, {**source, **risks}


def _pair_payload(pair: RiskPair) -> dict:
    return {
        "control": pair.p_control,
        "exposed": pair.p_exposed,
        "measures": measure_vector(pair).as_dict(),
        "derived": derived_measures(pair).as_dict() if pair.is_strict else None,
    }


def _cmd_measures(args: argparse.Namespace) -> ReportEnvelope:
    if args.infile is None and (args.p1 is None or args.p2 is None):
        raise InputValidationError("need --p1 and --p2, or --in FILE")
    if (args.p3 is None) != (args.p4 is None):
        raise InputValidationError("--p3 and --p4 must be given together")
    if args.infile is not None or args.p3 is not None:
        strata, inputs = _resolve_strata(args)
        pairs = {"P": strata.stratum_p, "Q": strata.stratum_q}
    else:
        pair = RiskPair(args.p1, args.p2)
        inputs = _risk_inputs(pair.p_control, pair.p_exposed)
        pairs = {"P": pair}
    results = {"strata": {label: _pair_payload(pair) for label, pair in pairs.items()}}
    return ReportEnvelope(command=args.command, inputs=inputs, results=results)


def _verdict_payload(report: AgreementReport) -> dict:
    return {
        "directions": {kind.value: report.directions[kind].value for kind in ALL_KINDS},
        "agrees": report.agrees,
        "rr_gate": report.rr_gate_fired,
    }


def _cmd_agree(args: argparse.Namespace) -> ReportEnvelope:
    strata, inputs = _resolve_strata(args)
    report = agree(strata)
    disagreeing = [
        [kind_a.value, kind_b.value]
        for i, kind_a in enumerate(ALL_KINDS)
        for kind_b in ALL_KINDS[i + 1 :]
        if not report.pair_agrees(kind_a, kind_b)
    ]
    results = {
        "measures": {
            "P": measure_vector(strata.stratum_p).as_dict(),
            "Q": measure_vector(strata.stratum_q).as_dict(),
        },
        **_verdict_payload(report),
        "disagreeing_pairs": disagreeing,
        "fired_conditions": [
            {
                "name": condition.name,
                "labeling": condition.labeling,
                "forces": [
                    kind.value for kind in ALL_KINDS if kind in condition.forces
                ],
            }
            for condition in report.fired_conditions
        ],
    }
    return ReportEnvelope(command=args.command, inputs=inputs, results=results)


def _cmd_critical(args: argparse.Namespace) -> ReportEnvelope:
    values = critical_values(args.p1, args.p2, args.p3)
    return ReportEnvelope(
        command=args.command,
        inputs=_risk_inputs(args.p1, args.p2, args.p3),
        results={"critical_p4": values.as_dict()},
    )


def _cmd_window(args: argparse.Namespace) -> ReportEnvelope:
    kind_a = MeasureKind(args.kind_a)
    kind_b = MeasureKind(args.kind_b)
    window = disagreement_window(args.p1, args.p2, args.p3, kind_a, kind_b)
    values = critical_values(args.p1, args.p2, args.p3)
    results = {
        "lower": window.lower,
        "upper": window.upper,
        "width": window.width,
        "is_empty": window.is_empty,
        "critical_p4": {kind.value: values.value(kind) for kind in (kind_a, kind_b)},
    }
    inputs = {
        "kind_a": kind_a.value,
        "kind_b": kind_b.value,
        **_risk_inputs(args.p1, args.p2, args.p3),
    }
    return ReportEnvelope(command=args.command, inputs=inputs, results=results)


def _cmd_simulate(args: argparse.Namespace) -> ReportEnvelope:
    from .montecarlo import (
        STREAM_LAYOUT,
        Distribution,
        SimulationConfig,
        run,
        venn_json_rows,
    )

    seed = _effective_seed(args.seed)
    config = SimulationConfig(
        trials=args.trials,
        seed=seed,
        distribution=Distribution(args.dist),
        bounds=args.bounds,
    )
    result = run(config)
    rr_pair = (MeasureKind.RR, MeasureKind.RR_STAR)
    rr_pair_agree = result.frequency(rr_pair)
    results = {
        "all_six_agree_frequency": result.all_six_frequency,
        "rr_pair_agree_frequency": rr_pair_agree,
        "rr_pair_disagree_frequency": 1.0 - rr_pair_agree,
        "venn": venn_json_rows(result),
    }
    return ReportEnvelope(
        command=args.command,
        inputs={
            "trials": config.trials,
            "seed": seed,
            "distribution": config.distribution.value,
            "bounds": list(config.bounds),
        },
        results=results,
        seed=seed,
        provenance={"stream_layout": STREAM_LAYOUT},
    )


def _cmd_exact(args: argparse.Namespace) -> ReportEnvelope:
    from .quadrature import Region, _all_estimates, sum_estimates

    estimates = _all_estimates(args.resolution)
    regions = {region.value: estimate for region, estimate in zip(Region, estimates)}
    parts = estimates[4:]
    # vars() of a QuadratureEstimate is its fields in order: the dict that
    # dataclasses.asdict makes, without asdict's deep copy of every field
    results = {
        "regions": {name: vars(estimate) for name, estimate in regions.items()},
        "total": vars(sum_estimates(regions.values())),
        "region_a_parts": {
            f"part{i}": vars(part) for i, part in enumerate(parts, start=1)
        },
        "parts_identity_residual": parts[0].value
        + parts[1].value
        - parts[2].value
        - regions["A"].value,
    }
    return ReportEnvelope(
        command=args.command,
        inputs={"scheme": "midpoint-grid", "resolution": args.resolution},
        results=results,
    )


def _cmd_test_modification(args: argparse.Namespace) -> ReportEnvelope:
    loaded = load_strata(args.infile, args.format)
    if not isinstance(loaded, CountTable):
        raise InputValidationError(
            "test-modification needs a counts file (stratum,group,events,total)"
        )
    correct = args.correct_degenerate
    risks = _checked_risks(loaded, correct)  # a degenerate cell before a bad alpha
    estimate = _estimate(loaded, risks)
    verdict = _verdict(estimate, args.alpha, _z(args.alpha))
    results = {
        "risks": _risk_inputs(*risks),
        "log_rrr1": estimate.log_rrr1,
        "log_rrr2": estimate.log_rrr2,
        "se1": estimate.se1,
        "se2": estimate.se2,
        "covariance": [list(row) for row in estimate.covariance],
        "alpha": verdict.alpha,
        "intervals": [list(interval) for interval in verdict.region],
        "reject": verdict.reject,
        "direction": verdict.direction.value,
    }
    cells: dict = {}
    for (stratum, group), cell in zip(_ROW_ORDER, loaded.cells):
        cells.setdefault(stratum, {})[group] = vars(cell)
    return ReportEnvelope(
        command=args.command,
        inputs={
            "in": args.infile,
            "counts": cells,
            "alpha": args.alpha,
            "correct_degenerate": correct,
        },
        results=results,
    )


def _cmd_case(args: argparse.Namespace) -> ReportEnvelope:
    study = case_study(args.name)
    labels = study.labels()
    mismatches = study.verify()
    results = {
        "name": study.name,
        "description": study.description,
        "note": study.note,
        "risks": {
            label: {
                "control": study.pair_for_label(label).p_control,
                "exposed": study.pair_for_label(label).p_exposed,
            }
            for label in labels
        },
        "measures": {
            label: measure_vector(study.pair_for_label(label)).as_dict()
            for label in labels
        },
        "expected": [
            {
                "measure": item.measure,
                "stratum": item.stratum,
                "printed": item.value,
                "computed": study.computed(item),
                "decimals": item.decimals,
                "within_tolerance": abs(study.computed(item) - item.value)
                < item.tolerance,
            }
            for item in study.expected
        ],
        "verified": not mismatches,
        "mismatches": mismatches,
    }
    if study.has_both_strata:
        results["agreement"] = _verdict_payload(agree(study.strata))
    return ReportEnvelope(command=args.command, inputs={"name": args.name}, results=results)


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    # One parser per process, built on the first call: its 56 add_argument calls
    # each make a HelpFormatter that calls shutil.get_terminal_size, 1-2 ms in all.
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        envelope = args.handler(args)
        if args.out:
            Path(args.out).write_text(envelope.to_json() + "\n", encoding="utf-8")
            return 0
    except (UndefinedMeasure, DegenerateCell) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConcordError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(envelope.to_json(digits=args.digits))
    return 0


if __name__ == "__main__":
    sys.exit(main())
