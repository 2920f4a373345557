"""End-to-end tests of the command line interface via main(argv)."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import concord
from concord.cli import main
from concord.report import ReportEnvelope

RISKS_CSV = """\
stratum,group,risk
P,control,0.009
P,exposed,0.075
Q,control,0.106
Q,exposed,0.253
"""

COUNTS_CSV = """\
stratum,group,events,total
P,control,500,5000
P,exposed,1000,5000
Q,control,1000,5000
Q,exposed,3500,5000
"""


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("CONCORD_SEED", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# measures


def test_measures_single_pair(capsys):
    payload = run_json(capsys, "measures", "--p1", "0.7", "--p2", "0.9")
    assert payload["command"] == "measures"
    pair = payload["results"]["strata"]["P"]
    assert pair["measures"]["RR"] == 1.2857  # default --digits 4
    assert pair["derived"]["nnt"] == 5.0
    assert "Q" not in payload["results"]["strata"]


def test_measures_digits_flag(capsys):
    payload = run_json(capsys, "measures", "--p1", "0.7", "--p2", "0.9", "--digits", "2")
    assert payload["results"]["strata"]["P"]["measures"]["RR"] == 1.29


def test_measures_two_pairs(capsys):
    payload = run_json(
        capsys, "measures", "--p1", "0.7", "--p2", "0.9", "--p3", "0.2", "--p4", "0.3"
    )
    assert payload["results"]["strata"]["Q"]["measures"]["RR"] == 1.5


def test_measures_boundary_pair_reports_infinity(capsys):
    code, out, err = run_cli(capsys, "measures", "--p1", "0", "--p2", "0.3")
    assert code == 0
    assert "Infinity" in out
    payload = json.loads(out)
    pair = payload["results"]["strata"]["P"]
    assert pair["measures"]["RR"] == math.inf
    assert pair["derived"] is None  # not defined off the open interval


def test_measures_degenerate_pair_exits_2(capsys):
    code, out, err = run_cli(capsys, "measures", "--p1", "0", "--p2", "0")
    assert code == 2
    assert "error:" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("measures", "--p1", "0.7"),  # missing --p2
        ("measures", "--p1", "0.7", "--p2", "0.9", "--p3", "0.2"),  # lone --p3
        ("measures",),
    ],
)
def test_measures_incomplete_inputs_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# agree


def test_agree_inline(capsys):
    payload = run_json(
        capsys,
        "agree",
        "--p1", "0.009", "--p2", "0.075", "--p3", "0.106", "--p4", "0.253",
    )
    results = payload["results"]
    assert results["agrees"] is False
    assert results["rr_gate"] is False
    assert results["directions"]["RR"] == "toward_p"
    assert results["directions"]["RD"] == "toward_q"
    assert ["RR", "RD"] in results["disagreeing_pairs"]
    assert results["measures"]["P"]["RR"] == 8.3333


def test_agree_reports_fired_conditions(capsys):
    payload = run_json(
        capsys, "agree", "--p1", "0.2", "--p2", "0.4", "--p3", "0.5", "--p4", "0.3"
    )
    results = payload["results"]
    assert results["agrees"] is True
    assert results["rr_gate"] is True
    names = {c["name"] for c in results["fired_conditions"]}
    assert "qualitative-modification" in names
    forced = next(
        c for c in results["fired_conditions"] if c["name"] == "qualitative-modification"
    )
    assert forced["forces"] == ["RR", "RR*", "HR", "HR*", "RD", "OR"]


def test_agree_from_risks_file(capsys, tmp_path):
    path = tmp_path / "risks.csv"
    path.write_text(RISKS_CSV)
    payload = run_json(capsys, "agree", "--in", str(path))
    assert payload["inputs"]["in"] == str(path)
    assert payload["inputs"]["p4"] == 0.253
    assert payload["results"]["agrees"] is False


def test_agree_from_counts_file_converts(capsys, tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(COUNTS_CSV)
    payload = run_json(capsys, "agree", "--in", str(path))
    assert payload["inputs"]["p1"] == 0.1
    assert payload["inputs"]["p4"] == 0.7


def test_agree_rejects_mixed_sources(capsys, tmp_path):
    path = tmp_path / "risks.csv"
    path.write_text(RISKS_CSV)
    code, out, err = run_cli(
        capsys, "agree", "--in", str(path), "--p1", "0.1", "--p2", "0.2",
        "--p3", "0.3", "--p4", "0.4",
    )
    assert code == 1
    assert "not both" in err


def test_agree_needs_some_source(capsys):
    code, out, err = run_cli(capsys, "agree")
    assert code == 1


def test_agree_missing_file_exits_1(capsys, tmp_path):
    code, out, err = run_cli(capsys, "agree", "--in", str(tmp_path / "nope.csv"))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "command, text",
    [("agree", RISKS_CSV), ("test-modification", COUNTS_CSV)],
    ids=["agree", "test-modification"],
)
@pytest.mark.parametrize("encoding", ["latin-1", "utf-16"])
def test_in_file_that_is_not_utf8_exits_1(capsys, tmp_path, command, text, encoding):
    # a Latin-1 byte, or the UTF-16 that Windows PowerShell 5 writes by default
    path = tmp_path / "strata.csv"
    path.write_bytes(text.replace("stratum", "stratum\u00e9", 1).encode(encoding))
    code, out, err = run_cli(capsys, command, "--in", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "is not UTF-8" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# critical and window


def test_critical_values(capsys):
    payload = run_json(
        capsys, "critical", "--p1", "0.1", "--p2", "0.2", "--p3", "0.3"
    )
    values = payload["results"]["critical_p4"]
    assert values["RR"] == 0.6
    assert values["RD"] == 0.4
    assert values["RR*"] == 0.3778


def test_critical_requires_all_three(capsys):
    code, out, err = run_cli(capsys, "critical", "--p1", "0.1", "--p2", "0.2")
    assert code == 1


def test_window(capsys):
    payload = run_json(
        capsys, "window", "RR", "RR*", "--p1", "0.1", "--p2", "0.2", "--p3", "0.3"
    )
    results = payload["results"]
    assert results["lower"] == 0.3778
    assert results["upper"] == 0.6
    assert results["is_empty"] is False
    assert results["critical_p4"] == {"RR": 0.6, "RR*": 0.3778}


def test_window_rejects_unknown_kind(capsys):
    code, out, err = run_cli(
        capsys, "window", "RR", "IRR", "--p1", "0.1", "--p2", "0.2", "--p3", "0.3"
    )
    assert code == 1


# ---------------------------------------------------------------------------
# simulate


def test_simulate_deterministic_output(capsys):
    args = ("simulate", "--trials", "2000", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["seed"] == 7
    assert len(payload["results"]["venn"]) == 64
    agree_f = payload["results"]["rr_pair_agree_frequency"]
    assert payload["results"]["rr_pair_disagree_frequency"] == pytest.approx(
        1 - agree_f, abs=1e-3  # both rounded to 4 digits independently
    )


def test_simulate_seed_from_environment(capsys, monkeypatch):
    payload = run_json(capsys, "simulate", "--trials", "1000")
    assert payload["seed"] == 0  # no flag, no env: default

    monkeypatch.setenv("CONCORD_SEED", "123")
    payload = run_json(capsys, "simulate", "--trials", "1000")
    assert payload["seed"] == 123

    payload = run_json(capsys, "simulate", "--trials", "1000", "--seed", "5")
    assert payload["seed"] == 5  # the flag wins

    monkeypatch.setenv("CONCORD_SEED", "not-a-number")
    code, out, err = run_cli(capsys, "simulate", "--trials", "1000")
    assert code == 1
    assert "CONCORD_SEED" in err

    monkeypatch.setenv("CONCORD_SEED", "-5")
    code, out, err = run_cli(capsys, "simulate", "--trials", "1000")
    assert code == 1
    assert err.startswith("error: seed must be >= 0")


def test_simulate_tent_with_bounds(capsys):
    payload = run_json(
        capsys,
        "simulate", "--trials", "2000", "--seed", "1",
        "--dist", "tent", "--bounds", "0.2,0.8",
    )
    assert payload["inputs"]["distribution"] == "tent"
    assert payload["inputs"]["bounds"] == [0.2, 0.8]


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--trials", "0"),
        ("simulate", "--bounds", "nonsense"),
        ("simulate", "--dist", "gaussian"),
        ("simulate", "--trials", "100", "--bounds", "0.9,0.1"),
        ("simulate", "--trials", "100", "--seed", "-1"),
        ("simulate", "--trials", "100", "--dist", "uniform", "--bounds", "0.2,0.5"),
        ("simulate", "--trials", "100", "--dist", "tent", "--bounds", "0,5e-324"),
        ("simulate", "--trials", "100", "--dist", "tent", "--bounds", "0,1e-200"),
    ],
)
def test_simulate_bad_flags_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1


# ---------------------------------------------------------------------------
# exact


def test_exact_structure(capsys):
    payload = run_json(capsys, "exact", "--resolution", "8")
    results = payload["results"]
    assert set(results["regions"]) == {"A", "B", "C", "D"}
    assert results["regions"]["A"]["resolution"] == 8
    assert 0.1 < results["total"]["value"] < 0.25
    assert set(results["region_a_parts"]) == {"part1", "part2", "part3"}
    assert abs(results["parts_identity_residual"]) <= 1e-12


def test_exact_rejects_bad_resolution(capsys):
    code, out, err = run_cli(capsys, "exact", "--resolution", "0")
    assert code == 1
    code, out, err = run_cli(capsys, "exact", "--resolution", "4")
    assert code == 1  # below the minimum grid


@pytest.mark.parametrize("resolution", [2**14 + 1, 10**12])
def test_exact_rejects_resolution_above_the_cap(capsys, resolution):
    # the grid's cost grows as resolution squared; 10**12 ran out of memory
    code, out, err = run_cli(capsys, "exact", "--resolution", str(resolution))
    assert code == 1 and out == ""
    assert err.startswith("error: grid scheme needs") and "<= 16384" in err


# ---------------------------------------------------------------------------
# test-modification


def test_modification_from_counts(capsys, tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(COUNTS_CSV)
    payload = run_json(capsys, "test-modification", "--in", str(path))
    results = payload["results"]
    assert results["reject"] is True
    assert results["direction"] == "both_below"
    assert results["risks"]["p4"] == 0.7
    assert results["log_rrr1"] == pytest.approx(math.log(4 / 7), abs=1e-4)
    assert results["alpha"] == 0.05
    assert len(results["intervals"]) == 2


def test_modification_needs_counts(capsys, tmp_path):
    path = tmp_path / "risks.csv"
    path.write_text(RISKS_CSV)
    code, out, err = run_cli(capsys, "test-modification", "--in", str(path))
    assert code == 1
    assert "counts" in err


def test_modification_degenerate_cells(capsys, tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(COUNTS_CSV.replace("500,5000", "0,5000", 1))
    code, out, err = run_cli(capsys, "test-modification", "--in", str(path))
    assert code == 2
    code, out, err = run_cli(
        capsys, "test-modification", "--in", str(path), "--correct-degenerate"
    )
    assert code == 0


@pytest.mark.parametrize(
    "total", [2**53 + 1, 10**309, 10**400], ids=["2**53+1", "1e309", "1e400"]
)
@pytest.mark.parametrize("suffix", ["csv", "json"])
@pytest.mark.parametrize(
    "command",
    [["test-modification"], ["test-modification", "--correct-degenerate"], ["agree"]],
    ids=["test-modification", "test-modification-corrected", "agree"],
)
def test_counts_above_2_53_exit_1(capsys, tmp_path, command, suffix, total):
    # a total past 2**53 is not an exact float, and past 1e308 no float at all
    text = COUNTS_CSV.replace("Q,control,1000,5000", f"Q,control,1000,{total}")
    if suffix == "json":
        counts = {"P": {}, "Q": {}}
        for stratum, group, events, n in (row.split(",") for row in text.split()[1:]):
            counts[stratum][group] = {"events": int(events), "total": int(n)}
        text = json.dumps({"counts": counts})
    path = tmp_path / f"counts.{suffix}"
    path.write_text(text)
    code, out, err = run_cli(capsys, command[0], "--in", str(path), *command[1:])
    assert code == 1
    assert err.startswith("error:") and "2**53" in err
    assert "Traceback" not in err


def test_modification_alpha_validation(capsys, tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(COUNTS_CSV)
    code, out, err = run_cli(
        capsys, "test-modification", "--in", str(path), "--alpha", "1.5"
    )
    assert code == 1


# ---------------------------------------------------------------------------
# case


def test_case_with_agreement(capsys):
    payload = run_json(capsys, "case", "covid")
    results = payload["results"]
    assert results["verified"] is True
    assert results["mismatches"] == []
    assert all(row["within_tolerance"] for row in results["expected"])
    assert results["agreement"]["agrees"] is False
    assert results["risks"]["P"]["control"] == 0.009


def test_case_single_pair_has_no_agreement_block(capsys):
    payload = run_json(capsys, "case", "hcv-a")
    assert "agreement" not in payload["results"]
    assert payload["results"]["verified"] is True


def test_case_unknown_name(capsys):
    code, out, err = run_cli(capsys, "case", "framingham")
    assert code == 1


# ---------------------------------------------------------------------------
# output plumbing


def test_out_writes_full_precision(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "measures", "--p1", "0.7", "--p2", "0.9", "--out", str(out_path)
    )
    assert code == 0
    assert out == ""  # silent on stdout when writing a file
    envelope = ReportEnvelope.from_json(out_path.read_text())
    assert envelope.command == "measures"
    assert envelope.results["strata"]["P"]["measures"]["RR"] == 0.9 / 0.7


@pytest.mark.parametrize("target", ["missing-dir/report.json", "."], ids=["missing", "dir"])
def test_out_that_cannot_be_written_exits_1(capsys, tmp_path, target):
    args = ("critical", "--p1", "0.1", "--p2", "0.2", "--p3", "0.3")
    code, out, err = run_cli(capsys, *args, "--out", str(tmp_path / target))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_simulate_out_carries_the_stream_layout(capsys, tmp_path):
    from concord.montecarlo import STREAM_LAYOUT

    args = ("simulate", "--trials", "1000", "--seed", "3")
    code, out, err = run_cli(capsys, *args)
    assert code == 0 and "provenance" not in json.loads(out)  # stdout as before
    out_path = tmp_path / "simulate.json"
    assert main([*args, "--out", str(out_path)]) == 0
    envelope = ReportEnvelope.from_json(out_path.read_text())
    assert envelope.provenance == {"stream_layout": STREAM_LAYOUT}
    assert ReportEnvelope.from_json(envelope.to_json()) == envelope


def test_version_and_help_exit_0(capsys):
    assert main(["--version"]) == 0
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_no_arguments_exits_1(capsys):
    assert main([]) == 1
    assert main(["not-a-command"]) == 1
    capsys.readouterr()


def test_entry_point_round_trip():
    # the same exit code path a console script user sees
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "from concord.cli import main; raise SystemExit(main(['--version']))",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "concord" in proc.stdout


# ---------------------------------------------------------------------------
# numpy loads only for simulate and exact

SRC = str(Path(concord.__file__).resolve().parent.parent)
LIGHT_COMMANDS = [
    ["agree", "--p1", "0.7", "--p2", "0.9", "--p3", "0.2", "--p4", "0.3"],
    ["measures", "--p1", "0.7", "--p2", "0.9"],
    ["critical", "--p1", "0.1", "--p2", "0.2", "--p3", "0.3"],
    ["window", "RR", "RR*", "--p1", "0.1", "--p2", "0.2", "--p3", "0.3"],
    ["case", "covid"],
    ["test-modification", "--in", "counts.csv"],
]


def run_python(cwd, *args):
    """A fresh interpreter in cwd, with this checkout's concord importable."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd
    )


@pytest.mark.parametrize("argv", LIGHT_COMMANDS, ids=lambda argv: argv[0])
def test_light_commands_do_not_load_numpy(tmp_path, argv):
    (tmp_path / "counts.csv").write_text(COUNTS_CSV)
    code = (
        "import sys, concord.cli; code = concord.cli.main(sys.argv[1:]); "
        "print('numpy' in sys.modules, file=sys.stderr); sys.exit(code)"
    )
    proc = run_python(tmp_path, "-c", code, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "False"


@pytest.mark.parametrize(
    "argv", [["simulate", "--trials", "1"], ["exact", "--resolution", "8"]], ids=lambda a: a[0]
)
def test_numpy_commands_run_from_a_cold_start(tmp_path, argv):
    proc = run_python(tmp_path, "-m", "concord.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == argv[0]
