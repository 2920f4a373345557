"""Answer drift across Python versions for the commands that need no numpy.

Usage, from anywhere in a source checkout:

    python tests/cross_python_drift.py [PYTHON ...]

Runs the numpy-free commands of the CI answer-drift step (`case`, `agree`,
`window`, `critical`, `measures`, `test-modification` and each
subcommand's `--help`, all at `--digits 17`) under each interpreter, with
the checkout's src/ on PYTHONPATH, and diffs every interpreter's stdout,
stderr and exit codes against those of Python 3.11. With no arguments it
runs every `$PYENV_ROOT/versions/*/bin/python` (PYENV_ROOT defaults to
~/.pyenv); interpreters older than 3.10, which the package does not
support, are skipped. Exit status 0 when all agree, 1 on a difference, 2
when no 3.11 interpreter is given or found.

`simulate` and `exact` need numpy, which such interpreters often lack, so
they are not run; `test_light_commands_do_not_load_numpy` checks that the
commands here never import it. pytest does not collect this file, and no
test depends on the interpreters it finds.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE = "3.11"
OLDEST = (3, 10)  # requires-python in pyproject.toml
COUNTS = (
    "stratum,group,events,total\n"
    "P,control,12,80\nP,exposed,30,90\nQ,control,7,150\nQ,exposed,21,140\n"
)
NEAR_ONE = ["--p1", "0.9999999999999", "--p2", "0.99999999999995", "--p3", "0.9999999999998"]
TINY = ["--p1", "1e-300", "--p2", "0.5", "--p3", "1e-300"]


def commands(counts: str) -> list[list[str]]:
    """The CI drift step's commands that run without numpy, in its order."""
    return [
        *(["case", fixture] for fixture in ("table1", "hcv-a", "hcv-b", "melanoma", "covid")),
        ["agree", "--p1", "0.7", "--p2", "0.9", "--p3", "0.2", "--p4", "0.3"],
        ["agree", "--p1", "0", "--p2", "0.3", "--p3", "0", "--p4", "0.5"],
        ["window", "--p1", "0.1", "--p2", "0.2", "--p3", "0.3", "RR", "RR*"],
        ["critical", "--p1", "0.1", "--p2", "0.2", "--p3", "0.3"],
        ["critical", *TINY],
        ["critical", *NEAR_ONE],
        ["window", *NEAR_ONE, "HR", "HR*"],
        ["window", *TINY, "OR", "RD"],
        ["measures", "--p1", "0.1", "--p2", "0.2"],
        ["measures", "--p1", "0.1", "--p2", "0.2", "--p3", "0.3", "--p4", "0.5"],
        ["measures", "--p1", "0", "--p2", "0.3"],
        ["agree", "--in", counts],
        ["test-modification", "--in", counts],
        ["test-modification", "--in", counts, "--correct-degenerate"],
        *([command, "--help"] for command in (
            "measures", "agree", "critical", "window", "simulate", "exact",
            "test-modification", "case")),
    ]  # fmt: skip


def version(python: str) -> str:
    code = "import sys; print('%d.%d.%d' % sys.version_info[:3])"
    run = subprocess.run([python, "-c", code], capture_output=True, text=True, check=True)
    return run.stdout.strip()


def transcript(python: str, argvs: list[list[str]]) -> list[str]:
    """Each command's stdout, stderr and exit code, as lines."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    lines = []
    for argv in argvs:
        run = subprocess.run(
            [python, "-m", "concord.cli", *argv, "--digits", "17"],
            capture_output=True, text=True, env=env, timeout=60,
        )  # fmt: skip
        lines += [f"$ concord {' '.join(argv)}\n", *run.stdout.splitlines(keepends=True)]
        lines += ["--- stderr\n", *run.stderr.splitlines(keepends=True)]
        lines += [f"--- exit {run.returncode}\n"]
    return lines


def main(pythons: list[str]) -> int:
    if not pythons:
        root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
        pythons = sorted(str(path) for path in root.glob("versions/*/bin/python"))
    versions = {}
    for python in pythons:
        name = version(python)
        if tuple(map(int, name.split("."))) < OLDEST:
            print(f"{name} ({python}): skipped, older than requires-python")
        else:
            versions[python] = name
    reference = next((p for p, name in versions.items() if name.startswith(REFERENCE + ".")), None)
    if reference is None:
        print(f"no Python {REFERENCE} among {pythons}", file=sys.stderr)
        return 2
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        counts = Path(tmp) / "counts.csv"
        counts.write_text(COUNTS)
        argvs = commands(str(counts))
        expected = transcript(reference, argvs)
        for python, name in versions.items():
            got = transcript(python, argvs)
            diff = list(difflib.unified_diff(expected, got, versions[reference], name))
            print(f"{name} ({python}): {len(argvs)} commands,",
                  f"{len(diff)} diff lines" if diff else "identical")  # fmt: skip
            sys.stdout.writelines(diff)
            status |= bool(diff)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
