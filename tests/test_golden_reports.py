"""Byte-for-byte golden reports of the CLI.

Each case in `CASES` is a command line whose stdout, stderr and exit code
are stored in `tests/golden/<name>.json`, together with the numpy version,
Python version and platform they were recorded on.  The test runs every
case through `cli.main(argv)` in this process, and the cases in `FRESH`
also through the console entry point in a fresh interpreter, so the import
path is covered too.  A mismatch prints each changed row (id, old and new
`passed`, residual and detail), or the first differing lines of a report
without rows, and names a changed numpy version; it never skips.

`python tests/golden/regenerate.py` rewrites the files from the working
tree.  A change that regenerates them lists every changed row, with its
reason, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import csv
import difflib
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

# name -> argv; "{golden}" stands for the directory of the stored files
CASES = {
    **{f"suite-all-seed{s}": ["suite", "all", "--seed", str(s)] for s in range(5)},
    "suite-all-seed0-csv": ["suite", "all", "--seed", "0", "--format", "csv"],
    "hopf-check": ["hopf", "check"],
    "hopf-check-csv": ["hopf", "check", "--format", "csv"],
    "suite-hopf": ["suite", "hopf"],
    "suite-twist": ["suite", "twist"],
    "suite-gauge": ["suite", "gauge"],
    "gauge-sw": ["gauge", "sw"],
    "gauge-sw-input": ["gauge", "sw", "--input", "{golden}/sw_field.json"],
    "gauge-dim-scan": ["gauge", "dim-scan"],
    **{f"suite-all-{name}{'-csv' * csv}": ["suite", "all", flag, value, *["--format", "csv"] * csv]
       for name, flag, value in (("kappa0.5", "--kappa", "0.5"), ("kappa2", "--kappa", "2"),
                                 ("theta1e3", "--theta", "1e3"))
       for csv in (False, True)},
    "causality": ["causality"],
    "causality-csv": ["causality", "--format", "csv"],
    **{f"loop-mixing-{space}": ["loop", "mixing", "--space", space]
       for space in ("moyal", "kappa", "commutative")},
    "loop-bessel-check": ["loop", "bessel-check"],
    "loop-bessel-check-csv": ["loop", "bessel-check", "--format", "csv"],
    **{f"loop-mixing-moyal-{name}": ["loop", "mixing", "--space", "moyal", flag, value]
       for name, flag, value in (("theta1e3", "--theta", "1e3"), ("theta1e-3", "--theta", "1e-3"),
                                 ("mass0", "--mass", "0"))},
    "group-delta-solve-kappa": ["group", "delta-solve", "--d", "3", "--p=0.5,1,0.2,0",
                                "--q=-0.5,0,0.3,1", "--k0=0.25"],
    "group-delta-solve-rho": ["group", "delta-solve", "--space", "rho_minkowski",
                              "--p=0.9,0.4,-0.3,0.2",
                              "--q=-0.9,-0.01364591442002075,0.4998137543321927,-0.2", "--k0=0.3"],
    "group-delta-solve-su2": ["group", "delta-solve", "--space", "su2_lambda", "--p=0.1,0.2,0.3",
                              "--q=-0.1,-0.2,-0.3"],
    **{f"group-{op}-inline": ["--config", "{golden}/inputs/su2-structure.json", "group", op,
                              "--space", "inline", "--p=0.1,0.2,-0.3", *["--q=0.4,-0.1,0.2"] * q]
       for op, q in (("add", True), ("inv", False), ("haar-check", True))},
    # each named preset's law, inverse and Haar weights, at non-default parameters
    # (rho and lambda come from a config file: they have no flag)
    **{f"group-{op}-{name}": [*flags, "group", op, "--space", space, f"--p={p}",
                              *[f"--q={q}"] * (op != "inv")]
       for name, space, flags, p, q in (
           ("kappa-d1", "kappa_minkowski", ["--d", "1", "--kappa", "0.7"], "0.3,-0.7", "1.1,0.4"),
           ("kappa-d3", "kappa_minkowski", ["--d", "3", "--kappa", "0.7"],
            "0.3,-0.7,0.2,0.5", "1.1,0.4,-0.6,0.25"),
           ("moyal", "moyal_extended", ["--theta", "0.4"],
            "0.3,-0.7,0.2,0.5,0.1", "1.1,0.4,-0.6,0.25,-0.3"),
           ("rho", "rho_minkowski", ["--config", "{golden}/inputs/rho-lam.json"],
            "0.3,-0.7,0.2,0.5", "1.1,0.4,-0.6,0.25"),
           ("su2", "su2_lambda", ["--config", "{golden}/inputs/rho-lam.json"],
            "0.1,0.2,-0.3", "0.4,-0.1,0.2"),
           ("commutative", "commutative", [], "0.3,-0.7,0.2,0.5", "1.1,0.4,-0.6,0.25"))
       for op in ("add", "inv", "haar-check")},
    # --d reaches the commutative group too: d spatial dimensions, so dim d + 1
    "group-add-commutative-d1": ["--d", "1", "group", "add", "--space", "commutative",
                                 "--p=0.1,0.2", "--q=0.3,0.4"],
    "group-modular-kappa-d3": ["--d", "3", "--kappa", "0.7", "group", "modular",
                               "--p=0.3,-0.7,0.2,0.5"],
    "matrix-basis-N8-seed5": ["matrix-basis", "--N", "8", "--seed", "5"],
    "matrix-basis-N1": ["matrix-basis", "--N", "1"],
    "matrix-basis-N64-seed3": ["matrix-basis", "--N", "64", "--seed", "3"],
    "matrix-basis-N256-seed2-csv": ["matrix-basis", "--N", "256", "--seed", "2", "--format", "csv"],
    "causality-v-sweep": ["causality", "--v=-1:1:0.25", "--grid", "512"],
    # exit 2: the spectral causality grid refuses kappa = 0.3, a bad config value, a bad field
    "suite-all-kappa0.3": ["suite", "all", "--kappa", "0.3"],
    "config-bad-value": ["--config", "{golden}/inputs/bad-kappa.json", "suite", "group"],
    "gauge-sw-bad-input": ["gauge", "sw", "--input", "{golden}/inputs/bad-field.json"],
    # exit 1: failing rows.  A zero tolerance fails even the rows that read exactly 0.0,
    # since a tolerance is a strict bound; INCONCLUSIVE mixing rows fail; a structure
    # that breaks Jacobi ([x0,x1] = [x0,x2] = i x1, [x1,x2] = i x0) fails its row
    "suite-all-tol0-csv": ["suite", "all", "--format", "csv",
                           *(f"--tol-override={key}=0" for key in (
                               "group.assoc", "group.identity", "group.haar", "group.modular",
                               "gauge.residual"))],
    "loop-mixing-kappa0.1": ["loop", "mixing", "--space", "kappa", "--kappa", "0.1"],
    "suite-group-non-jacobi": ["--config", "{golden}/inputs/non-jacobi-structure.json",
                               "suite", "group"],
}
FRESH = ("suite-all-seed0", "gauge-sw-input")

_ENTRY = "import sys; from qstkit.cli import main; sys.exit(main(sys.argv[1:]))"


def argv_of(name: str) -> list:
    return [a.replace("{golden}", str(GOLDEN)) for a in CASES[name]]


def run_in_process(name: str) -> dict:
    from qstkit import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv_of(name))
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def run_fresh(name: str) -> dict:
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _ENTRY, *argv_of(name)], env=env, cwd=ROOT,
                          capture_output=True, timeout=120)
    # bytes decoded by hand: text mode would turn the CSV's \r\n into \n
    return {"stdout": proc.stdout.decode(), "stderr": proc.stderr.decode(), "exit": proc.returncode}


def environment() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version(),
            "platform": platform.platform()}


def load(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text())


def _rows(text: str) -> dict:
    """The report rows of a JSON or CSV report by (suite, check); {} for a report without rows.

    A JSON `rows` list whose entries are not all report rows, such as the
    measurements of `loop bessel-check`, counts as no rows.
    """
    try:
        rows = json.loads(text).get("rows")
    except (ValueError, AttributeError):
        rows = list(csv.DictReader(io.StringIO(text))) if text.startswith("suite,check,") else None
    if not (isinstance(rows, list) and all(isinstance(r, dict) and {"suite", "check"} <= r.keys()
                                           for r in rows)):
        return {}
    return {(r["suite"], r["check"]): r for r in rows}


def explain(name: str, want: dict, got: dict) -> str:
    """What differs between a stored case and a fresh run, row by row where there are rows."""
    lines = [f"golden case {name!r} ({' '.join(CASES[name])}) differs:"]
    env = environment()
    if want["numpy"] != env["numpy"]:
        lines.append(f"  numpy changed: recorded with {want['numpy']}, running {env['numpy']}")
    if want["exit"] != got["exit"]:
        lines.append(f"  exit code {want['exit']} -> {got['exit']}")
    if want["stderr"] != got["stderr"]:
        lines.append(f"  stderr {want['stderr']!r} -> {got['stderr']!r}")
    if want["stdout"] != got["stdout"]:
        old, new = _rows(want["stdout"]), _rows(got["stdout"])
        changed = [k for k in [*old, *(k for k in new if k not in old)] if old.get(k) != new.get(k)]
        for key in changed:
            show = [(r["passed"], r["residual"], r["detail"]) if r else None
                    for r in (old.get(key), new.get(key))]
            lines.append(f"  row {key[0]}/{key[1]}: (passed, residual, detail) "
                         f"{show[0]} -> {show[1]}")
        if not changed:  # a report without rows, or a change outside them
            diff = difflib.unified_diff(want["stdout"].splitlines(), got["stdout"].splitlines(),
                                        "golden", "now", n=1, lineterm="")
            lines += ["  " + ln for ln in list(diff)[:40]]
    return "\n".join(lines)


def _same(want: dict, got: dict) -> bool:
    return all(want[k] == got[k] for k in ("stdout", "stderr", "exit"))


def test_explain_shows_lines_of_rows_that_are_not_report_rows():
    # `loop bessel-check` keeps its measurements under `rows`: no suite, no check
    want = {"numpy": environment()["numpy"], "exit": 0, "stderr": "",
            "stdout": json.dumps({"rows": [{"d": 2, "ratio": 0.5}]}, indent=1)}
    got = {**want, "stdout": json.dumps({"rows": [{"d": 2, "ratio": 0.25}]}, indent=1)}
    lines = explain("loop-bessel-check", want, got).splitlines()
    assert '  -   "ratio": 0.5' in lines and '  +   "ratio": 0.25' in lines


def test_every_case_is_stored():
    assert sorted(p.stem for p in GOLDEN.glob("*.json") if p.stem != "sw_field") == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    want, got = load(name), run_in_process(name)
    assert _same(want, got), explain(name, want, got)


@pytest.mark.parametrize("name", FRESH)
def test_fresh_process_report_matches_golden(name):
    want, got = load(name), run_fresh(name)
    assert _same(want, got), explain(name, want, got)
