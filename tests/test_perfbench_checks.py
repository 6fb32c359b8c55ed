"""The benchmark's own output checks, run in tier-1.

`perfbench/` judges each output it times with its `checks.py`, computed apart
from the program.  These tests run the same checks in this process, so a
change to a document they read shows here rather than only in a benchmark
run: every one-shot command of `wl_cli` through `cli.main`, the warm
`verify_suites` pass, and the negative controls, each of which must reject
its deliberately wrong output.  The harness files are imported, not copied.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from qstkit import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import checks
        import wl_cli
        import wl_suites
    finally:
        sys.path.remove(str(PERFBENCH))
    return checks, wl_cli, wl_suites


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cli_oneshot_outputs_pass_their_checks(harness, seed):
    _, wl_cli, _ = harness
    for kind, argv, check in wl_cli.commands(np.random.default_rng(seed)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert check(out.getvalue(), err.getvalue(), code) == [], kind


def test_verify_suites_pass_is_correct(harness):
    _, _, wl_suites = harness
    assert wl_suites.Workload(0).warm_errors == []


def test_negative_controls_reject_their_wrong_outputs(harness):
    checks, _, _ = harness
    assert checks.negative_controls() == []
