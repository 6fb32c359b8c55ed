"""cli_oneshot: each command in a fresh `python -m qstkit.cli` process.

One pass runs the fixed mix below, one command at a time.  Apart from
`hopf check`, each command does milliseconds of work behind about a second
of interpreter start and imports, so an import change moves this workload
and a kernel change should not.  The last command gives `group add` a `--q`
shorter than the group's dimension; it must exit 2 with a one-line message,
and it is counted as failed for as long as the CLI accepts it.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

import checks
from common import HERE, OUT, median, run_child

IN_PROCESS = False
TRACE_CHILD = os.path.join(HERE, "trace_child.py")


def _vec(v):
    return ",".join(repr(float(x)) for x in v)


def commands(rng):
    """The pass: (kind, CLI arguments, check of (stdout, stderr, exit code))."""
    p, q = rng.normal(size=4), rng.normal(size=4)
    ps, qs = rng.normal(size=3) * 0.5, rng.normal(size=3) * 0.5
    pm = rng.normal(size=4)
    pd, qd = rng.normal(size=4), rng.normal(size=4)
    pd[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0)
    qd[0] = -pd[0]
    k0 = float(rng.uniform(-0.5, 0.5))
    mseed = int(rng.integers(2 ** 31))
    grid = [float(x) for x in np.round(rng.uniform(0.5, 2.0, size=3), 3)]
    kappa = float(np.round(rng.uniform(0.5, 2.0), 3))
    p_short, q_short = rng.normal(size=4), rng.normal(size=2)

    def ok_json(check):
        def run(out, err, rc):
            if rc != 0:
                return [f"exit {rc}: {err.strip()[-300:]}"]
            return check(json.loads(out))
        return run

    def kappa_add(rep):
        return checks.expect_close("group add kappa", np.array(rep["result"]),
                                   checks.kappa_add(p, q)[0])

    def su2_add(rep):
        r = np.array(rep["result"])
        if r.shape != (3,):
            return [f"group add su2: result shape {r.shape}"]
        res = float(checks.su2_scalar_residual(ps[None], qs[None], r[None])[0])
        return checks.expect(f"group add su2: scalar-part residual {res:.3g}", res <= checks.LAW_TOL)

    def modular(rep):
        return checks.expect_close("group modular", rep["result"], checks.kappa_modular(pm, 3))

    def delta_solve(rep):
        return checks.check_delta_solve(rep["result"], pd, qd, k0, rep["ok"])

    def matrix(rep):
        return (checks.check_matrix(rep["identities"], rep["partition"], 32)
                + checks.expect("matrix-basis: N or passed flag", rep["N"] == 32 and rep["passed"] is True))

    def short_q(out, err, rc):
        # a usage error: exit 2, one line on stderr, nothing on stdout
        return [] if rc == 2 and not out and len(err.strip().splitlines()) == 1 else None

    return [
        ("group_add_kappa", ["group", "add", "--space", "kappa_minkowski", "--d", "3",
                             f"--p={_vec(p)}", f"--q={_vec(q)}"], ok_json(kappa_add)),
        ("group_add_su2", ["group", "add", "--space", "su2_lambda",
                           f"--p={_vec(ps)}", f"--q={_vec(qs)}"], ok_json(su2_add)),
        ("group_modular", ["group", "modular", "--space", "kappa_minkowski", "--d", "3",
                           f"--p={_vec(pm)}"], ok_json(modular)),
        ("group_delta_solve", ["group", "delta-solve", "--d", "3", f"--p={_vec(pd)}",
                               f"--q={_vec(qd)}", f"--k0={k0!r}"], ok_json(delta_solve)),
        ("hopf_check", ["hopf", "check"], ok_json(checks.check_hopf)),
        ("matrix_basis", ["matrix-basis", "--N", "32", "--seed", str(mseed)], ok_json(matrix)),
        ("loop_bessel_check", ["loop", "bessel-check", "--grid", _vec(grid)],
         ok_json(lambda rep: checks.check_bessel(rep, grid))),
        ("gauge_dim_scan", ["gauge", "dim-scan", "--d-range", "1:8", "--kappa", repr(kappa)],
         ok_json(lambda rep: checks.check_dim_scan(rep, kappa))),
        ("group_add_short_q", ["group", "add", "--space", "kappa_minkowski", "--d", "3",
                               f"--p={_vec(p_short)}", f"--q={_vec(q_short)}"], short_q),
    ]


class Workload:
    def __init__(self, seed):
        self.cmds = commands(np.random.default_rng(seed % 2 ** 32))
        self.peak_mb = 0.0
        kind, argv, check = self.cmds[0]
        rc, out, err, _ = self._run(kind, argv, traced=False)
        self.warm_errors = [f"warm-up {kind}: {e}" for e in check(out, err, rc) or []]

    def _run(self, kind, argv, traced):
        if traced:
            cmd = [sys.executable, TRACE_CHILD, self._span_path(kind), *argv]
        else:
            cmd = [sys.executable, "-m", "qstkit.cli", *argv]
        rc, out, err, wall, peak = run_child(cmd, tag="cli")
        self.peak_mb = max(self.peak_mb, peak)
        return rc, out, err, wall

    @staticmethod
    def _span_path(kind):
        return os.path.join(OUT, f"trace-cli_oneshot-{kind}.json.gz")

    def run_pass(self, traced=False):
        ops, outs = {}, {}
        for kind, argv, _ in self.cmds:
            rc, out, err, ops[kind] = self._run(kind, argv, traced)
            outs[kind] = (out, err, rc)
        return {"ops": ops, "out": outs}

    def trace_summary(self):
        """Spans of the last traced pass, merged over its commands."""
        import spans
        return spans.merge(spans.load_summary(self._span_path(kind)) for kind, _, _ in self.cmds)

    def check(self, res):
        errors, failed = [], 0
        for kind, _, check in self.cmds:
            errs = check(*res["out"][kind])
            if errs is None:
                failed += 1
            else:
                errors += [f"{kind}: {e}" for e in errs]
        return len(self.cmds), failed, errors

    def peak_rss_mb(self):
        return self.peak_mb

    def layer_metrics(self, plain, traced):
        return {f"cli.cmd.{kind}_s": median([r["ops"][kind] for r in plain])
                for kind, _, _ in self.cmds}
