"""kernel_scale: few, large calls, each at a size where the kernel's cost dominates.

One pass makes one call to each operation below, in-process and warm.  The
star product is quadratic in output terms and the dense causality
operators grow cubically in n, so a change that trades small-input overhead
for large-input speed shows here against verify_suites.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

import checks
from common import median, peak_rss_mb

IN_PROCESS = True
ROWS = 10 ** 6
PRESETS = {"kappa_minkowski": {"d": 3}, "moyal_extended": {}, "rho_minkowski": {}, "su2_lambda": {}}
SU2_SCALE = 0.3  # keeps every su2 row and their sums inside the injectivity ball
SAMPLED_ROWS = 1000
STAR_TERMS = 20
TRACE_TERMS = 200
MATRIX_N = 256
GRID_N = 1024
LAWS = {"kappa_minkowski": checks.kappa_add, "moyal_extended": checks.moyal_add,
        "rho_minkowski": checks.rho_add}
# per-layer metric -> the pass operations it times
OP_METRICS = {"waves.star_s": ("star",), "waves.twisted_trace_s": ("twisted_trace_check",),
              "hopf_algebra.full_suite_s": ("full_suite",),
              "twist.order6_s": ("twist_check", "twisted_structures"),
              "moyal_matrix.n256_s": ("identity_checks", "partition_check"),
              "causality.axiom_n1024_s": ("lorentzian_axiom_check",),
              "causality.cone_n1024_s": ("cone_condition",),
              "loop.mixing_kappa_s": ("mixing_classify",)}


def _packet(W, g, moms, rng):
    amps = rng.normal(size=len(moms)) + 1j * rng.normal(size=len(moms))
    return W.WavePacket(g, list(zip(moms, amps))), amps


class Workload:
    def __init__(self, seed):
        from qstkit import causality, hopf_algebra, loop, momentum, moyal_matrix, twist, waves
        self.M, self.W, self.HA, self.TW = momentum, waves, hopf_algebra, twist
        self.MM, self.CA, self.LO = moyal_matrix, causality, loop
        rng = np.random.default_rng(seed % 2 ** 32)
        self.groups = {name: momentum.group_preset(name, **kw) for name, kw in PRESETS.items()}
        self.rows = {}
        for name, g in self.groups.items():
            scale = SU2_SCALE if name == "su2_lambda" else 1.0
            self.rows[name] = tuple(rng.normal(size=(ROWS, g.dim)) * scale for _ in range(2))
        self.sample = rng.choice(ROWS, SAMPLED_ROWS, replace=False)
        self.su2_third = rng.normal(size=(SAMPLED_ROWS, 3)) * SU2_SCALE

        g = self.groups["kappa_minkowski"]
        self.F, self.G = rng.normal(size=(STAR_TERMS, 4)), rng.normal(size=(STAR_TERMS, 4))
        self.f, self.Fa = _packet(waves, g, self.F, rng)
        self.h, self.Ga = _packet(waves, g, self.G, rng)
        # half of the second packet inverts momenta of the first, so words land on the support
        T = rng.normal(size=(TRACE_TERMS, 4))
        U = np.vstack([checks.kappa_inv(T[:TRACE_TERMS // 2]),
                       rng.normal(size=(TRACE_TERMS - TRACE_TERMS // 2, 4))])
        self.tf, _ = _packet(waves, g, T, rng)
        self.tg, _ = _packet(waves, g, U, rng)
        self.twist6 = twist.abelian_twist(6)
        self.grid = causality.GridSpec(GRID_N, 10.0, "spectral")
        self.beta = float(rng.uniform(-1.0, 1.0))
        self.seeds = [int(s) for s in rng.integers(2 ** 31, size=3)]
        self.warm_errors = self.check(self.run_pass())[2]

    def run_pass(self, traced=False):
        ops, out = {}, {}

        @contextmanager
        def timed(kind):
            t0 = time.perf_counter()
            yield
            ops[kind] = time.perf_counter() - t0

        M, W = self.M, self.W
        for name, (P, Q) in self.rows.items():
            with timed(f"add_batch.{name}"):
                out[name] = M.add_batch(self.groups[name], P, Q)
        with timed("star"):
            out["star"] = W.star(self.f, self.h)
        with timed("twisted_trace_check"):
            out["twisted"] = W.twisted_trace_check(self.tf, self.tg)
        with timed("full_suite"):
            out["hopf"] = self.HA.full_suite()
        with timed("twist_check"):
            out["twist"] = self.TW.twist_check(self.twist6)
        with timed("twisted_structures"):
            out["structures"] = self.TW.twisted_structures(self.twist6)
        with timed("identity_checks"):
            out["ids"] = self.MM.identity_checks(MATRIX_N, 1.0, seed=self.seeds[0])
        with timed("partition_check"):
            out["part"] = self.MM.partition_check(MATRIX_N, 1.0, seed=self.seeds[0])
        with timed("lorentzian_axiom_check"):
            out["axiom"] = self.CA.lorentzian_axiom_check(self.grid, 1.0, seed=self.seeds[1])
        with timed("cone_condition"):
            out["cone"] = self.CA.cone_condition(self.grid, 1.0, 1, 1.0, self.beta,
                                                 n_states=200, seed=self.seeds[2])
        with timed("mixing_classify"):
            out["mixing"] = self.LO.mixing_classify("kappa", d=3)
        return {"ops": ops, "out": out}

    def _check_su2(self, R):
        M, g = self.M, self.groups["su2_lambda"]
        P, Q = self.rows["su2_lambda"]
        res = float(np.max(checks.su2_scalar_residual(P, Q, R)))
        errs = checks.expect(f"add_batch su2: scalar-part residual {res:.3g}", res <= checks.LAW_TOL)
        p, q, r = P[self.sample], Q[self.sample], self.su2_third
        lhs = M.add_batch(g, M.add_batch(g, p, q), r)
        rhs = M.add_batch(g, p, M.add_batch(g, q, r))
        errs += checks.expect_close("add_batch su2 associativity", lhs, rhs, 1e-11)
        return errs + checks.expect_close("add_batch su2 inverse", M.add_batch(g, p, -p),
                                          np.zeros_like(p))

    def check(self, res):
        out = res["out"]
        errs = []
        for name, law in LAWS.items():
            errs += checks.expect_close(f"add_batch {name}", out[name], law(*self.rows[name]))
        errs += self._check_su2(out["su2_lambda"])
        errs += checks.check_star(out["star"].terms, self.F, self.Fa, self.G, self.Ga)
        errs += checks.expect("twisted trace check on 200-term packets", out["twisted"] is True)
        errs += checks.check_hopf(out["hopf"])
        tw, st = out["twist"], out["structures"]
        errs += checks.expect("twist order 6: cocycle, normalization or semiclassical",
                              tw["passed"] is True and all(x is True for x in tw["two_cocycle_by_order"]))
        errs += checks.expect("twist order 6: triangularity, Yang-Baxter or braided commutativity",
                              all(st[k] is True for k in
                                  ("triangular", "quantum_yang_baxter", "braided_commutative")))
        errs += checks.check_matrix(out["ids"], out["part"], MATRIX_N)
        errs += checks.check_causality(out["axiom"], out["cone"]["margin"])
        errs += checks.check_mixing("kappa", out["mixing"].verdict)
        return len(res["ops"]), 0, errs

    def peak_rss_mb(self):
        return peak_rss_mb()

    def layer_metrics(self, plain, traced):
        out = {f"momentum.add_batch_rows_per_s.{name}":
               ROWS / median([r["ops"][f"add_batch.{name}"] for r in plain]) for name in PRESETS}
        for metric, kinds in OP_METRICS.items():
            out[metric] = median([sum(r["ops"][k] for k in kinds) for r in plain])
        return out
