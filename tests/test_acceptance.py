"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line."""

import json
import time
from fractions import Fraction

import numpy as np

import momentum_oracle as MO
from qstkit import causality as CA
from qstkit import cli
from qstkit import gauge as GA
from qstkit import hopf_algebra as HA
from qstkit import loop as LO
from qstkit import moyal_matrix as MM
from qstkit import twist as TW
from qstkit.liestructure import recover_from_group_law
from qstkit.momentum import (add_batch, group_preset, haar_invariance_check,
                             modular_identity_residuals)
from qstkit.polyfield import Poly
from qstkit.waves import WavePacket, concat, plane_wave, twisted_trace_check

PRESET_GROUPS = [
    ("kappa_minkowski d=1", dict(kappa=1.0, d=1), "kappa_minkowski"),
    ("kappa_minkowski d=3", dict(kappa=1.0, d=3), "kappa_minkowski"),
    ("moyal 4+1", dict(theta=1.0), "moyal_extended"),
    ("rho_minkowski", dict(rho=1.0), "rho_minkowski"),
    ("su2_lambda", dict(lam=1.0), "su2_lambda"),
]


def _groups():
    return [(label, group_preset(name, **kw)) for label, kw, name in PRESET_GROUPS]


def _report(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def test_acceptance_01_group_axioms():
    t0 = time.time()
    ok = True
    n = 10_000
    for label, g in _groups():
        rng = np.random.default_rng(101)
        scale = 0.3 if g.name == "su2_lambda" else 1.0
        P, Q, R = (rng.normal(size=(n, g.dim)) * scale for _ in range(3))
        lhs = add_batch(g, add_batch(g, P, Q), R)
        rhs = add_batch(g, P, add_batch(g, Q, R))
        rel = np.max(np.abs(lhs - rhs), axis=1) / (1.0 + np.max(np.abs(lhs), axis=1))
        ok &= float(np.max(rel)) < 1e-9
        ident = np.max(np.abs(add_batch(g, P, np.zeros_like(P)) - P))
        invr = np.max(np.abs(add_batch(g, P, g.inv(P))))
        ok &= float(ident) < 1e-12 and float(invr) < 1e-12 * (1 + float(np.max(np.abs(P))))
    runtime = time.time() - t0
    ok &= runtime < 5.0
    _report(1, f"group axioms, 1e4 triples per preset ({runtime:.2f}s)", ok)


def test_acceptance_02_structure_round_trip():
    ok = True
    for label, kw, name in PRESET_GROUPS:
        g = group_preset(name, **kw)
        if name in MO.HAND_DERIVED:
            C = MO.structure_from_hessian(MO.exact_hessian(g))  # hand-written Hessian
            ok &= float(np.max(np.abs(C - g.structure.C))) == 0.0
        rec_fd = recover_from_group_law(g)  # finite differences of the law
        ok &= float(np.max(np.abs(rec_fd.C - g.structure.C))) < 1e-6
    _report(2, "structure-constant round trip (symbolic exact, FD to 1e-6)", ok)


def test_acceptance_03_haar_modular():
    ok = True
    for label, g in _groups():
        rng = np.random.default_rng(103)
        scale = 0.3 if g.name == "su2_lambda" else 1.0
        worst_h = worst_m = 0.0
        for _ in range(1000):
            p = rng.normal(size=g.dim) * scale
            q = rng.normal(size=g.dim) * scale
            worst_h = max(worst_h, haar_invariance_check(g, q, p, "left"),
                          haar_invariance_check(g, q, p, "right"))
            worst_m = max(worst_m, *modular_identity_residuals(g, p, q).values())
        ok &= worst_h < 1e-8 and worst_m < 1e-10
    _report(3, "Haar pointwise invariance < 1e-8, modular identities < 1e-10", ok)


def test_acceptance_04_twisted_trace():
    t0 = time.time()
    rng = np.random.default_rng(104)
    gk = group_preset("kappa_minkowski", kappa=1.0, d=3)

    def packets(g):
        moms = [rng.normal(size=g.dim) for _ in range(3)]
        f = WavePacket(g, [(m, rng.normal() + 1j * rng.normal()) for m in moms])
        hm = [np.asarray(g.inv(m)) for m in moms] + [rng.normal(size=g.dim)]
        h = WavePacket(g, [(m, rng.normal() + 1j * rng.normal()) for m in hm])
        return f, h

    ok = all(twisted_trace_check(*packets(gk)) for _ in range(100))
    for name, kw in (("rho_minkowski", dict(rho=1.0)), ("moyal_extended", dict(theta=1.0))):
        g = group_preset(name, **kw)
        ok &= all(twisted_trace_check(*packets(g)) for _ in range(25))
    runtime = time.time() - t0
    ok &= runtime < 1.0
    _report(4, f"twisted trace symbolic, 100 kappa packets + unimodular cyclicity ({runtime:.2f}s)", ok)


def test_acceptance_05_hopf_suite():
    t0 = time.time()
    rep = HA.full_suite()
    ok = rep["passed"]
    ok &= "[P1,K1]" in rep["relations"]  # the E^2 / P_l P^l relation is covered
    runtime = time.time() - t0
    ok &= runtime < 10.0
    _report(5, f"kappa-Poincare Hopf suite exact, all generators and relations ({runtime:.2f}s)", ok)


def test_acceptance_06_twist_suite():
    F = TW.abelian_twist(4)
    chk = TW.twist_check(F)
    st = TW.twisted_structures(F)
    ok = chk["passed"] and st["triangular"] and st["quantum_yang_baxter"] \
        and st["braided_commutative"]
    _report(6, "abelian Drinfel'd twist: 2-cocycle/normalization/R-matrix checks to order 4", ok)


def test_acceptance_07_matrix_basis():
    ids = MM.identity_checks(32, 1.0)
    part = MM.partition_check(32, 1.0)
    ok = set(ids) == {"delta_rule", "involution", "orthonormality", "associativity"}
    ok &= all(v <= 1e-13 for v in ids.values()) and part["passed"]
    ok &= part["unity_reconstruction_error"] == 0.0
    _report(7, "matrix basis at N=32 exact to 1e-13; partition reconstruction error 0", ok)


def test_acceptance_08_commutative_reduction():
    asm = LO.TwoPointAssembly(group_preset("kappa_minkowski", kappa=1.0, d=3))
    co = asm.commutative_coefficients()
    ok = co["total"] == Fraction(1, 2) and co["planar"] == Fraction(1, 3)
    gm = group_preset("moyal_extended", theta=1.0, phase_convention="real")
    asm_m = LO.TwoPointAssembly(gm)
    mr = asm_m.moyal_reduction()
    ok &= mr["coefficient"] == Fraction(1, 6) and mr["planar_multiple"] == 2
    rng = np.random.default_rng(108)
    p = np.concatenate([rng.normal(size=4), [0.0]])
    k = np.concatenate([rng.normal(size=4), [0.0]])
    ok &= asm_m.nonplanar_phase_residual(p, k) < 1e-12
    _report(8, "two-point assembly collapses to 1/2 exactly and to the Moyal (2+phase)/6 form", ok)


def test_acceptance_09_bessel_ratio():
    t0 = time.time()
    rep = LO.bessel_oracle_compare(ms=(0.5, 1.0, 2.0), kappas=(0.5, 1.0, 2.0))
    runtime = time.time() - t0
    ok = rep["passed"] and rep["max_rel_dev"] < 1e-6 and runtime < 10.0
    _report(9, f"kappa-Minkowski Bessel ratio constant to 1e-6 over the grid ({runtime:.2f}s)", ok)


def test_acceptance_10_moyal_nonplanar():
    Theta = group_preset("moyal_extended", theta=1.0).meta["Theta"]
    r = LO.moyal_nonplanar(np.array([0.2, 0, 0, 0]), Theta, 1.0, 100.0)  # c = 0.01 + 1e-4
    ok = r["rel_err"] < 1e-6
    r2 = LO.moyal_nonplanar(np.array([1.0, 0, 0, 0]), Theta, 1.0, 10.0)
    ok &= r2["rel_err"] < 1e-6
    asym = LO.moyal_asymptotic_check(1.0, 1e-4)
    ok &= asym["within_2pct"]
    _report(10, "Moyal non-planar: Schwinger quadrature = K1 closed form to 1e-6; small-c asymptote within 2%", ok)


def test_acceptance_11_mixing_verdicts():
    t0 = time.time()
    ok = LO.mixing_classify("moyal").verdict == "MIXING"
    ok &= LO.mixing_classify("kappa", d=2).verdict == "NO_MIXING"
    ok &= LO.mixing_classify("kappa", d=3).verdict == "NO_MIXING"
    runtime = time.time() - t0
    ok &= runtime < 60.0
    _report(11, f"mixing verdicts: Moyal MIXING, kappa d=2,3 NO_MIXING ({runtime:.1f}s)", ok)


def test_acceptance_12_diagram_counts():
    ok = LO.diagram_counts("real_phi4") == {"total": 12, "planar": 8, "nonplanar": 4}
    ok &= LO.diagram_counts("charged_orientable") == {"total": 4, "planar": 4, "nonplanar": 0}
    ok &= LO.diagram_counts("charged_nonorientable") == {"total": 4, "planar": 2, "nonplanar": 2}
    _report(12, "diagram counts 12=8p+4np, 4/0 orientable, 2p+2np non-orientable", ok)


def test_acceptance_13_dimension_constraint():
    scan = GA.dimension_constraint_scan(range(1, 9), 1.0, [0.25, 0.5, 1.0, -0.75])
    ok = scan["zero_set"] == [4]
    ok &= all(dev > 0 for d, dev in scan["deviations"].items() if d != 4)
    ok &= scan["deviations"][4] == 0.0  # machine-exact
    _report(13, "gauge prefactor deviation-zero set over d in 1..8 is exactly {4}", ok)


def test_acceptance_14_gauge_checks():
    g = group_preset("kappa_minkowski", kappa=1.0, d=3)
    rng = np.random.default_rng(114)
    ok = True
    for _ in range(10):
        f = plane_wave(g, rng.normal(size=4), rng.normal() + 1j * rng.normal())
        h = plane_wave(g, rng.normal(size=4), rng.normal() + 1j * rng.normal())
        for mu in range(4):
            ok &= GA.twisted_leibniz_residual(mu, f, h) < 1e-12
            ok &= GA.twisted_reality_residual(mu, f + h) < 1e-12
    A0 = WavePacket.zero(g, 4)  # a gauge field is the stack of its four components
    for _ in range(5):
        u = plane_wave(g, rng.normal(size=4))
        F = GA.field_strength(GA.gauge_transform(A0, u))
        ok &= max(F.norm()) < 1e-12
        A = concat([plane_wave(g, rng.normal(size=4), rng.normal() + 1j * rng.normal())
                    for _ in range(4)])
        ok &= GA.covariance_residual(A, u) < 1e-12
    x = [Poly.var(4, i) for i in range(4)]
    A = GA.PolyGaugeField([x[1] * x[2], x[0] * x[0], x[3], x[0] * x[2]])
    alpha = x[0] * x[1] + x[2]
    Theta = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    ok &= all(r.is_zero() for r in GA.sw_consistency_residual(A, alpha, Theta))
    _report(14, "twisted Leibniz/reality/flatness/covariance < 1e-12; SW residual identically zero", ok)


def test_acceptance_15_causality():
    grid = CA.GridSpec(256, 10.0, "spectral")
    ok = True
    for v in (-1.0, -0.5, 0.0, 0.5, 1.0):
        r = CA.cone_condition(grid, 1.0, 1, 1.0, v, n_states=200, seed=115)
        ok &= r["margin"] >= -1e-8
    ax = CA.lorentzian_axiom_check(grid, 1.0)
    ok &= ax["I_squared_residual"] == 0.0 and ax["I_hermiticity_residual"] == 0.0
    r1 = CA.lorentzian_axiom_check(CA.GridSpec(128, 10.0, "central"), 1.0)["krein_residual"]
    r2 = CA.lorentzian_axiom_check(CA.GridSpec(256, 10.0, "central"), 1.0)["krein_residual"]
    ok &= r1 / r2 >= 2.0  # halves (at least) at the scheme order when n doubles
    psi = CA.gaussian_state(grid, 0.4, 1.0)
    t = 0.35
    psi2 = CA.normalize(psi * np.exp(1j * t * grid.points()), grid)
    ok &= abs(CA.sll_margin(psi, psi2, grid, 1.0) - t) < 1e-8
    _report(15, "cone PASS on v-grid; I axioms exact; Krein residual halves; sll margin = t to 1e-8", ok)


def test_acceptance_16_full_suite_deterministic():
    t0 = time.time()
    cfg = cli.RunConfig(seed=116)
    code1, rep1 = cli.run_suite("all", cfg)
    code2, rep2 = cli.run_suite("all", cli.RunConfig(seed=116))
    runtime = time.time() - t0
    b1 = json.dumps(rep1, sort_keys=True).encode()
    b2 = json.dumps(rep2, sort_keys=True).encode()
    ok = code1 == 0 and code2 == 0 and b1 == b2 and runtime < 120.0
    _report(16, f"run_suite all passes, byte-deterministic, {runtime:.1f}s (< 120s)", ok)
