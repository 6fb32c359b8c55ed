import itertools
import math
import types
from fractions import Fraction

import numpy as np
import pytest

from loop_oracle import kappa_nonplanar_quad
from qstkit import cli, loop as L
from qstkit.momentum import group_preset


@pytest.fixture(scope="module")
def kappa3():
    return group_preset("kappa_minkowski", kappa=1.0, d=3)


def test_propagator_sweep_commutative_divergent():
    g = group_preset("commutative", dim=4)
    sweep = L.propagator_sweep(g, 1.0, np.geomspace(10, 1e4, 8))
    assert sweep["verdict"] == "divergent"
    assert sweep["slope"] == pytest.approx(2.0, abs=0.05)  # quadratic growth


def test_propagator_sweep_kappa_convergent():
    g = group_preset("kappa_minkowski", kappa=1.0, d=3)
    sweep = L.propagator_sweep(g, 1.0, np.geomspace(10, 1e4, 8))
    assert sweep["verdict"] == "convergent"


def test_propagator_large_mass_vanishes():
    g = group_preset("kappa_minkowski", kappa=1.0, d=3)
    vals = []
    for m in (1.0, 10.0, 100.0):
        vals.append(L.propagator_integral(g, m, 1e3)["value"])
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-20


def test_bessel_closed_form_instance():
    from scipy import special
    v = L.kmink_bessel_closed_form(1.0, 1.0, 3)
    assert v == pytest.approx(4 * math.pi * (4 * math.pi / 3) * special.kv(1, 1.5))


def test_bessel_ratio_constancy():
    rep = L.bessel_oracle_compare()
    assert rep["passed"]
    assert rep["max_rel_dev"] < 1e-6
    # the Wick normalization constant is exactly 1/2, independent of d
    for d, ratio in rep["ratios"].items():
        assert ratio == pytest.approx(0.5, rel=1e-8)


def test_bessel_decay_large_mass():
    assert L.kmink_bessel_closed_form(50.0, 1.0, 3) < 1e-20


def test_moyal_nonplanar_quad_vs_closed():
    Theta = group_preset("moyal_extended", theta=1.0).meta["Theta"]
    r = L.moyal_nonplanar(np.array([1.0, 0, 0, 0]), Theta, 1.0, 100.0)
    assert r["rel_err"] < 1e-6
    r2 = L.moyal_nonplanar(np.array([0.1, 0, 0, 0]), Theta, 1.0, 10.0)  # c = 1e-2 + 1e-2-ish
    assert r2["rel_err"] < 1e-6


def test_moyal_nonplanar_limits():
    Theta = group_preset("moyal_extended", theta=1.0).meta["Theta"]
    # p = 0: c = 1/Lambda^2, planar-like divergence as Lambda grows
    vals = [L.moyal_nonplanar(np.zeros(4), Theta, 1.0, Lam)["closed_form"]
            for Lam in (10.0, 100.0, 1000.0)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 1e5
    # p != 0: finite limit with Lambda_eff^2 -> 4/(p Theta)^2
    vals = [L.moyal_nonplanar(np.array([1.0, 0, 0, 0]), Theta, 1.0, Lam)
            for Lam in (1e3, 1e6)]
    assert vals[0]["closed_form"] == pytest.approx(vals[1]["closed_form"], rel=1e-4)
    assert vals[1]["Lambda_eff2"] == pytest.approx(4.0, rel=1e-5)


def test_moyal_asymptotic_small_c():
    r = L.moyal_asymptotic_check(1.0, 1e-4)
    assert r["within_2pct"]
    r2 = L.moyal_asymptotic_check(1.0, 1e-6)
    assert abs(r2["ratio"] - 1) < abs(r["ratio"] - 1)


def test_two_point_commutative_reduction(kappa3):
    co = L.TwoPointAssembly(kappa3).commutative_coefficients()
    assert co["planar"] == Fraction(1, 3)
    assert co["nonplanar"] == Fraction(1, 6)
    assert co["total"] == Fraction(1, 2)


def test_two_point_moyal_reduction():
    asm = L.TwoPointAssembly(group_preset("moyal_extended", theta=1.0, phase_convention="real"))
    mr = asm.moyal_reduction()
    assert mr["coefficient"] == Fraction(1, 6)
    assert mr["planar_multiple"] == Fraction(2)
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = np.concatenate([rng.normal(size=4), [0.0]])
        k = np.concatenate([rng.normal(size=4), [0.0]])
        assert asm.nonplanar_phase_residual(p, k) < 1e-12


def test_two_point_kappa_planar_factor(kappa3):
    # the planar polynomial is (1 + D(q))(3 + D(k)), with D the kappa modular function
    rng = np.random.default_rng(3)
    for q, k in rng.normal(size=(5, 2, 4)):
        dq, dk = kappa3.modular(q), kappa3.modular(k)
        weight = sum(float(c) * dq ** a * dk ** b
                     for (a, b), c in L.TwoPointAssembly.planar_poly.items())
        assert weight == pytest.approx((1 + dq) * (3 + dk), rel=1e-14)
    assert dq == pytest.approx(math.exp(3 * q[0]))  # Delta(q) = e^{d q0 / kappa}


@pytest.mark.parametrize("theta", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_nonplanar_phase_residual_is_rounding_at_any_theta(theta):
    asm = L.TwoPointAssembly(group_preset("moyal_extended", theta=theta, phase_convention="real"))
    p, k = np.random.default_rng(2).normal(size=(2, 2000, 5)) * [1, 1, 1, 1, 0]
    assert np.max(asm.nonplanar_phase_residual(p, k)) < 1e-14
    # the Weyl phase -(1/2) p.Theta.k is not the real convention's
    weyl = L.TwoPointAssembly(group_preset("moyal_extended", theta=theta))
    assert np.min(weyl.nonplanar_phase_residual(p, k)) > 1e-12


def test_mixing_verdicts():
    assert L.mixing_classify("moyal").verdict == "MIXING"
    assert L.mixing_classify("kappa", d=3).verdict == "NO_MIXING"
    assert L.mixing_classify("kappa", d=2).verdict == "NO_MIXING"
    rep = L.mixing_classify("commutative")
    assert rep.verdict == "NO_MIXING"
    assert rep.planar_uv_divergent  # divergent planar, degenerate non-planar


def test_mixing_report_keeps_undecided_ir_criterion():
    # a non-monotone p grid leaves criterion (ii) undecided: None, not False
    rep = L.mixing_classify("moyal", p_grid=[1.0, 0.1, 0.5, 0.01])
    assert rep.nonplanar_ir_singular is None
    assert rep.as_dict()["nonplanar_ir_singular"] is None
    assert rep.verdict == "INCONCLUSIVE"


def test_moyal_underflowed_values_leave_criteria_undecided():
    # at theta |p| ~ 1e3, K1(2 m sqrt c) underflows to exactly 0.0, and a
    # slope through the clamped log(1e-300) would read "UV finite"
    rep = L.mixing_classify("moyal", theta=1e3)
    assert rep.evidence["ir_sequence"][0][1] == 0.0
    assert all(v == 0.0 for _, v in rep.evidence["uv_sequence"])
    assert rep.nonplanar_ir_singular is None and rep.nonplanar_uv_finite is None
    assert rep.verdict == "INCONCLUSIVE"
    # the same theta probed at theta |p| in [1e-3, 1] sees the mixing
    rep = L.mixing_classify("moyal", theta=1e3, p_grid=np.geomspace(1e-3, 1e-6, 7))
    assert rep.nonplanar_ir_singular is True and rep.nonplanar_uv_finite is True
    assert rep.verdict == "MIXING"


@pytest.mark.parametrize("grid", [[1.0, 1.5, 2.0], [1.0, 10.0, 100.0]])
def test_moyal_uv_criterion_undecided_below_regulator_regime(grid):
    # with Lambda theta|p| < 10 on all but the top cutoff the non-planar value
    # still grows with Lambda, which says nothing about its UV finiteness
    rep = L.mixing_classify("moyal", lambda_grid=grid)
    assert rep.nonplanar_uv_finite is None
    assert rep.verdict == "INCONCLUSIVE"
    assert [r[0] for r in rep.evidence["uv_sequence"]] == grid
    assert L.mixing_classify("moyal", lambda_grid=np.geomspace(1, 1e3, 8)).verdict == "MIXING"


@pytest.mark.parametrize("space", ["moyal", "kappa", "commutative"])
def test_mixing_report_keeps_undecided_uv_criterion(space, monkeypatch):
    # an inconclusive cutoff sweep leaves criteria (i) and (ii) undecided
    real = L.propagator_sweep
    monkeypatch.setattr(L, "propagator_sweep",
                        lambda g, m, lambdas: {**real(g, m, lambdas), "verdict": "inconclusive"})
    rep = L.mixing_classify(space)
    assert rep.planar_uv_divergent is None
    assert rep.as_dict()["planar_uv_divergent"] is None
    # (ii) is gated by (i), so it is undecided too, except in the degenerate
    # commutative sector, where it is False by definition
    assert rep.nonplanar_ir_singular is (False if space == "commutative" else None)
    assert rep.verdict == "INCONCLUSIVE"


def test_moyal_classifier_integrates_only_the_planar_sweep(monkeypatch):
    # the non-planar IR and UV sequences use the K_1 closed form alone
    real, calls = L._quad, []
    monkeypatch.setattr(L, "_quad", lambda *a, **kw: calls.append(a[1:3]) or real(*a, **kw))
    rep = L.mixing_classify("moyal")
    assert rep.verdict == "MIXING"
    assert len(calls) == len(rep.evidence["planar_sweep"]["rows"]) == 8
    assert all(b == row[0] for (_, b), row in zip(calls, rep.evidence["planar_sweep"]["rows"]))


@pytest.mark.parametrize("space", ["moyal", "kappa", "commutative"])
def test_unconverged_cutoff_makes_the_sweep_inconclusive(space, monkeypatch):
    # QUADPACK flags the integral at the cutoff 100 alone
    real, flagged = L._quad, 100.0

    def quad(f, a, b, **kw):
        val, err, neval, ok = real(f, a, b, **kw)
        return val, err, neval, ok and not math.isclose(b, flagged)

    monkeypatch.setattr(L, "_quad", quad)
    rep = L.mixing_classify(space, lambda_grid=np.geomspace(10, 1e4, 4))
    assert rep.planar_uv_divergent is None and rep.verdict == "INCONCLUSIVE"
    sweep = rep.evidence["planar_sweep"]
    assert sweep["verdict"] == "inconclusive"
    assert [r[2] for r in sweep["rows"]] == [r[0] != flagged for r in sweep["rows"]]


def test_bessel_oracle_compare_fails_on_nan(monkeypatch):
    real = L.kmink_bessel_oracle
    monkeypatch.setattr(L, "kmink_bessel_oracle",
                        lambda m, kappa, d: {**real(m, kappa, d), "value": math.nan} if d == 3
                        else real(m, kappa, d))
    rep = L.bessel_oracle_compare(ms=(1.0, 2.0), kappas=(1.0,))
    assert rep["passed"] is False
    assert math.isnan(rep["max_rel_dev"])
    assert [r["passed"] for r in rep["rows"]] == [True, True, False, False]


def test_bessel_rows_carry_the_one_verdict():
    rep = L.bessel_oracle_compare(ms=(0.05, 20.0), kappas=(0.05, 20.0))
    assert rep["passed"] is all(r["passed"] for r in rep["rows"]) is False
    assert all(type(r["passed"]) is bool for r in rep["rows"])
    # QUADPACK meets its absolute tolerance on the d = 2, m = 20, kappa = 0.05
    # oracle (about 1.9e-174) with an error estimate of half the value
    bad = [(r["d"], r["m"], r["kappa"]) for r in rep["rows"] if not r["converged"]]
    assert (2, 20.0, 0.05) in bad
    assert rep["converged"] is False
    # each row is judged against the mean of its d's converged rows, so the
    # two unconverged m = 20, kappa = 0.05 oracles fail alone
    assert bad == [(2, 20.0, 0.05), (3, 20.0, 0.05)]
    assert [(r["d"], r["m"], r["kappa"]) for r in rep["rows"] if not r["passed"]] == bad


def test_bessel_rows_fail_without_a_converged_row(monkeypatch):
    real = L.kmink_bessel_oracle
    monkeypatch.setattr(L, "kmink_bessel_oracle",
                        lambda m, kappa, d: {**real(m, kappa, d), "converged": d == 2})
    rep = L.bessel_oracle_compare(ms=(1.0, 2.0), kappas=(1.0,))
    assert math.isnan(rep["ratios"][3]) and math.isnan(rep["max_rel_dev"])
    assert [r["passed"] for r in rep["rows"]] == [True, True, False, False]


def test_quad_relative_error_bound():
    # the same integrand at two scales: far below scipy's absolute epsabs,
    # QUADPACK stops with ier = 0 and an error estimate beyond QUAD_RTOL |value|
    val, err, _, converged = L._quad(lambda x: math.exp(-x), 0.0, 50.0)
    assert converged is True and err <= L.QUAD_RTOL * val
    val, err, _, converged = L._quad(lambda x: 1e-20 * math.exp(-x), 0.0, 50.0)
    assert converged is False and err > L.QUAD_RTOL * val


@pytest.mark.parametrize("kappa, verdict", [(0.05, "INCONCLUSIVE"), (0.1, "INCONCLUSIVE"),
                                            (0.2, "NO_MIXING")])
def test_kappa_planar_sweep_flags_tiny_integrals(kappa, verdict):
    # at kappa = 0.05 the planar integrals are about 3e-14 with an error estimate
    # of about their size; at 0.1 the Lambda = 2.68 and 19.3 rows stay unconverged,
    # while the Lambda = 1000 kappa row, cut where its integrand underflows,
    # reads the closed form's 2.6692e-7
    rep = L.mixing_classify("kappa", kappa=kappa, d=3)
    assert rep.verdict == verdict
    sweep = rep.evidence["planar_sweep"]
    if kappa == 0.2:
        assert sweep["verdict"] == "convergent" and all(r[2] for r in sweep["rows"])
    elif kappa == 0.1:
        assert sweep["verdict"] == "inconclusive"
        assert [r[0] for r in sweep["rows"] if not r[2]] == pytest.approx([2.6827, 19.307], rel=1e-4)
        assert sweep["rows"][-1][1] == pytest.approx(2.6692e-7, rel=1e-4) and sweep["rows"][-1][2]
    else:
        assert sweep["verdict"] == "inconclusive" and sweep["rows"][-1][2] is False


@pytest.mark.parametrize("kappa", [0.5, 1.0, 10.0])
def test_kappa_planar_integral_far_past_kappa_is_the_full_integral(kappa):
    # from r = 2 kappa 746/d on the integrand is exactly 0.0; a cutoff far beyond
    # it read 0.0, converged, before the range was cut there
    g = group_preset("kappa_minkowski", kappa=kappa, d=3)
    full = L.kmink_bessel_oracle(1.0, kappa, 3)["value"]
    for Lam in (1e6 * kappa, 1e10, 1e40):
        r = L.propagator_integral(g, 1.0, Lam)
        assert r["converged"] and r["value"] == pytest.approx(full, rel=1e-13)
    if kappa == 1.0:
        assert L.propagator_integral(g, 1.0, 1e6)["value"] == pytest.approx(7.3005542831929)


def test_kappa_sweep_of_underflowed_zeros_is_undecided():
    # at kappa = 1e-3 every planar value underflows to exactly 0.0: the slope
    # through the 1e-300 floor decides nothing
    rep = L.mixing_classify("kappa", kappa=1e-3)
    sweep = rep.evidence["planar_sweep"]
    assert all(r[1] == 0.0 for r in sweep["rows"]) and sweep["verdict"] == "inconclusive"
    assert rep.planar_uv_divergent is None and rep.verdict == "INCONCLUSIVE"


def test_diagram_counts():
    assert L.diagram_counts("real_phi4") == {"total": 12, "planar": 8, "nonplanar": 4}
    assert L.diagram_counts("charged_orientable") == {"total": 4, "planar": 4, "nonplanar": 0}
    assert L.diagram_counts("charged_nonorientable") == {"total": 4, "planar": 2, "nonplanar": 2}


# (p leg, q leg, loop legs, planar) of each contraction, in the order they are listed
DIAGRAMS = {
    "real_phi4": [(0, 1, (2, 3), True), (0, 2, (1, 3), False), (0, 3, (1, 2), True),
                  (1, 0, (2, 3), True), (1, 2, (0, 3), True), (1, 3, (0, 2), False),
                  (2, 0, (1, 3), False), (2, 1, (0, 3), True), (2, 3, (0, 1), True),
                  (3, 0, (1, 2), True), (3, 1, (0, 2), False), (3, 2, (0, 1), True)],
    "charged_orientable": [(0, 1, (2, 3), True), (0, 3, (1, 2), True),
                           (2, 1, (0, 3), True), (2, 3, (0, 1), True)],
    "charged_nonorientable": [(0, 2, (1, 3), False), (0, 3, (1, 2), True),
                              (1, 2, (0, 3), True), (1, 3, (0, 2), False)],
}


@pytest.mark.parametrize("field", sorted(DIAGRAMS))
def test_diagram_enumerate_table(field):
    want = [{"p_leg": p, "q_leg": q, "loop_legs": loop, "planar": planar}
            for p, q, loop, planar in DIAGRAMS[field]]
    assert L.diagram_enumerate(field) == want


def test_diagram_enumerate_unknown_field():
    with pytest.raises(ValueError, match="unknown field content 'complex'"):
        L.diagram_enumerate("complex")


def test_diagram_planarity_is_adjacency():
    for d in L.diagram_enumerate("real_phi4"):
        i, j = d["loop_legs"]
        assert d["planar"] == ((abs(i - j) % 4) in (1, 3))


def test_kinetic_spec_validation(kappa3):
    # the mass of the kinetic operator and the cutoff are checked where they are used
    with pytest.raises(ValueError, match="mass must be non-negative"):
        L.propagator_integral(kappa3, -1.0, 10.0)
    for Lam in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="Lambda must be positive"):
            L.propagator_integral(kappa3, 1.0, Lam)
    with pytest.raises(ValueError, match="no radial reduction"):
        L.propagator_integral(group_preset("su2_lambda"), 1.0, 10.0)


def test_kappa_nonplanar_uses_delta_solver_momenta():
    # the k0-quadrature's spatial momentum matches delta_solve_nonplanar
    from qstkit.momentum import delta_solve_nonplanar
    kappa, d = 1.0, 3
    g = group_preset("kappa_minkowski", kappa=kappa, d=d)
    p = np.array([0.8, 0.4, -0.2, 0.1])
    q = np.asarray(g.inv(p))
    denom = 1.0 - math.exp(-p[0] / kappa)
    for k0 in (-0.7, 0.0, 1.3):
        sol = delta_solve_nonplanar(g, p, q, k0)
        assert sol.ok
        inline = p[1:] * (1.0 - math.exp(-k0 / kappa)) / denom
        assert np.max(np.abs(sol.k[1:] - inline)) < 1e-12


def test_kappa_nonplanar_value_finite_and_saturating():
    vals = [L.kappa_nonplanar_closed(1.0, 1.0, 1.0, 3, Lam) for Lam in (50.0, 200.0, 800.0)]
    assert all(np.isfinite(v) for v in vals)
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0]) + 1e-12


# kappa non-planar closed form --------------------------------------------

@pytest.fixture(scope="module")
def oracle_grid():
    """((p0, m, kappa, d, Lambda), quadrature) over kappa 1e-3..1e3, d 1..4, Lambda <= 100 kappa."""
    rows = []
    for i, (kappa, d) in enumerate(itertools.product((1e-3, 0.5, 1.0, 2.0, 10.0, 1e3),
                                                     (1, 2, 3, 4))):
        m, t = (0.5, 1.0, 2.0)[i % 3], (1.0, 0.3, 0.1, 0.01)[i % 4]
        p = np.zeros(d + 1)
        p[0] = t * kappa
        for lam in (10.0, 50.0, 100.0):
            val, converged = kappa_nonplanar_quad(p, m, kappa, d, lam * kappa)
            assert converged
            rows.append(((p[0], m, kappa, d, lam * kappa), val))
    return rows


def _max_rel_dev(rows):
    """Worst relative deviation of the closed form from the quadrature; NaN propagates."""
    return float(np.max([abs(L.kappa_nonplanar_closed(*args) / val - 1.0) for args, val in rows]))


def test_kappa_nonplanar_closed_matches_quadrature(oracle_grid):
    assert _max_rel_dev(oracle_grid) <= 1e-12


def test_kappa_nonplanar_closed_sign_flip_rejected(oracle_grid, monkeypatch):
    # negative control: adding the E1 tail instead of subtracting it
    real = L._lorentz_cos

    def flipped(omega, m, Lambda):
        if omega == 0:
            return real(omega, m, Lambda)
        return 2 * math.pi * math.exp(-omega * m) / m - real(omega, m, Lambda)

    monkeypatch.setattr(L, "_lorentz_cos", flipped)
    assert _max_rel_dev(oracle_grid) > 1e-3


def test_kappa_nonplanar_closed_matches_mpmath_at_large_cutoff():
    # QUADPACK flags this one and returns -0.043; 200-panel mpmath agrees with the closed form
    import mpmath
    kappa, Lam, d, m = 1000.0, 2e5, 3, 1.0
    dq, w = mpmath.exp(-d), mpmath.mpf(d) / kappa
    val = mpmath.quad(lambda k: ((1 + dq) * mpmath.cos(w * k) + 1 + dq * mpmath.cos(2 * w * k))
                      / (k * k + m * m), mpmath.linspace(-Lam, Lam, 201))
    ref = float(val * (1 - mpmath.exp(-1)) ** (-d))
    assert ref == pytest.approx(26.0716205159623, rel=1e-13)
    assert L.kappa_nonplanar_closed(kappa, m, kappa, d, Lam) == pytest.approx(ref, rel=1e-12)
    quad, converged = kappa_nonplanar_quad(np.array([kappa, 0, 0, 0]), m, kappa, d, Lam)
    assert not converged and quad < 0


@pytest.mark.parametrize("Lam", [0.01, 0.2])
def test_kappa_nonplanar_closed_small_kappa(Lam):
    # 2 d m / kappa = 6000: the unscaled e^{omega m} E1 would overflow
    v = L.kappa_nonplanar_closed(1e-3, 1.0, 1e-3, 3, Lam)
    quad, converged = kappa_nonplanar_quad(np.array([1e-3, 0, 0, 0]), 1.0, 1e-3, 3, Lam)
    assert converged and np.isfinite(v)
    assert v == pytest.approx(quad, rel=1e-12)


@pytest.mark.parametrize("z", [0.5 - 1e-3j, -1.5 - 0.2j, 3 - 40j, -20 - 1e-3j, -499 - 1e-6j,
                               -501 - 1e-6j, 501 - 3j, -3000 - 30j, 6000 - 1e4j])
def test_scaled_exp1_matches_mpmath(z):
    import mpmath
    ref = complex(mpmath.exp(z) * mpmath.e1(z))
    assert abs(L._g(z) - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("kappa", [100.0, 1000.0])
def test_mixing_kappa_large_kappa_no_mixing(kappa):
    # the k0 quadratures went wrong from Lambda ~ 1e3 kappa on and read INCONCLUSIVE
    assert L.mixing_classify("kappa", kappa=kappa, d=3).verdict == "NO_MIXING"


def test_kappa_nonplanar_rejects_bad_domain():
    with pytest.raises(ValueError, match="p0 = 0"):
        L.kappa_nonplanar_closed(0.0, 1.0, 1.0, 3, 100.0)
    for args in [(1.0, 0.0, 1.0, 3, 100.0), (1.0, 1.0, 1.0, 3, -1.0), (1.0, 1.0, 1.0, 0, 9.0)]:
        with pytest.raises(ValueError, match="needs"):
            L.kappa_nonplanar_closed(*args)


def test_quad_reports_a_flagged_integrand():
    val, err, neval, converged = L._quad(lambda x: 1.0 / x, 0.0, 1.0)
    assert converged is False and neval > 0
    assert L._quad(math.exp, 0.0, 1.0)[3] is True
    Theta = group_preset("moyal_extended", theta=1.0).meta["Theta"]
    # the smallest IR probe of the Moyal classifier: QUADPACK's extrapolation
    # returns -7.21 there, flagged; the plain bisection converges on the K1 value
    mm = L.moyal_nonplanar(np.array([1e-3, 0, 0, 0]), Theta, 1.0, 1e8)
    assert mm["converged"] is True and mm["quad"] == pytest.approx(3999984.95102, rel=1e-9)
    assert mm["rel_err"] < 1e-9
    assert L.moyal_nonplanar(np.array([1.0, 0, 0, 0]), Theta, 1.0, 100.0)["converged"] is True
    assert L.propagator_integral(group_preset("commutative", dim=4), 1.0, 10.0)["converged"] is True
    assert L.kmink_bessel_oracle(1.0, 1.0, 3)["converged"] is True


def _quadpack_converged(value, err, ok):
    return ok and err <= L.QUAD_RTOL * abs(value)


def test_quad_seam_sees_every_quadrature(monkeypatch):
    # a counting proxy bound as `loop.integrate`, the way a tracing harness
    # binds one, sees each quadrature; a public `quad` would be traced twice
    real, calls = L.integrate.quad, []
    monkeypatch.setattr(L, "integrate", types.SimpleNamespace(
        quad=lambda *a, **kw: calls.append(a[1:3]) or real(*a, **kw)))
    L.mixing_classify("moyal")
    assert len(calls) == 8
    assert not hasattr(L, "quad")


def test_quad_matches_quadpack_on_every_loop_integrand(monkeypatch):
    # every quadrature of `suite mixing` and of `bessel-check --grid 0.001,1000`
    from scipy import integrate
    real, seen = L.integrate.quad, []

    def both(f, a, b, **kw):
        r = real(f, a, b, **kw)
        seen.append((r, integrate.quad(f, a, b, full_output=1, **kw)))
        return r

    monkeypatch.setattr(L, "integrate", types.SimpleNamespace(quad=both))
    cli.suite_mixing(cli.RunConfig())
    L.bessel_oracle_compare(ms=(0.001, 1000.0), kappas=(0.001, 1000.0))
    assert len(seen) == 51
    for (value, err, _, ok), ref in seen:
        assert value == pytest.approx(ref[0], rel=1e-12, abs=0.0)
        assert _quadpack_converged(value, err, ok) == _quadpack_converged(ref[0], ref[1], len(ref) == 3)


def test_quad_stops_at_a_panel_too_narrow_to_bisect():
    # bisection toward the pole at 0.3 reaches a panel one ulp wide after
    # about 50 panels, and stops there unconverged instead of at the limit
    val, err, neval, converged = L._quad(lambda x: 1.0 / abs(x - 0.3), 0.0, 1.0, limit=400)
    assert converged is False and neval < 21 * 2 * 60


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0])
def test_kv_matches_scipy(nu):
    from scipy import special
    xs = np.geomspace(1e-6, 700.0, 400)
    ref = special.kv(nu, xs)
    got = np.array([L._kv(nu, float(x)) for x in xs])
    assert (ref == 0).sum() > 0 and np.array_equal(got == 0, ref == 0)
    ok = ref > 0
    assert np.max(np.abs(got[ok] / ref[ok] - 1.0)) <= 1e-13


def test_scaled_exp1_matches_mpmath_densely():
    # both sides of the imaginary axis, and next to the branch cut
    import mpmath
    worst = 0.0
    with mpmath.workdps(40):
        for x in np.concatenate([-np.geomspace(1e-3, 500, 40), np.geomspace(1e-3, 500, 40)]):
            for y in np.concatenate([[0.0], -np.geomspace(1e-6, 1e4, 40)]):
                z = complex(x, y)
                ref = complex(mpmath.exp(z) * mpmath.e1(z))
                worst = max(worst, abs(L._g(z) - ref) / abs(ref))
    assert worst <= 1e-13
