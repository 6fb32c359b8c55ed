
import json
import tracemalloc

import numpy as np
import pytest

import causality_oracle as O
from qstkit import causality as C

# (n, scheme) grids on which the matrix-free model is compared with the dense oracle
ORACLE_GRIDS = [(128, "central"), (256, "spectral"), (1024, "spectral")]


@pytest.fixture(scope="module")
def grid():
    return C.GridSpec(256, 10.0, "spectral")


def test_grid_validation():
    with pytest.raises(C.GridError):
        C.GridSpec(8, 10.0)
    with pytest.raises(C.GridError):
        C.GridSpec(64, 10.0, "upwind")
    with pytest.raises(C.GridError):
        C.GridSpec(64, 10.0, "spectral").validate_kappa(0.5)  # window below 10/kappa
    with pytest.raises(C.GridError):
        # window admissible but h too coarse for e^{-p0/kappa}: aliasing
        C.GridSpec(16, 10.0, "spectral").validate_kappa(1.2)


def _both(grid, kappa):
    """(operators, expectation) of the dense oracle and of the matrix-free model."""
    return [(O.build_operators(grid, kappa), O.expectation),
            (C.build_operators(grid, kappa), C.expectation)]


def _dirac_apply(grid, a, phi, adjoint):
    """D phi (or D^dagger phi) on branch a: the model's a = 1 operator, and for
    a = -1 that operator with the spinor components of phi and of the result swapped."""
    if a == 1:
        return C._dirac_apply(grid, 1.0, phi, adjoint)
    return C._dirac_apply(grid, 1.0, phi[::-1], adjoint)[::-1]


def _phased_cone_margins(grid, kappa, a, alpha, beta, n_states, seed):
    """{+1, -1} -> min of the model's cone form over the oracle's phased family.

    `cone_condition`'s own family is real, where the form is identically 0;
    displacing each state by e^{i t p0} makes the form something to check.
    """
    psi = O.cone_family(grid, n_states, seed, phases=True)
    return {branch: float(np.min(C._cone_form(grid, kappa, a, alpha, beta, branch, psi)))
            for branch in (+1, -1)}


def test_x1_bounds(grid):
    psi = C.gaussian_state(grid, 0.3, 1.2)
    vals = np.exp(-grid.points())
    for ops, expectation in _both(grid, 1.0):
        x1 = expectation(ops["X1"], psi, grid).real
        assert np.min(vals) <= x1 <= np.max(vals)


def test_x0_hermitian_real_expectations(grid):
    dense = O.build_operators(grid, 1.0)["X0"]
    # the matrix-free x0 applied to the identity columns is its matrix
    free = C.build_operators(grid, 1.0)["X0"](np.eye(grid.n))
    for X0 in (dense, free):
        assert np.max(np.abs(X0 - X0.conj().T)) < 1e-10
    assert np.max(np.abs(free - dense)) < 1e-12
    rng = np.random.default_rng(0)
    for _ in range(5):
        psi = O.gaussian_state(grid, rng.uniform(-2, 2), rng.uniform(0.5, 2), rng.uniform(-1, 1))
        for ops, expectation in _both(grid, 1.0):
            assert abs(expectation(ops["X0"], psi, grid).imag) < 1e-10
            assert abs(expectation(ops["X1"], psi, grid).imag) < 1e-10


def test_phase_shift_translates_x0(grid):
    psi = C.gaussian_state(grid, 0.5, 1.0)
    for ops, expectation in _both(grid, 1.0):
        for t in (0.25, 0.8, -0.6):
            psi2 = C.normalize(psi * np.exp(1j * t * grid.points()), grid)
            d = expectation(ops["X0"], psi2, grid).real - expectation(ops["X0"], psi, grid).real
            assert d == pytest.approx(t, abs=1e-10)
            # x1 expectation unchanged by the phase
            d1 = expectation(ops["X1"], psi2, grid).real - expectation(ops["X1"], psi, grid).real
            assert abs(d1) < 1e-12


def test_kappa_infinite_limit_x1_identity():
    grid = C.GridSpec(128, 12.0, "central")
    assert np.max(np.abs(np.diag(O.build_operators(grid, 1e9, a=1)["X1"]) - 1.0)) < 1e-7
    assert np.max(np.abs(C.build_operators(grid, 1e9)["X1"] - 1.0)) < 1e-7


def test_fundamental_symmetry_exact(grid):
    r = C.lorentzian_axiom_check(grid, 1.0)
    assert r["I_squared_residual"] == 0.0
    assert r["I_hermiticity_residual"] == 0.0


def test_krein_residual_refines_at_scheme_order():
    res = []
    for n in (64, 128, 256):
        g = C.GridSpec(n, 10.0, "central")
        res.append(C.lorentzian_axiom_check(g, 1.0)["krein_residual"])
    assert res[0] / res[1] >= 2.0
    assert res[1] / res[2] >= 2.0
    # central differences are second order: the ratio is close to 4
    assert res[0] / res[1] == pytest.approx(4.0, rel=0.2)


def test_cone_pass_inside_lightcone(grid):
    for v in (-1.0, -0.5, 0.0, 0.5, 1.0):
        r = C.cone_condition(grid, 1.0, 1, 1.0, v, n_states=200, seed=0)
        assert r["passed"], (v, r["margin"])
    # pure time on the a = -1 branch too
    r = C.cone_condition(grid, 1.0, -1, 1.0, 0.0, n_states=100, seed=0)
    assert r["passed"]


def test_cone_fail_outside_lightcone_commutative_limit():
    kappa = 1e3
    grid = C.GridSpec(256, 12.0, "spectral")
    margins = _phased_cone_margins(grid, kappa, 1, 1.0, 2.0, n_states=200, seed=0)
    assert min(margins.values()) < -1e-3  # commutative-limit violation found by the search


def test_sll_margin_examples(grid):
    psi = C.gaussian_state(grid, 0.4, 1.0)
    assert C.sll_margin(psi, psi, grid, 1.0) == 0.0
    t = 0.6
    psi2 = C.normalize(psi * np.exp(1j * t * grid.points()), grid)
    assert C.sll_margin(psi, psi2, grid, 1.0) == pytest.approx(t, abs=1e-8)
    # x1-displaced state: margin is reported (sign not asserted, no ground truth)
    psi3 = C.gaussian_state(grid, 1.5, 1.0)
    m = C.sll_margin(psi, psi3, grid, 1.0)
    assert np.isfinite(m)


def test_sll_requires_normalized(grid):
    psi = C.gaussian_state(grid, 0.0, 1.0)
    with pytest.raises(ValueError):
        C.sll_margin(psi, 2.0 * psi, grid, 1.0)


def test_cone_condition_rejects_other_branches(grid):
    for a in (0, 2, -2, 0.5):
        with pytest.raises(ValueError, match="branches"):
            C.cone_condition(grid, 1.0, a, 1.0, 0.5, n_states=20)


def test_dirac_representation_branches(grid):
    n = grid.n
    up = np.zeros((2, n, 1), dtype=complex)
    up[0, :, 0] = C.gaussian_state(grid, 0.2, 1.0)
    for a in (1, -1):
        D = O.dirac_operator(grid, 1.0, a)
        assert np.max(np.abs(D[:n, :n])) == 0.0  # off-diagonal block structure
        assert np.max(np.abs(D[n:, n:])) == 0.0
        for adjoint in (False, True):  # D and D^dagger map the upper spinor to the lower
            out = _dirac_apply(grid, a, up, adjoint)
            assert np.max(np.abs(out[0])) == 0.0
            assert np.max(np.abs(out[1])) > 0.0


# ---------------------------------------------------------------------------
# matrix-free operators against the dense oracle

@pytest.mark.parametrize("n, scheme", ORACLE_GRIDS[:2])
def test_derivative_matches_oracle_matrix(n, scheme):
    grid = C.GridSpec(n, 10.0, scheme)
    D = O.derivative_matrix(grid)
    free = C._derivative(grid, np.eye(n))
    assert free.dtype == float
    assert np.max(np.abs(free - D)) <= 1e-13 * np.max(np.abs(D))
    rng = np.random.default_rng(1)
    f = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    assert np.max(np.abs(C._derivative(grid, f) - D @ f)) <= 1e-12 * np.max(np.abs(D @ f))


@pytest.mark.parametrize("a", [1, -1])
@pytest.mark.parametrize("n, scheme", ORACLE_GRIDS[:2])
def test_dirac_apply_matches_oracle_matrix(n, scheme, a):
    grid = C.GridSpec(n, 10.0, scheme)
    Dop = O.dirac_operator(grid, 1.0, a)
    rng = np.random.default_rng(2)
    phi = rng.normal(size=(2, n, 4)) + 1j * rng.normal(size=(2, n, 4))
    flat = phi.reshape(2 * n, 4)
    for adjoint, M in ((False, Dop), (True, Dop.conj().T)):
        want = M @ flat
        got = _dirac_apply(grid, a, phi, adjoint).reshape(2 * n, 4)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("a", [1, -1])
@pytest.mark.parametrize("n, scheme", ORACLE_GRIDS)
def test_krein_residual_matches_oracle(n, scheme, a):
    grid = C.GridSpec(n, 10.0, scheme)
    # the a = -1 residual is the a = 1 one: the spinor swap relating their Dirac
    # operators commutes with I and maps the family e_s x psi onto itself
    got = C.lorentzian_axiom_check(grid, 1.0, seed=3)["krein_residual"]
    want = O.krein_residual(grid, 1.0, a, seed=3)
    # the dense D^dagger carries the roundoff asymmetry of the DFT matrix, times |J| ~ e^10
    assert got == pytest.approx(want, rel=1e-12 if scheme == "central" else 1e-6)


def test_krein_residual_follows_gamma0(monkeypatch):
    """A change to gamma^0 reaches the residual through I, on both paths."""
    grid = C.GridSpec(128, 10.0, "central")
    before = C.lorentzian_axiom_check(grid, 1.0)["krein_residual"]
    monkeypatch.setattr(C, "GAMMA0", np.array([[1j, 0], [0, -1j]]))
    after = C.lorentzian_axiom_check(grid, 1.0)
    assert after["I_squared_residual"] == 0.0 and after["I_hermiticity_residual"] == 0.0
    assert after["krein_residual"] > 10 * before
    assert after["krein_residual"] == pytest.approx(O.krein_residual(grid, 1.0), rel=1e-12)


@pytest.mark.parametrize("a", [1, -1])
@pytest.mark.parametrize("n, scheme", ORACLE_GRIDS)
def test_cone_margins_match_oracle(n, scheme, a):
    # a phased family: on real states Re<psi, K psi> is 0 for any real K/i, which checks nothing
    grid = C.GridSpec(n, 10.0, scheme)
    for beta in (-0.7, 0.0, 0.5):
        got = _phased_cone_margins(grid, 1.0, a, 1.0, beta, n_states=40, seed=4)
        want = O.cone_branch_margins(grid, 1.0, a, 1.0, beta, n_states=40, seed=4, phases=True)
        for branch in (+1, -1):
            assert want[branch] < -1.0
            assert got[branch] == pytest.approx(want[branch], rel=1e-10)


def test_cone_real_family_reads_positive_zero(grid):
    r = C.cone_condition(grid, 1.0, 1, 1.0, 0.5, n_states=20, seed=0)
    assert r["margin"] == 0.0 and np.copysign(1.0, r["margin"]) == 1.0
    assert all(np.copysign(1.0, m) == 1.0 for m in r["branch_margins"].values())


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def test_gaussian_family_columns_equal_scalar_calls():
    grid, m = C.GridSpec(64, 10.0, "spectral"), 3000
    rng = np.random.default_rng(7)
    c, w = rng.uniform(-3.0, 3.0, m), rng.uniform(0.5, 2.0, m)
    # widths where libm's pow(w, 2) and the product w * w round apart
    assert any(x ** 2 != x * x for x in w.tolist())
    family = C.gaussian_state(grid, c, w)
    assert family.shape == (grid.n, m)
    for j, args in enumerate(zip(c.tolist(), w.tolist())):
        want = _bits(O.gaussian_state(grid, *args))
        assert np.array_equal(_bits(family[:, j]), want)
        assert np.array_equal(_bits(C.gaussian_state(grid, *args)), want)


def _spy_on_gaussians(monkeypatch):
    seen, real = [], C.gaussian_state
    monkeypatch.setattr(C, "gaussian_state", lambda *args: seen.append(real(*args)) or seen[-1])
    return seen


def test_cone_family_equals_per_state_loop(grid, monkeypatch):
    want = O.cone_family(grid, 200, seed=5)
    seen = _spy_on_gaussians(monkeypatch)
    C.cone_condition(grid, 1.0, 1, 1.0, 0.5, n_states=200, seed=5)
    assert len(seen) == 1 and np.array_equal(_bits(seen[0]), _bits(want))


def test_cone_sweep_runs_each_beta_on_one_family(grid, monkeypatch):
    want = O.cone_family(grid, 50, seed=2)
    calls, real = [], C._cone_form
    monkeypatch.setattr(C, "_cone_form", lambda *args: calls.append(args) or real(*args))
    betas = [-1.0, 0.25, 1.0]
    out = C.cone_sweep(grid, 1.0, 1, 1.0, betas, n_states=50, seed=2)
    assert len(out) == len(betas) and all(r["passed"] for r in out)
    assert [args[4:6] for args in calls] == [(b, s) for b in betas for s in (+1, -1)]
    psi = calls[0][6]
    assert all(args[6] is psi for args in calls) and np.array_equal(_bits(psi), _bits(want))


def test_cone_rows_build_one_family_per_sweep(monkeypatch, capsys):
    from qstkit import cli
    seen = _spy_on_gaussians(monkeypatch)
    cli.suite_causality(cli.RunConfig())
    assert [s.shape for s in seen if s.ndim == 2 and s.shape[1] == 200] == [(256, 200)]
    seen.clear()
    assert cli.main(["causality", "--v=-1:1:0.25"]) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 9
    assert [s.shape for s in seen] == [(256, 200)]


def test_axiom_family_equals_per_state_loop(grid, monkeypatch):
    want = np.column_stack(O.axiom_family(grid, seed=3))
    seen = _spy_on_gaussians(monkeypatch)
    C.lorentzian_axiom_check(grid, 1.0, seed=3)
    assert len(seen) == 1 and np.array_equal(_bits(seen[0]), _bits(want))


def test_large_grid_allocates_no_dense_operator():
    n = 8192
    grid = C.GridSpec(n, 10.0, "spectral")
    tracemalloc.start()
    try:
        ax = C.lorentzian_axiom_check(grid, 1.0)
        cone = _phased_cone_margins(grid, 1.0, 1, 1.0, 0.5, n_states=20, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(ax["krein_residual"]) and all(np.isfinite(m) for m in cone.values())
    assert peak < n * n  # bytes: any n x n array would take at least this
