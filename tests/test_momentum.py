import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentum_oracle as MO
from qstkit.liestructure import MOYAL_PHASE_CONVENTIONS
from qstkit.momentum import (BLOCK_ROWS, DimensionMismatch, add, add_batch, bch_compose,
                             delta_solve_nonplanar, dispersion, g_right_to_sum,
                             group_from_structure, group_preset, haar_invariance_check, inv,
                             inv_batch, modular, modular_identity_residuals,
                             nonplanar_residual, ordering_transform)

LN2 = math.log(2.0)


def test_kappa_add_example():
    g = group_preset("kappa_minkowski", kappa=1.0, d=1)
    out = add(g, [LN2, 1.0], [0.0, 2.0])
    assert np.allclose(out, [LN2, 2.0])


def test_kappa_inv_example():
    g = group_preset("kappa_minkowski", kappa=1.0, d=1)
    assert np.allclose(inv(g, [LN2, 1.0]), [-LN2, -2.0])
    assert np.allclose(add(g, [LN2, 1.0], inv(g, [LN2, 1.0])), 0.0)
    assert np.allclose(inv(g, np.zeros(2)), 0.0)


def test_identity_element():
    for name, kw in [("kappa_minkowski", dict(kappa=1.0, d=2)),
                     ("moyal_extended", dict(theta=1.0)),
                     ("rho_minkowski", dict(rho=1.0)),
                     ("su2_lambda", dict(lam=1.0))]:
        g = group_preset(name, **kw)
        p = np.full(g.dim, 0.37)
        assert np.allclose(np.asarray(add(g, p, np.zeros(g.dim)), dtype=complex), p)


def test_rho_add_example():
    g = group_preset("rho_minkowski", rho=1.0)
    out = add(g, [math.pi / 2, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0])
    assert np.allclose(out, [math.pi / 2, 0.0, 0.0, 0.0], atol=1e-15)


def test_moyal_inv_example():
    g = group_preset("moyal_extended", theta=1.0)
    p = np.array([0.3, -0.2, 0.5, 0.1, 0.7])
    assert np.allclose(np.asarray(inv(g, p), dtype=complex), -p)


def test_modular_examples():
    g = group_preset("kappa_minkowski", kappa=1.0, d=1)
    assert modular(g, [LN2, 0.3]) == pytest.approx(2.0)
    assert modular(g, np.zeros(2)) == 1.0
    gm = group_preset("moyal_extended", theta=1.0)
    assert modular(gm, np.ones(5)) == 1.0
    gr = group_preset("rho_minkowski", rho=1.0)
    assert modular(gr, np.ones(4)) == 1.0


def test_modular_homomorphism():
    rng = np.random.default_rng(0)
    for name, kw in [("kappa_minkowski", dict(kappa=1.5, d=3)),
                     ("rho_minkowski", dict(rho=1.0))]:
        g = group_preset(name, **kw)
        for _ in range(50):
            p, q = rng.normal(size=g.dim), rng.normal(size=g.dim)
            r = modular_identity_residuals(g, p, q)
            assert max(r.values()) < 1e-10


def test_haar_invariance_presets():
    rng = np.random.default_rng(1)
    for name, kw in [("kappa_minkowski", dict(kappa=1.0, d=3)),
                     ("moyal_extended", dict(theta=1.0)),
                     ("rho_minkowski", dict(rho=1.0)),
                     ("su2_lambda", dict(lam=1.0))]:
        g = group_preset(name, **kw)
        scale = 0.3 if name == "su2_lambda" else 1.0
        for _ in range(20):
            p, q = rng.normal(size=g.dim) * scale, rng.normal(size=g.dim) * scale
            assert haar_invariance_check(g, q, p, "left") < 1e-8
            assert haar_invariance_check(g, q, p, "right") < 1e-8


def test_corrupted_weight_fails_left_invariance():
    g = group_preset("kappa_minkowski", kappa=1.0, d=1)
    q = np.array([0.8, 0.1])
    p = np.array([0.2, 0.4])
    res = haar_invariance_check(g, q, p, "left", weight=lambda x: 1.0)
    assert res > 1e-3


def test_noncommutativity_witness():
    g = group_preset("kappa_minkowski", kappa=1.0, d=1)
    p = np.array([LN2, 0.0])
    q = np.array([0.0, 1.0])
    pq = add(g, p, q)
    qp = add(g, q, p)
    assert pq[1] == pytest.approx(0.5)
    assert qp[1] == pytest.approx(1.0)
    assert abs(pq[1] - qp[1]) > 0.4


def test_dim_mismatch():
    g = group_preset("kappa_minkowski", kappa=1.0, d=1)
    with pytest.raises(DimensionMismatch):
        add(g, [0.1, 0.2, 0.3], [0.1, 0.2, 0.3])


# ordering transform ---------------------------------------------------------

def test_g_function_series():
    assert g_right_to_sum(0.0) == 1.0
    x = 5e-5
    assert g_right_to_sum(x) == pytest.approx(x / (1 - math.exp(-x)), rel=1e-12)


def test_ordering_transform_identity_at_p0_zero():
    p = np.array([0.0, 1.3, -0.4])
    out = ordering_transform(p, 1.0, "right_to_sum")
    assert np.allclose(out, p)


def test_ordering_transform_intertwines():
    gr = group_preset("kappa_minkowski", kappa=1.0, d=2)
    gs = group_preset("kappa_minkowski", kappa=1.0, d=2, ordering="sum")
    rng = np.random.default_rng(2)
    for _ in range(25):
        p, q = rng.normal(size=3), rng.normal(size=3)
        lhs = ordering_transform(add(gr, p, q), 1.0, "right_to_sum")
        rhs = add(gs, ordering_transform(p, 1.0, "right_to_sum"),
                  ordering_transform(q, 1.0, "right_to_sum"))
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        back = ordering_transform(ordering_transform(p, 1.0, "right_to_sum"),
                                  1.0, "sum_to_right")
        assert np.allclose(back, p)


def test_sum_ordered_add_finite_at_opposite_energies():
    gs = group_preset("kappa_minkowski", kappa=1.0, d=1, ordering="sum")
    out = add(gs, [0.7, 1.0], [-0.7, 2.0])
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(0.0, abs=1e-14)


def test_sum_ordered_haar_weight_positive():
    gs = group_preset("kappa_minkowski", kappa=1.0, d=2, ordering="sum")
    for p0 in (-2.0, -0.1, 0.0, 0.1, 2.0):
        assert gs.haar_left(np.array([p0, 0.0, 0.0])) > 0


# delta solver ---------------------------------------------------------------

def test_delta_solve_kappa_example():
    g = group_preset("kappa_minkowski", kappa=1.0, d=1)
    r = delta_solve_nonplanar(g, [LN2, 1.0], [-LN2, 0.0], 0.0)
    assert r.ok
    assert r.k[1] == pytest.approx(2.0)
    assert r.residual < 1e-10


def test_delta_solve_trivial_and_no_solution():
    g = group_preset("kappa_minkowski", kappa=1.0, d=1)
    r = delta_solve_nonplanar(g, np.zeros(2), np.zeros(2))
    assert r.ok and np.allclose(r.k, 0.0)
    r2 = delta_solve_nonplanar(g, [0.5, 1.0], [0.1, 0.0])
    assert not r2.ok
    assert r2.residual == pytest.approx(0.6)


def test_delta_solve_rho_newton():
    g = group_preset("rho_minkowski", rho=1.0)
    p = np.array([0.9, 0.4, -0.3, 0.2])
    q = np.asarray(g.inv(p))
    r = delta_solve_nonplanar(g, p, q, k0=0.3)
    assert r.ok
    assert np.max(np.abs(nonplanar_residual(g, p, q, r.k))) < 1e-10


# dispersion -----------------------------------------------------------------

def test_dispersion():
    assert dispersion("P", 3.0, 1.0) == 9.0
    assert dispersion("X", 1.0, 1.0) == 0.0
    assert dispersion("X", 2.0, 1e12) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        dispersion("Z", 1.0, 1.0)
    with pytest.raises(ValueError):
        dispersion("P", 1.0, -1.0)


# BCH oracle -----------------------------------------------------------------

def test_bch_matches_kappa_sum_closed_form():
    gs = group_preset("kappa_minkowski", kappa=1.0, d=1, ordering="sum")
    C = gs.structure.C
    rng = np.random.default_rng(3)
    for _ in range(5):
        p, q = rng.normal(size=2) * 0.4, rng.normal(size=2) * 0.4
        z = bch_compose(C, p, q, order=10)
        assert np.max(np.abs(z - add(gs, p, q))) < 1e-6


def test_bch_right_ordering_through_intertwiner():
    # the closed right-ordered law, pushed through phi, must match the
    # symmetric-ordering BCH series: an independent oracle for ⊞_right
    gr = group_preset("kappa_minkowski", kappa=1.0, d=1)
    C = gr.structure.C
    rng = np.random.default_rng(4)
    for _ in range(5):
        p, q = rng.normal(size=2) * 0.4, rng.normal(size=2) * 0.4
        lhs = ordering_transform(add(gr, p, q), 1.0, "right_to_sum")
        rhs = bch_compose(C, ordering_transform(p, 1.0, "right_to_sum"),
                          ordering_transform(q, 1.0, "right_to_sum"), order=10)
        assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_bch_exact_for_moyal():
    g = group_preset("moyal_extended", theta=1.0)
    rng = np.random.default_rng(5)
    p, q = rng.normal(size=5), rng.normal(size=5)
    z = bch_compose(g.structure.C, p, q, order=3)
    assert np.max(np.abs(np.asarray(z, complex) - np.asarray(add(g, p, q), complex))) < 1e-13


def test_bch_matches_su2():
    g = group_preset("su2_lambda", lam=1.0)
    rng = np.random.default_rng(6)
    p, q = rng.normal(size=3) * 0.2, rng.normal(size=3) * 0.2
    z = bch_compose(g.structure.C, p, q, order=12)
    assert np.max(np.abs(z - add(g, p, q))) < 1e-10


def test_generic_group_from_structure():
    g = group_preset("su2_lambda", lam=1.0)
    gb = group_from_structure(g.structure, order=10)
    p, q = np.array([0.1, 0.05, -0.08]), np.array([0.03, -0.1, 0.06])
    assert np.max(np.abs(np.asarray(add(gb, p, q)) - np.asarray(add(g, p, q)))) < 1e-12


# property tests -------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_group_axioms_property(seed):
    rng = np.random.default_rng(seed)
    for name, kw in [("kappa_minkowski", dict(kappa=1.0, d=2)),
                     ("rho_minkowski", dict(rho=1.0)),
                     ("su2_lambda", dict(lam=1.0))]:
        g = group_preset(name, **kw)
        scale = 0.3 if name == "su2_lambda" else 1.0
        p, q, r = (rng.normal(size=g.dim) * scale for _ in range(3))
        lhs = np.asarray(add(g, add(g, p, q), r))
        rhs = np.asarray(add(g, p, add(g, q, r)))
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * (1 + np.max(np.abs(lhs)))
        assert np.max(np.abs(np.asarray(add(g, p, inv(g, p))))) < 1e-12 * (1 + np.max(np.abs(p)))


def test_sum_ordering_haar_invariance():
    # validates the absolute-value weight choice for the sum ordering
    gs = group_preset("kappa_minkowski", kappa=1.0, d=2, ordering="sum")
    rng = np.random.default_rng(11)
    for _ in range(50):
        p, q = rng.normal(size=3), rng.normal(size=3)
        assert haar_invariance_check(gs, q, p, "left") < 1e-7
        assert haar_invariance_check(gs, q, p, "right") < 1e-7
    r = modular_identity_residuals(gs, rng.normal(size=3), rng.normal(size=3))
    assert max(r.values()) < 1e-10


def test_nonfinite_momentum_rejected():
    g = group_preset("kappa_minkowski", kappa=1.0, d=1)
    with pytest.raises(ValueError):
        add(g, [np.nan, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        inv(g, [np.inf, 1.0])


def test_moyal_imaginary_convention_round_trip():
    # verbatim fifth-slot law with the imaginary increment: still a group
    g = group_preset("moyal_extended", theta=1.0, phase_convention="imaginary")
    rng = np.random.default_rng(12)
    p, q, r = (rng.normal(size=5) for _ in range(3))
    lhs = np.asarray(add(g, add(g, p, q), r), complex)
    rhs = np.asarray(add(g, p, add(g, q, r)), complex)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert np.max(np.abs(np.asarray(add(g, p, inv(g, p)), complex))) < 1e-12
    out = np.asarray(add(g, p, q), complex)
    assert abs(out[4].imag) > 0  # the increment really is imaginary


# one law for one momentum and for stacks ----------------------------------

BATCH_GROUPS = {
    "kappa d=1": lambda: group_preset("kappa_minkowski", kappa=1.0, d=1),
    "kappa d=3": lambda: group_preset("kappa_minkowski", kappa=1.5, d=3),
    "kappa sum d=2": lambda: group_preset("kappa_minkowski", kappa=1.0, d=2, ordering="sum"),
    "moyal": lambda: group_preset("moyal_extended", theta=1.0),
    "moyal imaginary": lambda: group_preset("moyal_extended", theta=1.0,
                                            phase_convention="imaginary"),
    "rho": lambda: group_preset("rho_minkowski", rho=1.0),
    "su2": lambda: group_preset("su2_lambda", lam=1.0),
    "commutative": lambda: group_preset("commutative"),
    "bch su2": lambda: group_from_structure(group_preset("su2_lambda", lam=1.0).structure),
}
BATCH_TOL = 64 * np.finfo(float).eps  # batched and one-row evaluation may round differently


@pytest.mark.parametrize("label", sorted(BATCH_GROUPS))
def test_batched_laws_match_row_by_row(label):
    g = BATCH_GROUPS[label]()
    rng = np.random.default_rng(13)
    P, Q = rng.normal(size=(2, 12, g.dim)) * 0.3
    P[0] = 0.0                # identity, and the series branch of the special functions
    P[1, 0] = Q[2, 0] = 5e-5  # energies below the series switch point
    if g.name == "moyal_extended":
        P = P.astype(complex)
        P[3], Q[3] = [1, 2, 0, 0, 0.5 + 1j], 0.0  # the phase slot keeps its imaginary part

    def rows(f, *arrays):
        return np.array([f(*xs) for xs in zip(*arrays)])

    def same(batched, by_row, tol=BATCH_TOL):
        np.testing.assert_allclose(batched, by_row, rtol=tol, atol=tol)

    same(add_batch(g, P, Q), rows(g.add, P, Q))
    same(inv_batch(g, P), rows(g.inv, P))
    same(g.modular(P), rows(g.modular, P))
    same(g.haar_left(P), rows(g.haar_left, P))
    if g.name == "moyal_extended":
        assert add_batch(g, P, Q)[3, 4] == 0.5 + 1j
        return  # Haar checks take real momenta
    fd_tol = BATCH_TOL / 1e-5  # the finite-difference Jacobians divide rounding by h
    for side in ("left", "right"):
        same(haar_invariance_check(g, Q, P, side),
             rows(lambda q, p: haar_invariance_check(g, q, p, side), Q, P), fd_tol)
    batched = modular_identity_residuals(g, P, Q)
    by_row = [modular_identity_residuals(g, p, q) for p, q in zip(P, Q)]
    for key in ("homomorphism", "inverse"):
        same(batched[key], [r[key] for r in by_row])


BLOCK_SIZES = (BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5)


def _blocked_momenta(g, n, seed):
    """Two (n, dim) stacks with a NaN row last, an identity composition in a
    later block (su2's dead branch) and, for Moyal, a complex phase slot there.

    The NaN row makes bch_compose's last block complex while the blocks
    before it are real, so "bch su2" checks that no block is cast.
    """
    P, Q = np.random.default_rng(seed).normal(size=(2, n, g.dim)) * 0.3
    j = n - 3  # in the last block once n > BLOCK_ROWS
    P[j] = -Q[j]
    if g.name == "moyal_extended":
        P = P.astype(complex)
        P[j - 1, -1] += 0.5j
    P[-1] = np.nan
    return P, Q


def _assert_same_bits(batched, one_call):
    assert batched.dtype == one_call.dtype
    assert np.array_equal(batched, one_call, equal_nan=True)


@pytest.mark.filterwarnings("error")  # a block cast into the output would warn (ComplexWarning)
@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("label", sorted(BATCH_GROUPS))
def test_blocked_batches_equal_one_call(label, n):
    g = BATCH_GROUPS[label]()
    P, Q = _blocked_momenta(g, n, seed=n)
    _assert_same_bits(add_batch(g, P, Q), g.add(P, Q))
    _assert_same_bits(inv_batch(g, P), g.inv(P))


def test_batches_above_block_rows_go_in_blocks():
    calls = []

    def counted(law):
        def wrapped(*arrays):
            calls.append(len(arrays[0]))
            return law(*arrays)
        return wrapped

    base = group_preset("kappa_minkowski", kappa=1.0, d=1)
    g = dataclasses.replace(base, add=counted(base.add), inv=counted(base.inv))
    for n, sizes in ((BLOCK_ROWS, [BLOCK_ROWS]),
                     (3 * BLOCK_ROWS + 5, [BLOCK_ROWS] * 3 + [5])):
        P = np.ones((n, 2))
        calls.clear()
        add_batch(g, P, P)
        inv_batch(g, P)
        assert calls == sizes * 2


def test_batch_shape_checked():
    g = group_preset("kappa_minkowski", kappa=1.0, d=1)
    with pytest.raises(DimensionMismatch):
        add_batch(g, np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(DimensionMismatch):
        inv_batch(g, np.zeros((3, 3)))


# component-major closed forms against the row-major oracle ------------------

SHAPES = {"one": (), "rows": (5,), "stencil": (4, 2, None)}  # None: the momentum length


def _oracle_laws():
    """(label, group, {law name: (new law, oracle law)}, momentum scale)."""
    out = []
    for lam in (1.0, 2.5):
        g = group_preset("su2_lambda", lam=lam)
        sadd, w = MO.su2_laws(lam)
        out.append((f"su2 lam={lam}", g, {"add": (g.add, sadd), "haar": (g.haar_left, w)}, 0.5))
    for rho in (1.0, -0.7):
        g = group_preset("rho_minkowski", rho=rho)
        radd, rinv = MO.rho_laws(rho)
        out.append((f"rho {rho}", g, {"add": (g.add, radd), "inv": (g.inv, rinv)}, 1.0))
    for conv in MOYAL_PHASE_CONVENTIONS:
        for theta, dim in ((1.0, 5), (0.3, 3), (-2.0, 7)):
            g = group_preset("moyal_extended", theta=theta, dim=dim, phase_convention=conv)
            madd = MO.moyal_add(g.meta["Theta"], conv)
            out.append((f"moyal {conv} theta={theta} dim={dim}", g, {"add": (g.add, madd)}, 1.0))
    return out


ORACLE_LAWS = _oracle_laws()


def _assert_oracle_close(new, old):
    """Same shape and dtype, and within 64 eps (1 + |x|) in the dtype's eps."""
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape and new.dtype == old.dtype
    eps = np.finfo(old.dtype).eps
    assert np.all(np.abs(new - old) <= 64 * eps * (1 + np.abs(old)))


def _momenta(g, rng, shape, scale, complex_phase):
    """Two momentum arrays of leading shape `shape`, with zero and inverse rows planted."""
    lead = tuple(g.dim if s is None else s for s in shape)
    p, q = (rng.uniform(-scale, scale, size=lead + (g.dim,)) for _ in range(2))
    if p.ndim > 1:
        p[0] = 0.0             # the identity on the left
        q[1] = 0.0             # ... and on the right
        p[2:3] = -q[2:3]       # p + (-p): su2's nr < 1e-300 branch
    if complex_phase:
        p = p.astype(complex)
        p[..., -1] += 1j * rng.uniform(-1, 1, size=lead)
    return p, q


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(sorted(SHAPES)), st.booleans(),
       st.booleans())
def test_component_major_laws_match_oracle(seed, shape, read_only, complex_phase):
    rng = np.random.default_rng(seed)
    for label, g, laws, scale in ORACLE_LAWS:
        cplx = complex_phase and g.name == "moyal_extended"
        p, q = _momenta(g, rng, SHAPES[shape], scale, cplx)
        if read_only:  # as _fd_jacobian_det passes a fixed q against its stencil points
            q = np.broadcast_to(q.reshape(-1, g.dim)[-1], q.shape)
        for name, (new, old) in laws.items():
            args = (p, q) if name == "add" else (p,)
            _assert_oracle_close(new(*args), old(*args))


@pytest.mark.parametrize("label", [lab for lab, *_ in ORACLE_LAWS])
def test_component_major_laws_edge_rows(label):
    _, g, laws, _ = next(law for law in ORACLE_LAWS if law[0] == label)
    rng = np.random.default_rng(14)
    cases = [np.zeros((2, 0, g.dim)),                       # no rows at all
             np.zeros((2, 3, g.dim)),                       # identity with identity
             np.full((2, 2, g.dim), 1e-310),                # subnormal: the nr < 1e-300 branch
             rng.integers(-3, 4, size=(2, 3, g.dim)),       # integer momenta
             rng.normal(size=(2, 3, g.dim)).astype(np.float32)]
    p, q = rng.normal(size=(2, 3, g.dim)) * 0.5
    cases.append(np.stack((p, -p)))                         # exactly opposite rows
    for P, Q in cases:
        for name, (new, old) in laws.items():
            args = (P, Q) if name == "add" else (P,)
            _assert_oracle_close(new(*args), old(*args))
    if g.name == "su2_lambda":
        assert np.all(g.add(np.full(3, 1e-310), np.zeros(3)) == 0.0)
        assert np.all(g.add(p, -p) == 0.0)
        # a vector part whose squares underflow: nr = 0 with r != 0 gives +0.0
        tiny = np.array([[-1.5e-162, 0.0, 0.0], [-3e-162, 1e-162, 0.0]])
        out, ref = g.add(tiny, 0 * tiny), laws["add"][1](tiny, 0 * tiny)
        _assert_oracle_close(out, ref)
        assert np.array_equal(np.signbit(out), np.signbit(ref)) and np.all(out[0] == 0.0)


@pytest.mark.parametrize("name", ["kappa_minkowski", "moyal_extended", "rho_minkowski",
                                  "su2_lambda"])
def test_add_batch_keeps_non_finite_rows_non_finite(name):
    # add_batch checks only the shape, so a NaN or inf row must not come out finite
    g = group_preset(name)
    P = np.full((4, g.dim), 0.2)
    P[0, 0], P[1, 0], P[2, -1] = np.nan, np.inf, np.nan
    with np.errstate(all="ignore"):
        out = np.asarray(add_batch(g, P, np.full((4, g.dim), 0.1)))
    assert [bool(np.isfinite(row).all()) for row in out] == [False, False, False, True]


def test_moyal_real_momenta_imaginary_phase_is_complex():
    g = group_preset("moyal_extended", theta=1.0, phase_convention="imaginary")
    madd = MO.moyal_add(g.meta["Theta"], "imaginary")
    rng = np.random.default_rng(15)
    for shape in ((5,), (6, 5), (3, 2, 5, 5)):
        p, q = rng.normal(size=(2,) + shape)
        out = g.add(p, q)
        assert out.dtype == complex and np.any(out[..., 4].imag != 0)
        _assert_oracle_close(out, madd(p, q))
        np.testing.assert_array_equal(out[..., :4], p[..., :4] + q[..., :4])


def test_su2_law_allocates_no_more_than_oracle():
    g = group_preset("su2_lambda", lam=1.0)
    sadd, _ = MO.su2_laws(1.0)
    P, Q = np.random.default_rng(16).normal(size=(2, 10 ** 6, 3)) * 0.3
    peaks = []
    for law in (g.add, sadd):
        tracemalloc.start()
        try:
            law(P, Q)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]
