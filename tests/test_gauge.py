import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waves_oracle import unit_wave
from qstkit import gauge as G
from qstkit.momentum import group_preset
from qstkit.polyfield import Poly
from qstkit.waves import WavePacket, act, concat, dagger, plane_wave, star

THETA4 = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]


@pytest.fixture(scope="module")
def grp():
    return group_preset("kappa_minkowski", kappa=1.0, d=3)


def _wave(g, rng, amp=True):
    a = rng.normal() + 1j * rng.normal() if amp else 1.0
    return plane_wave(g, rng.normal(size=g.dim), a)


def test_twisted_leibniz_exact(grp):
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = _wave(grp, rng) + _wave(grp, rng)
        h = _wave(grp, rng)
        for mu in range(4):
            assert G.twisted_leibniz_residual(mu, f, h) < 1e-12


def test_leibniz_eigenvalue_identity(grp):
    # X0 on e_p * e_q: kappa(1 - e^{-(p0+q0)/k}) splits as the twisted sum
    p0, q0 = 0.37, -0.6
    lhs = 1 - math.exp(-(p0 + q0))
    rhs = (1 - math.exp(-p0)) + math.exp(-p0) * (1 - math.exp(-q0))
    assert lhs == pytest.approx(rhs, rel=1e-15)


def test_twisted_reality_exact(grp):
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = _wave(grp, rng) + _wave(grp, rng) + _wave(grp, rng)
        for mu in range(4):
            assert G.twisted_reality_residual(mu, f) < 1e-12
    e0 = unit_wave(grp)
    for mu in range(4):
        assert G.twisted_reality_residual(mu, e0) < 1e-15


# a gauge field is the stack of its components; F is that of its components m < n, row-major
PAIRS = [(m, n) for m in range(4) for n in range(m + 1, 4)]


def test_field_strength_zero_field(grp):
    F = G.field_strength(WavePacket.zero(grp, 4))
    assert F.count == len(PAIRS) == 6
    assert max(F.norm()) == 0.0


def _oracle(comps, mu, nu):
    """F_mu,nu by its term expansion, one packet per term."""
    direct = act("X", comps[nu], index=mu) - act("X", comps[mu], index=nu)
    comm = star(act("E", comps[mu]), comps[nu]) - star(act("E", comps[nu]), comps[mu])
    return direct + comm.scale(-1j)


def test_field_strength_antisymmetry_and_oracle(grp):
    rng = np.random.default_rng(2)
    comps = [_wave(grp, rng) for _ in range(4)]
    F = G.field_strength(concat(comps))
    assert F.count == len(PAIRS)
    # each stored component m < n is the expansion of F_mn and minus that of F_nm
    for (mu, nu), Fmn in zip(PAIRS, F.split(len(PAIRS))):
        assert (Fmn - _oracle(comps, mu, nu)).norm() < 1e-13
        assert (Fmn + _oracle(comps, nu, mu)).norm() < 1e-12


def test_pure_gauge_flatness(grp):
    rng = np.random.default_rng(3)
    A0 = WavePacket.zero(grp, 4)
    for _ in range(5):
        u = _wave(grp, rng, amp=False)
        F = G.field_strength(G.gauge_transform(A0, u))
        assert max(F.norm()) < 1e-12


def test_unit_transform_is_identity(grp):
    rng = np.random.default_rng(4)
    A = concat([_wave(grp, rng) for _ in range(4)])
    Au = G.gauge_transform(A, unit_wave(grp))
    assert Au.count == 4
    assert max((Au - A).norm()) < 1e-13


def test_covariance_random_single_waves(grp):
    rng = np.random.default_rng(5)
    for _ in range(8):
        u = _wave(grp, rng, amp=False)
        A = concat([_wave(grp, rng) for _ in range(4)])
        assert G.covariance_residual(A, u) < 1e-12


def test_stacked_residuals_are_the_one_packet_residuals(grp):
    rng = np.random.default_rng(6)
    P, a = rng.normal(size=(2, 6, 4)), rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
    a[0, 4] = np.nan
    f, h = plane_wave(grp, P[0], a[0]), plane_wave(grp, P[1], a[1])
    one = [(plane_wave(grp, P[0, k], a[0, k]), plane_wave(grp, P[1, k], a[1, k])) for k in range(6)]
    for mu in range(4):
        for res, want in ((G.twisted_leibniz_residual(mu, f, h),
                           [G.twisted_leibniz_residual(mu, x, y) for x, y in one]),
                          (G.twisted_reality_residual(mu, f + h),
                           [G.twisted_reality_residual(mu, x + y) for x, y in one])):
            # bit for bit, and the NaN only in its own label
            assert np.array_equal(res, want, equal_nan=True)
            assert np.isnan(res[4]) and np.all(np.delete(res, 4) < 1e-12)
    A = concat([f, h, f.scale(2j), h])
    U = rng.normal(size=(6, 4))
    res = G.covariance_residual(A, plane_wave(grp, U))
    want = [G.covariance_residual(concat([x, y, x.scale(2j), y]), plane_wave(grp, p))
            for (x, y), p in zip(one, U)]
    assert np.array_equal(res, want, equal_nan=True)
    assert np.isnan(res[4]) and np.all(np.delete(res, 4) < 1e-12)


def test_gauge_field_count_must_be_a_multiple_of_the_dim(grp):
    u = unit_wave(grp)
    for count in (1, 2, 3, 5, 6):
        A = WavePacket.zero(grp, count)
        for run in (lambda: G.field_strength(A), lambda: G.gauge_transform(A, u),
                    lambda: G.covariance_residual(A, u)):
            with pytest.raises(ValueError):
                run()


def test_dimension_scan(grp):
    scan = G.dimension_constraint_scan(range(1, 9), 1.0, [0.25, 0.5, 1.0, -0.75])
    assert scan["zero_set"] == [4]
    assert scan["deviations"][3] == pytest.approx(math.e - 1)
    scan0 = G.dimension_constraint_scan(range(1, 9), 1.0, [0.0])
    assert scan0["zero_set"] == list(range(1, 9))  # p0 = 0: E acts trivially


def test_prefactor_packet_matches_exponent(grp):
    rng = np.random.default_rng(7)
    for d in (2, 3, 4, 6):
        p = rng.normal(size=4)
        u = plane_wave(grp, p)
        # E^{d-2}(u) * E^2(u^dagger), the action's gauge-variation prefactor
        pre = star(act("E", u, power=d - 2), act("E", dagger(u), power=2))
        assert len(pre) == 1
        mom, amp = pre.terms[0]
        assert np.max(np.abs(np.asarray(mom))) < 1e-12
        assert amp == pytest.approx(math.exp((4 - d) * p[0]))


def test_dimension_scan_overflow_and_nan_are_not_finite():
    scan = G.dimension_constraint_scan(range(1, 21), 0.01, [0.25, 0.5, 1.0, -0.75])
    assert scan["deviations"][4] == 0.0 and scan["deviations"][20] == math.inf
    assert scan["zero_set"] == [4]
    nan = G.dimension_constraint_scan([3, 4], math.nan, [0.25])
    assert all(math.isnan(dev) for dev in nan["deviations"].values())
    assert nan["zero_set"] == []


def test_dimension_scan_keeps_nan_and_inf_in_any_order():
    # the deviation of d is the largest over the samples, and a NaN sample is
    # the deviation wherever it stands: the builtin max would drop it
    nan = G.dimension_constraint_scan(range(1, 9), 1.0, [0.25, math.nan, 0.5])
    assert all(math.isnan(dev) for dev in nan["deviations"].values())
    assert nan["zero_set"] == []
    big = G.dimension_constraint_scan([1, 4, 7], 1.0, [1.0, 1000.0])
    assert big["deviations"] == {1: math.inf, 4: 0.0, 7: 1.0}
    assert big["zero_set"] == [4]
    both = G.dimension_constraint_scan([1, 4], 1.0, [1000.0, math.nan, 0.5])
    assert math.isnan(both["deviations"][1]) and math.isnan(both["deviations"][4])
    assert G.dimension_constraint_scan([4], 0.3, [0.25, -0.75, 5.0])["deviations"] == {4: 0.0}


# Seiberg-Witten --------------------------------------------------------------

def _vars():
    return [Poly.var(4, i) for i in range(4)]


def test_poly_repr():
    x = [Poly.var(3, i) for i in range(3)]
    p = x[0] * x[1].scale((1, -2)) + x[2].scale(Fraction(3, 2)) + Poly.const(3, 1)
    assert repr(p) == "1 + 3/2z + (1+-2i)xy"
    assert repr(Poly.zero(3)) == "0"


def test_sw_zero_and_constant():
    x = _vars()
    zero = G.PolyGaugeField([Poly.zero(4)] * 4)
    hat = G.sw_map_order1(zero, THETA4)
    assert all(c.is_zero() for c in hat.components)
    Fh = G.sw_field_strength_order1(zero, THETA4)
    assert all(Fh[m][n].is_zero() for m in range(4) for n in range(4))
    const = G.PolyGaugeField([Poly.const(4, 3), Poly.const(4, -2), Poly.zero(4), Poly.zero(4)])
    hat = G.sw_map_order1(const, THETA4)
    for a, b in zip(hat.components, const.components):
        assert (a - b).is_zero()


def test_sw_consistency_linear():
    x = _vars()
    A = G.PolyGaugeField([x[1], x[0].scale(-1), x[3], x[2].scale(2)])
    alpha = x[0].scale(2) + x[1].scale(-1)
    res = G.sw_consistency_residual(A, alpha, THETA4)
    assert all(r.is_zero() for r in res)


def test_sw_consistency_degree2():
    x = _vars()
    A = G.PolyGaugeField([x[1] * x[2], x[0] * x[0], x[3] * x[1], x[0] * x[2]])
    alpha = x[0] * x[1] + x[2] * x[2]
    res = G.sw_consistency_residual(A, alpha, THETA4)
    assert all(r.is_zero() for r in res)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_sw_consistency_random_polys(seed):
    rng = np.random.default_rng(seed)
    x = _vars()

    def rand_poly(max_deg=2):
        out = Poly.zero(4)
        for _ in range(3):
            term = Poly.const(4, int(rng.integers(-3, 4)))
            for _ in range(int(rng.integers(0, max_deg + 1))):
                term = term * x[int(rng.integers(0, 4))]
            out = out + term
        return out

    A = G.PolyGaugeField([rand_poly() for _ in range(4)])
    alpha = rand_poly()
    res = G.sw_consistency_residual(A, alpha, THETA4)
    assert all(r.is_zero() for r in res)


def test_sw_consistency_fails_a_map_off_by_one_term(monkeypatch):
    # the row vouches for the map `gauge sw` prints: a map with (1/7) A_0 d_0 A_1
    # added to its A_hat_2 is not gauge-equivariant, so the residual must see it
    right = G.sw_map_order1

    def wrong(A, Theta):
        hat = right(A, Theta).components
        extra = (A.components[0] * A.components[1].deriv(0)).scale(Fraction(1, 7))
        return G.PolyGaugeField([*hat[:2], hat[2] + extra, *hat[3:]])

    monkeypatch.setattr(G, "sw_map_order1", wrong)
    x = _vars()
    A = G.PolyGaugeField([x[1] * x[2], x[0] * x[0], x[3] * x[1], x[0] * x[2]])
    res = G.sw_consistency_residual(A, x[0] * x[1] + x[2] * x[2], THETA4)
    assert [r.is_zero() for r in res] == [True, True, False, True]
    from qstkit import cli
    rows = {r["check"]: r for r in cli.suite_gauge(cli.RunConfig())}
    assert not rows["sw-consistency-identically-zero"]["passed"]


def test_sw_field_strength_two_paths():
    x = _vars()
    A = G.PolyGaugeField([x[1] * x[2], x[0].scale(2) + x[3] * x[3],
                          Poly.const(4, 1), x[0] * x[1]])
    F1 = G.sw_field_strength_order1(A, THETA4)
    F2 = G.sw_field_strength_from_hat(A, THETA4)
    assert all((F1[m][n] - F2[m][n]).is_zero() for m in range(4) for n in range(4))


def test_sw_degree_overflow():
    x = _vars()
    big = x[0] * x[0] * x[0] * x[0] * x[0]
    with pytest.raises(ValueError):
        G.PolyGaugeField([big, Poly.zero(4), Poly.zero(4), Poly.zero(4)])
