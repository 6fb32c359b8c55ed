import pytest

from qstkit import twist as T

# coefficients as (re, im, d) triples; keys carry the kbar power
ONE, MINUS_ONE, I, MINUS_I = (1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)


def test_cocycle_both_sides_equal_exponential():
    F = T.abelian_twist(3)
    lhs = T.embed(F, (0, 1), 3) * T.apply_delta(F, 0)
    rhs = T.embed(F, (1, 2), 3) * T.apply_delta(F, 1)
    assert (lhs - rhs).is_zero()
    t3 = T.TSeries(3, 3, {
        (((1, 0), (0, 1), (0, 0)), 1): I,
        (((1, 0), (0, 0), (0, 1)), 1): I,
        (((0, 0), (1, 0), (0, 1)), 1): I,
    })
    assert (lhs - T.exp_series(t3)).is_zero()


def test_tseries_repr():
    assert repr(T.abelian_twist(2)) == ("[(1+0i)](Y^0 ⊗ Y^0) + [(0+1i)·κ](X^1 ⊗ Y^1)"
                                        " + [(-1/2+0i)·κ^2](X^2 ⊗ Y^2)")


def test_twist_check_order4():
    chk = T.twist_check(T.abelian_twist(4))
    assert chk["passed"]
    assert all(chk["two_cocycle_by_order"])


def test_normalization_and_order0():
    F = T.abelian_twist(4)
    assert (T.apply_counit(F, 0) - T.TSeries.unit(1, 4)).is_zero()
    assert (T.apply_counit(F, 1) - T.TSeries.unit(1, 4)).is_zero()
    assert (F.order_component(0) - T.TSeries.unit(2, 4)).is_zero()


def test_non_invertible_series_rejected():
    bad = T.TSeries(2, 3, {(((1, 0), (0, 1)), 0): ONE})  # zero constant term
    with pytest.raises(ValueError):
        T.series_inverse(bad)
    with pytest.raises(ValueError):
        T.exp_series(T.TSeries.unit(2, 3))  # kbar^0 part nonzero


def test_R_matrix_closed_form():
    F = T.abelian_twist(4)
    st = T.twisted_structures(F)
    gen = T.TSeries(2, 4, {
        (((0, 1), (1, 0)), 1): I,
        (((1, 0), (0, 1)), 1): MINUS_I,
    })
    assert (st["R"] - T.exp_series(gen)).is_zero()


def test_triangularity_qyb_braided():
    st = T.twisted_structures(T.abelian_twist(4))
    assert st["triangular"]
    assert st["quantum_yang_baxter"]
    assert st["braided_commutative"]
    assert st["passed"]


def _twisted_coproduct(F, a, b):
    """Delta^F(X^a Y^b) = F Delta(X^a Y^b) F^{-1}."""
    return F * T.delta_mono(a, b, F.order) * T.series_inverse(F)


def _chi(F):
    """chi = m(id ⊗ S)(F), with S(X^a Y^b) = (-1)^{a+b} X^a Y^b on the right slot."""
    return F.map_keys(lambda k: (((((k[0][0] + k[1][0], k[0][1] + k[1][1]),), 0),
                                  ((-1) ** sum(k[1]), 0, 1)),), T.TSeries(1, F.order))


def _twisted_antipode(F, a, b):
    """S^F(X^a Y^b) = chi S(X^a Y^b) chi^{-1}."""
    chi = _chi(F)
    base = T.TSeries(1, F.order, {(((a, b),), 0): ((-1) ** (a + b), 0, 1)})
    return chi * base * T.series_inverse(chi)


def test_trivial_twist():
    st = T.twisted_structures(T.TSeries.unit(2, 4))  # the trivial twist F = 1 ⊗ 1
    assert (st["R"] - T.TSeries.unit(2, 4)).is_zero()
    # Delta^F = Delta for the trivial twist
    assert (_twisted_coproduct(T.TSeries.unit(2, 4), 2, 1) - T.delta_mono(2, 1, 4)).is_zero()
    assert st["passed"]


def test_twisted_coproduct_commuting_generators():
    # the twist is built from X, Y which commute: Delta^F(X) = Delta(X)
    F = T.abelian_twist(4)
    assert (_twisted_coproduct(F, 1, 0) - T.delta_mono(1, 0, 4)).is_zero()
    assert (_twisted_coproduct(F, 0, 1) - T.delta_mono(0, 1, 4)).is_zero()


def test_chi_and_twisted_antipode():
    F = T.abelian_twist(4)
    # chi = exp(-i kbar X Y) on the single-slot algebra
    gen = T.TSeries(1, 4, {(((1, 1),), 1): MINUS_I})
    assert (_chi(F) - T.exp_series(gen)).is_zero()
    # S^F on primitives X, Y still flips sign (chi commutes with X and Y)
    sX = _twisted_antipode(F, 1, 0)
    assert (sX - T.TSeries(1, 4, {(((1, 0),), 0): MINUS_ONE})).is_zero()


def test_star_product_on_module_matches_hand_expansion():
    # f = u, g = v: u * v = uv + i kbar (du/du)(dv/dv) = uv + i kbar
    order = 3
    Finv = T.series_inverse(T.abelian_twist(order))
    f = T.ModulePoly.monomial(order, 1, 0)
    g = T.ModulePoly.monomial(order, 0, 1)
    prod = T.star_product(Finv, f, g)
    expect = T.ModulePoly(order, {
        ((1, 1), 0): ONE,
        ((0, 0), 1): MINUS_I,
    })
    assert (prod - expect).is_zero()


def test_semiclassical_r_matrix():
    st = T.twisted_structures(T.abelian_twist(4))
    assert (st["R"].order_component(0) - T.TSeries.unit(2, 4)).is_zero()
