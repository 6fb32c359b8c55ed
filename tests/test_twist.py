from fractions import Fraction
from math import factorial, perm

import pytest

from qstkit import twist as T
from qstkit.polyfield import Poly

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
    # f = u, g = v under F^{-1} = exp(-i kbar X ⊗ Y): u * v = uv - i kbar (du/du)(dv/dv)
    order = 3
    Finv = T.series_inverse(T.abelian_twist(order))
    prod = T.star_product(Finv, Poly(2, {(1, 0): 1}), Poly(2, {(0, 1): 1}))
    expect = Poly(2)._like({((1, 1), 0): ONE, ((0, 0), 1): MINUS_I})
    assert (prod - expect).is_zero()
    assert repr(prod) == "(0+-1i)·κ + 1xy"  # the kbar power is printed


def _closed_form_star(a, b, c, d, order):
    """u^a v^b * u^c v^d under F^{-1} = exp(-i kbar X ⊗ Y), from integers alone:
    the sum over k <= order of (-i kbar)^k / k! perm(a, k) perm(d, k) u^{a+c-k} v^{b+d-k}."""
    out = {}
    for k in range(min(order, a, d) + 1):
        q = Fraction(perm(a, k) * perm(d, k), factorial(k))
        re, im = [(q, 0), (0, -q), (-q, 0), (0, q)][k % 4]  # (-i)^k q
        den = (re or im).denominator
        out[((a + c - k, b + d - k), k)] = (int(re * den), int(im * den), den)
    return out


@pytest.mark.parametrize("order", [4, 6])
def test_star_product_equals_the_closed_form(order):
    Finv = T.series_inverse(T.abelian_twist(order))
    samples = (*T.BRAIDED_SAMPLES, (0, 0), (4, 3))
    for a, b in samples:
        for c, d in samples:
            prod = T.star_product(Finv, Poly(2, {(a, b): 1}), Poly(2, {(c, d): 1}))
            assert prod.terms == _closed_form_star(a, b, c, d, order), (a, b, c, d)


@pytest.mark.parametrize("order", [4, 6])
def test_braided_commutativity_sees_a_wrong_r_matrix(order):
    F = T.abelian_twist(order)
    Finv = T.series_inverse(F)
    R = T.flip(F) * Finv
    assert T.braided_commutativity_check(Finv, T.series_inverse(R))
    assert not T.braided_commutativity_check(Finv, R)  # R in place of R^{-1}
    assert not T.braided_commutativity_check(Finv, T.TSeries.unit(2, order))  # R = 1 ⊗ 1
    assert not T.braided_commutativity_check(F, T.series_inverse(R))  # F in place of F^{-1}


def test_semiclassical_r_matrix():
    st = T.twisted_structures(T.abelian_twist(4))
    assert (st["R"].order_component(0) - T.TSeries.unit(2, 4)).is_zero()
