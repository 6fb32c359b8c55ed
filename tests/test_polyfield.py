"""The flat exact container against Fraction arithmetic.

Every term of a `Sparse` element is keyed by (basis key, power) and holds
one Gaussian rational as a canonical (re, im, d) triple.  The oracles here
redo each sum and product term by term on `Fraction` pairs.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from qstkit import hopf_algebra as H
from qstkit import twist as T
from qstkit.polyfield import Poly, _add, _fractions, _mul, _neg, _q

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
wide_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=60)
gaussians = st.tuples(st.one_of(fractions, wide_fractions), st.one_of(fractions, wide_fractions))
nonzero = gaussians.filter(lambda z: z[0] or z[1])
orders = st.integers(0, 6)
exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
powers = st.integers(-3, 8)


def _canonical(x):
    """Integer re, im and d, with d > 0 and no factor common to all three."""
    re, im, d = x
    return all(type(v) is int for v in x) and d > 0 and gcd(re, im, d) == 1


def _fr_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gaussians, gaussians)
def test_gaussian_rational_matches_fraction_oracle(a, b):
    x, y = _q(a), _q(b)
    cases = [
        (x, a), (y, b),
        (_add(x, y), (a[0] + b[0], a[1] + b[1])),
        (_add(x, _neg(y)), (a[0] - b[0], a[1] - b[1])),
        (_neg(x), (-a[0], -a[1])),
        (_mul(x, y), _fr_mul(a, b)),
    ]
    for got, want in cases:
        assert _fractions(got) == want and _canonical(got), (got, want)
    assert _add(x, _neg(x)) == (0, 0, 1)
    assert _add(x, y) == _add(y, x) and _mul(x, y) == _mul(y, x)


def test_gaussian_rational_reduces_every_result():
    half = _q(Fraction(1, 2))
    assert half == (1, 0, 2) and _add(half, half) == (1, 0, 1)
    assert _mul(_q(Fraction(1, 3)), (3, 0, 1)) == (1, 0, 1)
    # over the product of unequal denominators: 1/6 + 1/3 = 9/18, reduced to 1/2
    assert _add(_q(Fraction(1, 6)), _q(Fraction(1, 3))) == (1, 0, 2)
    assert _add(_q(Fraction(1, 6)), _q((Fraction(1, 3), Fraction(-2, 3)))) == (3, -4, 6)
    # ... and here the whole denominator: (1 + 3i)/6 + (1 - 3i)/3 = (1 - i)/2
    assert _add((1, 3, 6), (1, -3, 3)) == (1, -1, 2)
    assert _mul((1, 1, 2), (1, -1, 1)) == (1, 0, 1)
    assert _q(0) == _q((Fraction(0), Fraction(0))) == (0, 0, 1)
    assert _q((0.5, -2)) == (1, -4, 2)


# (key, power) terms against a Fraction reference

def _fr_terms(x):
    return {k: _fractions(c) for k, c in x.terms.items()}


def _reference_mul(x, y, order=None):
    """x * y term by term on Fraction pairs; with an order, only the powers 0..order."""
    out = {}
    for (k1, n1), c1 in x.terms.items():
        for (k2, n2), c2 in y.terms.items():
            for (k, kn), kc in x._key_mul(k1, k2):
                n = n1 + n2 + kn
                if order is not None and not 0 <= n <= order:
                    continue
                z = _fr_mul(_fr_mul(_fractions(c1), _fractions(c2)), _fractions(kc))
                r0, i0 = out.get((k, n), (0, 0))
                out[(k, n)] = (r0 + z[0], i0 + z[1])
    return {k: z for k, z in out.items() if z[0] or z[1]}


def _tseries(n, order, terms):
    return T.TSeries(n, order, {k: _q(z) for k, z in terms.items()})


tseries_terms = st.dictionaries(st.tuples(st.tuples(exponents, exponents), powers), nonzero,
                                max_size=6)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tseries_terms, tseries_terms, orders)
def test_truncated_product_equals_multiply_then_truncate(t1, t2, order):
    x, y = _tseries(2, order, t1), _tseries(2, order, t2)
    prod = x * y
    assert _fr_terms(prod) == _reference_mul(x, y, order)
    assert all(_canonical(c) for c in prod.terms.values())
    # the same factors in a space of a high order, multiplied, then cut to `order`
    wide = _tseries(2, 99, t1) * _tseries(2, 99, t2)
    assert prod == T.TSeries(2, order, wide.terms.items())


@settings(max_examples=25, deadline=None, derandomize=True)
@given(tseries_terms, tseries_terms, orders)
def test_tseries_product_equals_reference(t1, t2, order):
    x, y = _tseries(2, order, t1), _tseries(2, order, t2)
    # the constructor keeps only the powers 0..order
    assert all(0 <= n <= order for _, n in x.terms)
    want = _tseries(2, order, _reference_mul(x, y, order))
    assert x * y == want
    assert repr(x * y) == repr(want)


words = st.lists(st.integers(0, 11), min_size=0, max_size=2).map(tuple)
scalars = st.tuples(powers, nonzero.map(lambda z: _q(z)))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(scalars, words, scalars, words)
def test_tensor_product_equals_reference(c1, w1, c2, w2):
    x = H.coproduct(H.Element(words=[(c1, w1)]))
    y = H.coproduct(H.Element(words=[(c2, w2)]))
    assert _fr_terms(x * y) == _reference_mul(x, y)
    assert all(_canonical(c) for c in (x * y).terms.values())


def test_one_key_holds_two_powers():
    """Terms of one key at different powers stay apart through sums, products and cuts."""
    p1, p2 = H.gen(H.PX1), H.gen(H.PX2)
    x = p1 + p1.scale((2, (1, 0, 1)))            # (1 + κ^2) P1
    prod = x * p2.scale((-1, (0, 1, 3)))        # times (i/3)κ^-1 P2
    assert prod.terms == {((H.PX1, H.PX2), -1): (0, 1, 3), ((H.PX1, H.PX2), 1): (0, 1, 3)}
    assert repr(prod) == "[(0+1/3i)·κ^-1]P1·P2 + [(0+1/3i)·κ]P1·P2"
    assert (x - p1).terms == {((H.PX1,), 2): (1, 0, 1)}
    # a series: one monomial at kbar^0, kbar^1 and kbar^3, cut at order 2
    key = ((1, 0), (0, 1))
    s = T.TSeries(2, 2, {(key, 0): (1, 0, 1), (key, 1): (0, 1, 1), (key, 3): (5, 0, 1)})
    assert s.terms == {(key, 0): (1, 0, 1), (key, 1): (0, 1, 1)}
    assert s.order_component(1).terms == {(key, 1): (0, 1, 1)}
    assert s.order_component(0).terms == {(key, 0): (1, 0, 1)}
    assert _fr_terms(s * s) == _reference_mul(s, s, 2)
    assert len({k for k, _ in (s * s).terms}) == 1 and len((s * s).terms) == 3


poly_terms = st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3), gaussians, max_size=6)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(poly_terms, st.integers(0, 2))
def test_higher_derivative_is_the_repeated_first_derivative(terms, i):
    p = Poly(3, terms)
    assert p.deriv(i, 0) == p  # n = 0 is the identity
    assert p.deriv(i, 1) == p.deriv(i)
    assert p.deriv(i, 2) == p.deriv(i).deriv(i)
    assert p.deriv(i, 3) == p.deriv(i).deriv(i).deriv(i)
    # a term of degree below n in x_i drops
    for n in range(5):
        assert p.deriv(i, n).terms.keys() == {(e[:i] + (e[i] - n,) + e[i + 1:], 0)
                                              for e, _ in p.terms if e[i] >= n}
    assert p.deriv(i, 5).is_zero()


def test_derivative_keeps_the_power_and_drops_low_terms():
    p = Poly(2)._like({((3, 1), 2): (1, 0, 1), ((1, 4), 0): (0, 1, 2)})  # x^3 y κ^2 + (i/2) x y^4
    assert p.deriv(0, 2).terms == {((1, 1), 2): (6, 0, 1)}
    assert p.deriv(1, 4).terms == {((1, 0), 0): (0, 12, 1)}
    assert repr(p) == "(0+1/2i)xy^4 + 1x^3y·κ^2"
