from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qstkit import hopf_algebra as H
from qstkit import twist as T
from qstkit.polyfield import KScalar

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
kscalars = st.dictionaries(st.integers(-3, 8), st.tuples(fractions, fractions),
                           max_size=5).map(KScalar)
orders = st.integers(0, 6)
exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))


def _schoolbook(a, b):
    """The full product of two KScalars, one power at a time, by exact sums."""
    out = {}
    for n in {n1 + n2 for n1 in a.c for n2 in b.c}:
        terms = [(r1 * r2 - i1 * i2, r1 * i2 + i1 * r2) for n1, (r1, i1) in a.c.items()
                 for n2, (r2, i2) in b.c.items() if n1 + n2 == n]
        out[n] = (sum(t[0] for t in terms), sum(t[1] for t in terms))
    return KScalar(out)


def _reference_mul(x, y):
    """The product computed as before: multiply each coefficient pair, then truncate."""
    pairs = []
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            c = c1 * c2 if x.order is None else (c1 * c2).truncated(x.order)
            pairs += [(k, c * kc) for k, kc in x._key_mul(k1, k2)]
    return x._like(pairs)


def _exact(k):
    return all(isinstance(re, Fraction) and isinstance(im, Fraction) and (re or im)
               for re, im in k.c.values())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kscalars, kscalars, orders)
def test_truncated_product_equals_multiply_then_truncate(a, b, order):
    prod = a.times(b, order)
    assert prod == (a * b).truncated(order) == _schoolbook(a, b).truncated(order)
    assert prod.c == (a * b).truncated(order).c and _exact(prod)
    assert a.times(b) == a * b == _schoolbook(a, b)
    assert _exact(a * b) and _exact(a + b) and _exact(-a) and (a + -a).c == {}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.dictionaries(st.tuples(exponents, exponents), kscalars, max_size=4),
       st.dictionaries(st.tuples(exponents, exponents), kscalars, max_size=4), orders)
def test_tseries_product_equals_reference(t1, t2, order):
    x, y = T.TSeries(2, order, t1), T.TSeries(2, order, t2)
    assert x * y == _reference_mul(x, y)
    assert repr(x * y) == repr(_reference_mul(x, y))


words = st.lists(st.integers(0, 11), min_size=0, max_size=2).map(tuple)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(kscalars, words, kscalars, words)
def test_tensor_product_equals_reference(c1, w1, c2, w2):
    x = H.coproduct(H.Element(words=[(c1, w1)]))
    y = H.coproduct(H.Element(words=[(c2, w2)]))
    assert x * y == _reference_mul(x, y)
