from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from qstkit import hopf_algebra as H
from qstkit import twist as T
from qstkit.polyfield import ONE, ZERO, KScalar

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


# integer numerators over one denominator, against Fraction arithmetic on `.c`

def _fr_sum(*pairs_lists):
    out = {}
    for pairs in pairs_lists:
        for n, (re, im) in pairs:
            r0, i0 = out.get(n, (Fraction(0), Fraction(0)))
            out[n] = (r0 + re, i0 + im)
    return {n: p for n, p in out.items() if p[0] or p[1]}


def _fr_times(a, b, order=None):
    return _fr_sum([(n1 + n2, (r1 * r2 - i1 * i2, r1 * i2 + i1 * r2))
                    for n1, (r1, i1) in a.items() for n2, (r2, i2) in b.items()
                    if order is None or 0 <= n1 + n2 <= order])


def _canonical(k):
    """Integer numerators, no zero pair, d > 0, no factor common to d and every numerator."""
    nums = [x for p in k.num.values() for x in p]
    return (type(k.d) is int and k.d > 0 and all(type(x) is int for x in nums)
            and all(re or im for re, im in k.num.values())
            and gcd(k.d, *nums) == 1 and (k.num or k.d == 1))


wide_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=60)
wide_kscalars = st.dictionaries(st.integers(-3, 8), st.tuples(wide_fractions, wide_fractions),
                                max_size=5).map(KScalar)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(kscalars, wide_kscalars), st.one_of(kscalars, wide_kscalars),
       st.one_of(st.none(), orders), st.integers(-3, 3))
def test_integer_kscalar_matches_fraction_oracle(a, b, order, lo):
    ca, cb = a.c, b.c
    neg = {n: (-re, -im) for n, (re, im) in ca.items()}
    nb = {n: (-re, -im) for n, (re, im) in cb.items()}
    cases = [
        (a + b, _fr_sum(ca.items(), cb.items())),
        (a - b, _fr_sum(ca.items(), nb.items())),
        (-a, neg),
        (a.times(b, order), _fr_times(ca, cb, order)),
        (a * b, _fr_times(ca, cb)),
        (a.truncated(6 if order is None else order, lo),
         {n: p for n, p in ca.items() if lo <= n <= (6 if order is None else order)}),
    ]
    for got, want in [(a, ca), (b, cb), *cases]:
        assert got.c == want and _canonical(got)
    zero = a + (-a)
    assert zero.num == {} and zero.d == 1 and zero == KScalar() and _canonical(zero)
    assert (a + b == b + a) and (a * b == b * a)


def test_integer_kscalar_reduces_every_result():
    half = KScalar.make(1, 0) * KScalar.make(Fraction(1, 2))
    assert half.d == 2 and half.num == {0: (1, 0)}
    assert half + half == ONE and (half + half).d == 1 and (half + half).num == {0: (1, 0)}
    third = KScalar.make(Fraction(1, 3))
    assert third * KScalar.make(3) == ONE and (third * KScalar.make(3)).d == 1
    # a truncation that drops the only term with a unit numerator gains a common factor
    k = KScalar({0: (Fraction(1, 6), 0), 1: (Fraction(1, 3), Fraction(-2, 3))})
    assert k.d == 6 and k.truncated(1, 1) == KScalar({1: (Fraction(1, 3), Fraction(-2, 3))})
    assert k.truncated(1, 1).d == 3 and k.truncated(0).d == 6
    assert KScalar({0: (0, 0)}) == ZERO and ZERO.d == 1 and repr(ZERO) == "0"
