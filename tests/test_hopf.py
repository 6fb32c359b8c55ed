from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstkit import hopf_algebra as H


def test_normal_order_EK():
    # E K_j -> K_j E + (i/kappa) P_j E
    e = H.Element(words=[(H.ONE, (H.E, H.K1))])
    expect = H.Element(terms={
        (H.K1, H.E): H.ONE,
        (H.PX1, H.E): H.KScalar({-1: (Fraction(0), Fraction(1))}),
    })
    assert (e - expect).is_zero()


def test_normal_order_P_sorts_freely():
    e = H.Element(words=[(H.ONE, (H.PX2, H.PX1))])
    assert (e - H.Element(terms={(H.PX1, H.PX2): H.ONE})).is_zero()


def test_already_normal_is_fixed():
    mono = (H.K1, H.J2, H.P0, H.PX3, H.E)
    e = H.Element(words=[(H.ONE, mono)])
    assert list(e.terms) == [mono]


def test_E_Einv_cancel():
    e = H.Element(words=[(H.ONE, (H.E, H.EINV))])
    assert (e - H.unit()).is_zero()
    e2 = H.Element(words=[(H.ONE, (H.EINV, H.E))])
    assert (e2 - H.unit()).is_zero()


def test_element_and_tensor_repr():
    e = H.Element(words=[(H.ONE, (H.E, H.K1))])
    assert repr(e) == "[(1+0i)]K1·E + [(0+1i)·κ^-1]P1·E"
    assert repr(H.coproduct(H.gen(H.K1))) == (
        "[(1+0i)](K1 ⊗ 1) + [(1+0i)·κ^-1](P2 ⊗ J3) + [(-1+0i)·κ^-1](P3 ⊗ J2)"
        " + [(1+0i)](E ⊗ K1)")
    assert repr(H.Element()) == repr(H.Tensor(2)) == "0"


def test_coproduct_P():
    d = H.coproduct(H.gen(H.PX1))
    expect = H.Tensor(2, {((H.PX1,), ()): H.ONE, ((H.E,), (H.PX1,)): H.ONE})
    assert (d - expect).is_zero()


def test_antipode_examples():
    assert (H.antipode(H.unit()) - H.unit()).is_zero()
    assert H.counit(H.unit()) == H.ONE
    # S(P_j E) = S(E) S(P_j) = -E^{-2} P_j
    sp = H.antipode(H.Element(words=[(H.ONE, (H.PX1, H.E))]))
    expect = H.Element(terms={(H.PX1, H.EINV, H.EINV): H.KScalar.make(-1)})
    assert (sp - expect).is_zero()


def test_antipode_squared_on_E():
    # S(E) E = 1 = eps(E) 1
    lhs = H.antipode(H.gen(H.E)) * H.gen(H.E)
    assert (lhs - H.unit()).is_zero()


@pytest.mark.parametrize("name", H.ALL_GENERATOR_NAMES)
def test_hopf_axioms_per_generator(name):
    r = H.hopf_axiom_suite(name)
    assert r["coassociativity"], r["residuals"]["coassociativity"]
    assert r["counit"], r["residuals"]["counit_left"]
    assert r["coinverse"], r["residuals"]["coinverse_left"]


def test_coassociativity_P_structure():
    # both iterated coproducts of P_j read P⊗1⊗1 + E⊗P⊗1 + E⊗E⊗P
    d = H.coproduct(H.gen(H.PX2))
    t = H._apply_slot(d, 0, H.coproduct)
    expect = H.Tensor(3, {
        ((H.PX2,), (), ()): H.ONE,
        ((H.E,), (H.PX2,), ()): H.ONE,
        ((H.E,), (H.E,), (H.PX2,)): H.ONE,
    })
    assert (t - expect).is_zero()


def test_bialgebra_compat_all_relations():
    rels = H.printed_relations()
    assert "[P1,K1]" in rels and "[K1,E]" in rels
    for name in rels:
        r = H.bialgebra_compat_check(name, rels)
        assert r["algebra"], name
        assert r["coproduct"], (name, r["residuals"]["coproduct"])
        assert r["counit"], name
        assert r["antipode"], (name, r["residuals"]["antipode"])


def test_passed_is_every_flag():
    for name in H.ALL_GENERATOR_NAMES:
        r = H.hopf_axiom_suite(name)
        assert r["passed"] is (r["coassociativity"] and r["counit"] and r["coinverse"]) is True
    # a relation with a wrong right-hand side fails in the algebra, and so fails
    rels = H.printed_relations()
    a, b, rhs = rels["[J1,J2]"]
    r = H.bialgebra_compat_check("[J1,J2]", {"[J1,J2]": (a, b, rhs.scale(H.KScalar.make(2)))})
    assert r["algebra"] is False and r["passed"] is False


def test_full_suite_builds_the_relation_table_once(monkeypatch):
    builds = []
    real = H.printed_relations

    def counted():
        builds.append(1)
        return real()

    monkeypatch.setattr(H, "printed_relations", counted)
    rep = H.full_suite()
    assert len(builds) == 1
    assert len(rep["relations"]) == 51


def test_full_suite_and_timing():
    import time
    t0 = time.time()
    rep = H.full_suite()
    assert rep["passed"]
    assert time.time() - t0 < 10.0


def test_e_series_consistency_orders():
    for order in (2, 3, 5):
        assert H.e_series_consistency(order)


def test_kscalar_arithmetic_exact():
    a = H.KScalar({1: (Fraction(1, 2), Fraction(0))})
    b = H.KScalar({-1: (Fraction(0), Fraction(1, 3))})
    prod = a * b
    assert prod.c == {0: (Fraction(0), Fraction(1, 6))}
    assert (a - a).is_zero()


def test_no_floats_anywhere():
    # coefficients after heavy rewriting stay exact Gaussian rationals over kappa powers
    e = H.Element(words=[(H.ONE, (H.E, H.K1, H.PX1, H.K2, H.P0))])
    for coeff in e.terms.values():
        for n, (re, im) in coeff.c.items():
            assert isinstance(re, Fraction) and isinstance(im, Fraction)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_rewrite_confluence_random_orders(seed):
    # each product normalizes its factors' words through _key_mul in its own order
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    word = tuple(int(x) for x in rng.integers(0, 12, size=n))
    whole = H.Element(words=[(H.ONE, word)])
    for k in range(n + 1):
        split = H.Element(words=[(H.ONE, word[:k])]) * H.Element(words=[(H.ONE, word[k:])])
        assert (split - whole).is_zero(), (word, k)
    gens = [H.Element({(g,): H.ONE}) for g in word]
    assert (reduce(lambda x, y: x * y, gens) - whole).is_zero()
    assert (reduce(lambda x, y: y * x, reversed(gens)) - whole).is_zero()


def test_antipode_is_antihomomorphism_on_samples():
    rng = np.random.default_rng(7)
    for _ in range(10):
        w1 = tuple(int(x) for x in rng.integers(0, 12, size=2))
        w2 = tuple(int(x) for x in rng.integers(0, 12, size=2))
        a = H.Element(words=[(H.ONE, w1)])
        b = H.Element(words=[(H.ONE, w2)])
        assert (H.antipode(a * b) - H.antipode(b) * H.antipode(a)).is_zero()


def test_delta_is_homomorphism_on_samples():
    rng = np.random.default_rng(8)
    for _ in range(8):
        w1 = tuple(int(x) for x in rng.integers(0, 12, size=2))
        w2 = tuple(int(x) for x in rng.integers(0, 12, size=2))
        a = H.Element(words=[(H.ONE, w1)])
        b = H.Element(words=[(H.ONE, w2)])
        assert (H.coproduct(a * b) - H.coproduct(a) * H.coproduct(b)).is_zero()
