from functools import reduce
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstkit import hopf_algebra as H

# coefficients are (re, im, d) triples for (re + i im) / d; keys carry the kappa power
ONE = (1, 0, 1)
S1 = (0, ONE)  # the scalar 1, as a (kappa power, coefficient) pair


def test_normal_order_EK():
    # E K_j -> K_j E + (i/kappa) P_j E
    e = H.Element(words=[(S1, (H.E, H.K1))])
    expect = H.Element(terms={
        ((H.K1, H.E), 0): ONE,
        ((H.PX1, H.E), -1): (0, 1, 1),
    })
    assert (e - expect).is_zero()


def test_normal_order_P_sorts_freely():
    e = H.Element(words=[(S1, (H.PX2, H.PX1))])
    assert (e - H.Element(terms={((H.PX1, H.PX2), 0): ONE})).is_zero()


def test_already_normal_is_fixed():
    mono = (H.K1, H.J2, H.P0, H.PX3, H.E)
    e = H.Element(words=[(S1, mono)])
    assert list(e.terms) == [(mono, 0)]


def test_E_Einv_cancel():
    e = H.Element(words=[(S1, (H.E, H.EINV))])
    assert (e - H.unit()).is_zero()
    e2 = H.Element(words=[(S1, (H.EINV, H.E))])
    assert (e2 - H.unit()).is_zero()


def test_element_and_tensor_repr():
    e = H.Element(words=[(S1, (H.E, H.K1))])
    assert repr(e) == "[(1+0i)]K1·E + [(0+1i)·κ^-1]P1·E"
    assert repr(H.coproduct(H.gen(H.K1))) == (
        "[(1+0i)](K1 ⊗ 1) + [(1+0i)·κ^-1](P2 ⊗ J3) + [(-1+0i)·κ^-1](P3 ⊗ J2)"
        " + [(1+0i)](E ⊗ K1)")
    assert repr(H.Element()) == repr(H.Tensor(2)) == "0"


def test_coproduct_P():
    d = H.coproduct(H.gen(H.PX1))
    expect = H.Tensor(2, {(((H.PX1,), ()), 0): ONE, (((H.E,), (H.PX1,)), 0): ONE})
    assert (d - expect).is_zero()


def test_antipode_examples():
    assert (H.antipode(H.unit()) - H.unit()).is_zero()
    assert H.counit(H.unit()) == H.unit()
    assert H.counit(H.gen(H.E) + H.gen(H.P0).scale((-1, (0, 1, 1)))) == H.unit()
    assert H.counit(H.gen(H.P0)).is_zero()
    # S(P_j E) = S(E) S(P_j) = -E^{-2} P_j
    sp = H.antipode(H.Element(words=[(S1, (H.PX1, H.E))]))
    expect = H.Element(terms={((H.PX1, H.EINV, H.EINV), 0): (-1, 0, 1)})
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
    t = H._apply_slot(d, 0, H._delta_mono)
    expect = H.Tensor(3, {
        (((H.PX2,), (), ()), 0): ONE,
        (((H.E,), (H.PX2,), ()), 0): ONE,
        (((H.E,), (H.E,), (H.PX2,)), 0): ONE,
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
    r = H.bialgebra_compat_check("[J1,J2]", {"[J1,J2]": (a, b, rhs.scale((0, (2, 0, 1))))})
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
    # (1/2) kappa times (i/3) / kappa is i/6 at kappa^0
    a = H.unit().scale((1, (1, 0, 2)))
    b = H.unit().scale((-1, (0, 1, 3)))
    assert (a * b).terms == {((), 0): (0, 1, 6)}
    assert (a - a).is_zero()
    assert (a + a).terms == {((), 1): (1, 0, 1)}


def test_no_floats_anywhere():
    # coefficients after heavy rewriting stay canonical Gaussian rationals: integer
    # (re, im, d) with d > 0 and no common factor, one term per (word, kappa power)
    e = H.Element(words=[(S1, (H.E, H.K1, H.PX1, H.K2, H.P0))])
    assert e.terms and any(n for _, n in e.terms)
    for (mono, n), (re, im, d) in e.terms.items():
        assert all(type(v) is int for v in (n, re, im, d)) and d > 0
        assert gcd(re, im, d) == 1 and (re or im)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_rewrite_confluence_random_orders(seed):
    # each product normalizes its factors' words through _key_mul in its own order
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    word = tuple(int(x) for x in rng.integers(0, 12, size=n))
    whole = H.Element(words=[(S1, word)])
    for k in range(n + 1):
        split = H.Element(words=[(S1, word[:k])]) * H.Element(words=[(S1, word[k:])])
        assert (split - whole).is_zero(), (word, k)
    gens = [H.gen(g) for g in word]
    assert (reduce(lambda x, y: x * y, gens) - whole).is_zero()
    assert (reduce(lambda x, y: y * x, reversed(gens)) - whole).is_zero()


def test_antipode_is_antihomomorphism_on_samples():
    rng = np.random.default_rng(7)
    for _ in range(10):
        w1 = tuple(int(x) for x in rng.integers(0, 12, size=2))
        w2 = tuple(int(x) for x in rng.integers(0, 12, size=2))
        a = H.Element(words=[(S1, w1)])
        b = H.Element(words=[(S1, w2)])
        assert (H.antipode(a * b) - H.antipode(b) * H.antipode(a)).is_zero()


def test_delta_is_homomorphism_on_samples():
    rng = np.random.default_rng(8)
    for _ in range(8):
        w1 = tuple(int(x) for x in rng.integers(0, 12, size=2))
        w2 = tuple(int(x) for x in rng.integers(0, 12, size=2))
        a = H.Element(words=[(S1, w1)])
        b = H.Element(words=[(S1, w2)])
        assert (H.coproduct(a * b) - H.coproduct(a) * H.coproduct(b)).is_zero()


@pytest.fixture
def fresh_caches():
    """Empty the memoized coproducts and antipodes before and after a test that mutates the algebra."""
    for f in (H._delta_mono, H._antipode_mono):
        f.cache_clear()
    yield
    for f in (H._delta_mono, H._antipode_mono):
        f.cache_clear()


def test_the_kappa_power_of_a_term_is_honoured(monkeypatch, fresh_caches):
    """(i/2) kappa^2 in place of (i/2) kappa in [K_j, P_j] breaks three relations.

    A container that dropped the power from the term key would not see it.
    """
    monkeypatch.setattr(H, "_I_HALF_K", (2, (0, 1, 2)))
    monkeypatch.setattr(H, "_NEG_I_HALF_K", (2, (0, -1, 2)))
    rep = H.full_suite()
    assert rep["passed"] is False
    assert [n for n, r in rep["relations"].items() if not r["passed"]] == \
        ["[K1,K2]", "[K1,K3]", "[K2,K3]"]


# --- products of normal monomials: an ordered junction is the concatenation ---

def _normal_monomials(max_len):
    """Every normal-ordered word of length <= max_len over the 12 generators, E^{-1} included."""
    words, out = [()], [()]
    for _ in range(max_len):
        words = [w + (g,) for w in words for g in range(12)
                 if H.Element(words=[(S1, w + (g,))]).terms.keys() == {(w + (g,), 0)}]
        out += words
    return out


def test_junction_shortcut_equals_the_rewrite_system():
    monos = _normal_monomials(2)
    assert len(monos) == 90  # 1 + 12 + (12 squares + 65 pairs of increasing class)
    T = H.Tensor(2)
    for m1 in monos:
        for m2 in monos:
            want = H.Element(H._normalize_word(S1, m1 + m2))
            assert H.Element(want._key_mul(m1, m2)) == want, (m1, m2)
            slots = H.Tensor(2, H._outer([want.terms.items(),
                                          H.Element(H._normalize_word(S1, m2 + m1)).terms.items()]))
            assert H.Tensor(2, T._key_mul((m1, m2), (m2, m1))) == slots, (m1, m2)
