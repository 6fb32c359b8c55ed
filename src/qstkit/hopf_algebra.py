"""Exact kappa-Poincare Hopf engine.

Elements of the deformed Poincare enveloping algebra (d = 3 spatial
dimensions, bicrossproduct-type basis) are sums of normal-ordered monomials
K < J < P0 < P_j < E, each term keyed by its word and its power of the
deformation scale kappa, with a Gaussian-rational coefficient.  No floats
anywhere: the rewrite system, coproduct, counit and antipode are all exact.
A scalar is a (kappa power, coefficient) pair.

E and E^{-1} are independent formal generators with E E^{-1} = 1,
[P, E] = [J, E] = 0, [K_j, E] = -(i/kappa) P_j E and the derived
[K_j, P0] = i P_j; a separate invariant ties E back to the exponential
series of -P0/kappa order by order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial

from .polyfield import _ONE, Sparse, _mul, _neg, _q

# generator ids, in normal order
K1, K2, K3, J1, J2, J3, P0, PX1, PX2, PX3, E, EINV = range(12)
GEN_NAMES = {K1: "K1", K2: "K2", K3: "K3", J1: "J1", J2: "J2", J3: "J3",
             P0: "P0", PX1: "P1", PX2: "P2", PX3: "P3", E: "E", EINV: "Einv"}
_KS = (K1, K2, K3)
_JS = (J1, J2, J3)
_PS = (PX1, PX2, PX3)
# scalars as (kappa power, coefficient) pairs: 1, ±i, ±i/κ, 1/κ, ±(i/2)κ and ±(i/2)/κ
_S1, _I, _NEG_I = (0, _ONE), (0, (0, 1, 1)), (0, (0, -1, 1))
_I_K, _NEG_I_K, _INV_K = (-1, (0, 1, 1)), (-1, (0, -1, 1)), (-1, _ONE)
_I_HALF_K, _NEG_I_HALF_K = (1, (0, 1, 2)), (1, (0, -1, 2))
_I_HALF_INV_K, _NEG_I_HALF_INV_K = (-1, (0, 1, 2)), (-1, (0, -1, 2))


def _eps(a, b, c):
    """Levi-Civita on spatial indices 0,1,2."""
    return ((a - b) * (b - c) * (c - a)) // 2 if {a, b, c} == {0, 1, 2} else 0


def _eps_sum(i, j, coef, word):
    """sum_l eps_{ijl} coef word(l), as (scalar, word) pairs."""
    return [(coef if e > 0 else (coef[0], _neg(coef[1])), word(l))
            for l in range(3) if (e := _eps(i, j, l))]


# the order class of each generator id: E and E^{-1} share one
_ORDER_CLASS = (*range(E), E, E)


def _ordered(m1, m2):
    """Whether the word m1 + m2 of two normal-ordered monomials is itself normal-ordered.

    Only the junction can be out of order.  It is in order when the class of
    m1's last generator is below that of m2's first, or the two are the same
    generator; equal classes of different generators are an E, E^{-1} pair,
    which cancels.
    """
    if not (m1 and m2):
        return True
    a, b = m1[-1], m2[0]
    return a == b or _ORDER_CLASS[a] < _ORDER_CLASS[b]


def _grouplike(mono):
    """Whether the counit of the monomial is 1 (a word in E, E^{-1}); else it is 0."""
    return all(g in (E, EINV) for g in mono)


def _word(mono):
    return "·".join(GEN_NAMES[g] for g in mono) or "1"


# ---------------------------------------------------------------------------
# commutator table [lo, hi] for order(lo) < order(hi); entries are word lists

def _commutator(lo, hi):
    """[lo, hi] as a list of (scalar, word-tuple); words need not be normal."""
    if lo in _KS:
        i = lo - K1
        if hi in _KS:
            return _eps_sum(i, hi - K1, _NEG_I, lambda l: (J1 + l,))  # -i eps J_l
        if hi in _JS:
            return _eps_sum(i, hi - J1, _I, lambda l: (K1 + l,))   # +i eps K_l
        if hi == P0:
            return [(_I, (PX1 + i,))]                               # i P_i
        if hi in _PS:
            j = hi - PX1
            out = [(_NEG_I_K, (PX1 + j, PX1 + i))]                  # -(i/κ) P_j P_i
            if i == j:
                out.append((_I_HALF_K, ()))                        # +(i/2) κ
                out.append((_NEG_I_HALF_K, (E, E)))                # -(i/2) κ E^2
                for l in range(3):
                    out.append((_I_HALF_INV_K, (PX1 + l, PX1 + l)))  # +(i/2κ) P_l P_l
            return out
        if hi == E:
            return [(_NEG_I_K, (PX1 + i, E))]
        if hi == EINV:
            return [(_I_K, (PX1 + i, EINV))]
    if lo in _JS and hi in _JS:
        return _eps_sum(lo - J1, hi - J1, _I, lambda l: (J1 + l,))     # +i eps J_l
    if lo in _JS and hi in _PS:
        return _eps_sum(lo - J1, hi - PX1, _I, lambda l: (PX1 + l,))   # +i eps P_l
    # all remaining pairs commute: [J,P0], [J,E], [P0,P], [P0,E], [P,P], [P,E]
    return []


# ---------------------------------------------------------------------------
# elements: (normal-ordered word, kappa power) -> coefficient

def _normalize_word(coef: tuple, word: tuple) -> list:
    """Rewrite a generator word times a scalar to normal order; returns ((mono, power), coef) pairs.

    A monomial may occur more than once; the pairs are summed by the
    `Element` they are fed to.  Each step rewrites the leftmost misordered
    pair or E E^{-1} cancellation.  Terminates for any reduction order: track
    (K-degree, J-degree, length, inversion count) lexicographically.  A swap
    keeps all degrees and drops the inversion count by one; every correction
    term from the table either lowers the K-degree ([K,K] -> J, [K,P0] -> P,
    [K,P] -> P/E words, [K,E] -> P E) or keeps it and lowers the J-degree
    ([K,J] -> K, [J,J] -> J, [J,P] -> P); E E^{-1} cancellation shortens the
    word.
    """
    out = []
    work = [(*coef, list(word))]
    while work:
        n, c, w = work.pop()
        for idx in range(len(w) - 1):
            a, b = w[idx], w[idx + 1]
            if (a == E and b == EINV) or (a == EINV and b == E):
                work.append((n, c, w[:idx] + w[idx + 2:]))
                break
            if _ORDER_CLASS[a] > _ORDER_CLASS[b]:
                # a b = b a + [a, b],  [a, b] = -[b, a] from the (lo, hi) table
                work.append((n, c, w[:idx] + [b, a] + w[idx + 2:]))
                for (cn, cc), ww in _commutator(b, a):
                    work.append((n + cn, _mul(c, _neg(cc)), w[:idx] + list(ww) + w[idx + 2:]))
                break
        else:
            out.append(((tuple(w), n), c))
    return out


class Element(Sparse):
    """Exact element of the kappa-Poincare enveloping algebra.

    Keys are (normal-ordered generator word, kappa power); `words` adds
    (scalar, word) pairs in any order, normal-ordered by the rewrite system.
    """

    __slots__ = ()

    def __init__(self, terms=(), words=None):
        if words:
            terms = [*Element(terms).terms.items(),
                     *(p for c, w in words for p in _normalize_word(c, tuple(w)))]
        super().__init__(terms)

    def _like(self, pairs):
        return Element(pairs)

    def _key_mul(self, m1, m2):
        """The product of two normal-ordered monomials, as ((mono, power), coef) pairs.

        Every key of an `Element` is normal-ordered: the constructor takes
        normal words or normalizes them, and products keep it so.  When the
        junction of m1 and m2 is in order (`_ordered`), m1 + m2 is normal
        already and is the product; otherwise the rewrite system orders it.
        """
        if _ordered(m1, m2):
            return (((m1 + m2, 0), _ONE),)
        return _normalize_word(_S1, m1 + m2)

    def _show(self, mono, power, coef):
        return super()._show(_word(mono), power, coef)


def unit() -> Element:
    return Element(terms={((), 0): _ONE})


def gen(g: int) -> Element:
    return Element(terms={((g,), 0): _ONE})


GENERATORS = {
    "P0": gen(P0), "P1": gen(PX1), "P2": gen(PX2), "P3": gen(PX3),
    "J1": gen(J1), "J2": gen(J2), "J3": gen(J3),
    "K1": gen(K1), "K2": gen(K2), "K3": gen(K3),
    "E": gen(E),
}


# ---------------------------------------------------------------------------
# tensor elements

def _outer(factors):
    """((key tuple, power sum), coefficient product) for each choice of one term per factor."""
    out = [(((), 0), _ONE)]
    for terms in factors:
        out = [((k + (k2,), n + n2), c2 if c is _ONE else c if c2 is _ONE else _mul(c, c2))
               for (k, n), c in out for (k2, n2), c2 in terms]
    return out


class Tensor(Sparse):
    """Element of the n-fold tensor power, slots normal-ordered."""

    __slots__ = ("n",)

    def __init__(self, n, terms=()):
        self.n = n
        super().__init__(terms)

    def _like(self, pairs):
        return Tensor(self.n, pairs)

    def _key_mul(self, k1, k2):
        """Slot by slot as `Element._key_mul`: an ordered junction is its concatenation."""
        return _outer((((a + b, 0), _ONE),) if _ordered(a, b)
                      else Element(_normalize_word(_S1, a + b)).terms.items()
                      for a, b in zip(k1, k2))

    def _show(self, key, power, coef):
        return super()._show(f"({' ⊗ '.join(map(_word, key))})", power, coef)


# ---------------------------------------------------------------------------
# Hopf structure maps (generator tables extended (anti)multiplicatively)

def _delta_gen(g) -> Tensor:
    one = ()
    if g == P0 or g in _JS:
        return Tensor(2, {(((g,), one), 0): _ONE, ((one, (g,)), 0): _ONE})
    if g in _PS:
        return Tensor(2, {(((g,), one), 0): _ONE, (((E,), (g,)), 0): _ONE})
    if g in (E, EINV):
        return Tensor(2, {(((g,), (g,)), 0): _ONE})
    if g in _KS:
        # + (1/κ) eps_{jkl} P_k ⊗ J_l  (sign fixed by bialgebra compatibility
        # of the [P, K] relation; see notes)
        eps = [((w, n), c) for k in range(3)
               for (n, c), w in _eps_sum(g - K1, k, _INV_K, lambda l: ((PX1 + k,), (J1 + l,)))]
        return Tensor(2, [((((g,), one), 0), _ONE), ((((E,), (g,)), 0), _ONE), *eps])
    raise ValueError(g)


def _antipode_gen(g) -> Element:
    if g == P0 or g in _JS:
        return Element({((g,), 0): _neg(_ONE)})
    if g in (E, EINV):
        return gen(EINV if g == E else E)
    if g not in _PS + _KS:
        raise ValueError(g)
    words = [((0, _neg(_ONE)), (EINV, g))]
    if g in _KS:
        # + (1/κ) E^{-1} eps_{jkl} P_k J_l, with the P-then-J ordering that
        # closes the coinverse identity
        words += [p for k in range(3)
                  for p in _eps_sum(g - K1, k, _INV_K, lambda l: (EINV, PX1 + k, J1 + l))]
    return Element(words=words)


@cache
def _delta_mono(mono) -> Tensor:
    acc = Tensor(2, {(((), ()), 0): _ONE})
    for g in mono:
        acc = acc * _delta_gen(g)
    return acc


@cache
def _antipode_mono(mono) -> Element:
    acc = unit()
    for g in reversed(mono):
        acc = acc * _antipode_gen(g)
    return acc


def coproduct(el: Element) -> Tensor:
    """Delta, extended as an algebra homomorphism."""
    return el.map_keys(lambda m: _delta_mono(m).terms.items(), Tensor(2))


def counit(el: Element) -> Element:
    """The counit, as its multiple of the unit."""
    return el.map_keys(lambda m: ((((), 0), _ONE),) if _grouplike(m) else ())


def antipode(el: Element) -> Element:
    """S, extended as an algebra antihomomorphism."""
    return el.map_keys(lambda m: _antipode_mono(m).terms.items())


# ---------------------------------------------------------------------------
# tensor helpers for the axiom suite

def _apply_slot(T: Tensor, slot: int, fn_tensor) -> Tensor:
    """Apply a map monomial -> Tensor(2), such as `_delta_mono`, to one slot: Tensor(n+1)."""
    return T.map_keys(lambda k: [((k[:slot] + k2 + k[slot + 1:], n), c) for (k2, n), c in
                                 fn_tensor(k[slot]).terms.items()],
                      Tensor(T.n + 1))


def _contract_counit(T: Tensor, slot: int) -> Element:
    assert T.n == 2
    return T.map_keys(lambda k: [((k[1 - slot], 0), _ONE)] if _grouplike(k[slot]) else [],
                      Element())


def _mono(m) -> Element:
    return Element({(m, 0): _ONE})


def _multiply_slots_with_map(T: Tensor, fn_left=_mono, fn_right=_mono) -> Element:
    """m((f ⊗ g) T) for slot maps f, g: monomial -> Element, such as `_antipode_mono` (n = 2)."""
    return T.map_keys(lambda k: (fn_left(k[0]) * fn_right(k[1])).terms.items(), Element())


# ---------------------------------------------------------------------------
# axiom suites

def hopf_axiom_suite(gen_name: str) -> dict:
    """Coassociativity, counit and coinverse identities for one generator; `passed`: all three."""
    x = GENERATORS[gen_name]
    d = coproduct(x)
    co1 = _apply_slot(d, 0, _delta_mono)
    co2 = _apply_slot(d, 1, _delta_mono)
    coassoc = co1 - co2

    cu_l = _contract_counit(d, 0) - x
    cu_r = _contract_counit(d, 1) - x

    eps_x = counit(x)
    coin_l = _multiply_slots_with_map(d, fn_left=_antipode_mono) - eps_x
    coin_r = _multiply_slots_with_map(d, fn_right=_antipode_mono) - eps_x

    flags = {"coassociativity": coassoc.is_zero(),
             "counit": cu_l.is_zero() and cu_r.is_zero(),
             "coinverse": coin_l.is_zero() and coin_r.is_zero()}
    return {
        "generator": gen_name,
        **flags,
        "passed": all(flags.values()),
        "residuals": {
            "coassociativity": repr(coassoc),
            "counit_left": repr(cu_l),
            "counit_right": repr(cu_r),
            "coinverse_left": repr(coin_l),
            "coinverse_right": repr(coin_r),
        },
    }


def commutator_element(a: Element, b: Element) -> Element:
    return a * b - b * a


def printed_relations() -> dict:
    """The bracket relations of the algebra sector, as (A, B, rhs) triples."""
    def eps_rhs(j, k, coef, base):
        return Element(words=_eps_sum(j, k, coef, lambda l: (base + l,)))

    rel = {}
    for j in range(3):
        for k in range(3):
            if j < k:
                rel[f"[J{j+1},J{k+1}]"] = (gen(J1 + j), gen(J1 + k), eps_rhs(j, k, _I, J1))
                rel[f"[K{j+1},K{k+1}]"] = (gen(K1 + j), gen(K1 + k), eps_rhs(j, k, _NEG_I, J1))
            rel[f"[J{j+1},K{k+1}]"] = (gen(J1 + j), gen(K1 + k), eps_rhs(j, k, _I, K1))
            rel[f"[P{j+1},J{k+1}]"] = (gen(PX1 + j), gen(J1 + k), eps_rhs(j, k, _I, PX1))
            if j >= k:
                rel[f"[P{j+1},P{k+1}]"] = (gen(PX1 + j), gen(PX1 + k), Element())
        rel[f"[P{j+1},E]"] = (gen(PX1 + j), gen(E), Element())
        rel[f"[J{j+1},E]"] = (gen(J1 + j), gen(E), Element())
        rel[f"[K{j+1},E]"] = (gen(K1 + j), gen(E), Element(words=[(_NEG_I_K, (PX1 + j, E))]))
        rel[f"[K{j+1},P0]"] = (gen(K1 + j), gen(P0), gen(PX1 + j).scale(_I))
        for k in range(3):
            words = [(_I_K, (PX1 + j, PX1 + k))]
            if j == k:
                words.append((_NEG_I_HALF_K, ()))
                words.append((_I_HALF_K, (E, E)))
                for l in range(3):
                    words.append((_NEG_I_HALF_INV_K, (PX1 + l, PX1 + l)))
            rel[f"[P{j+1},K{k+1}]"] = (gen(PX1 + j), gen(K1 + k), Element(words=words))
    return rel


def bialgebra_compat_check(name: str, relations: dict) -> dict:
    """Delta, counit and antipode compatibility of one printed relation.

    `passed` holds when the relation holds in the algebra and all three maps
    respect it.  `relations` is the `printed_relations()` table to read it from.
    """
    a, b, rhs = relations[name]
    lhs = commutator_element(a, b)
    alg = lhs - rhs
    da, db = coproduct(a), coproduct(b)
    d_res = (da * db - db * da) - coproduct(rhs)
    e_res = counit(lhs) - counit(rhs)
    sa, sb = antipode(a), antipode(b)
    s_res = (sb * sa - sa * sb) - antipode(rhs)
    res = {"algebra": alg, "coproduct": d_res, "counit": e_res, "antipode": s_res}
    flags = {k: r.is_zero() for k, r in res.items()}
    return {"relation": name, **flags, "passed": all(flags.values()),
            "residuals": {k: repr(r) for k, r in res.items()}}


def exp_series_E(order: int) -> Element:
    """Truncated series of e^{-P0/kappa} as an element in P0 powers."""
    return Element({((P0,) * n, -n): _q(Fraction((-1) ** n, factorial(n)))
                    for n in range(order + 1)})


def e_series_consistency(order: int) -> bool:
    """[K_j, S_N] = -(i/kappa) P_j S_{N-1} for the truncated exponential."""
    for j in range(3):
        sN = exp_series_E(order)
        sN1 = exp_series_E(order - 1)
        lhs = commutator_element(gen(K1 + j), sN)
        rhs = (gen(PX1 + j) * sN1).scale(_NEG_I_K)
        if not (lhs - rhs).is_zero():
            return False
    return True


ALL_GENERATOR_NAMES = tuple(GENERATORS)


def full_suite() -> dict:
    """Hopf axioms on every generator plus compatibility of every relation."""
    gens = {name: hopf_axiom_suite(name) for name in ALL_GENERATOR_NAMES}
    table = printed_relations()
    rels = {name: bialgebra_compat_check(name, table) for name in table}
    ok = all(r["passed"] for r in (*gens.values(), *rels.values()))
    return {"generators": gens, "relations": rels, "passed": ok}
