"""Drinfel'd twists over a free abelian algebra, exact and order-truncated.

The twist engine works with tensor powers of the polynomial algebra on two
commuting primitive generators X, Y.  Each term is keyed by its monomial and
its power of the formal deformation symbol kbar, with an exact
Gaussian-rational coefficient; powers above a tracked order N are dropped.
It verifies the 2-cocycle and normalization conditions, builds the R-matrix
F21 F^{-1}, and checks triangularity, quantum Yang-Baxter and the braided
commutativity of the twisted product on the module of `Poly`s in u, v,
where X = d/du and Y = d/dv act through `Poly.deriv`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .polyfield import _ONE, Poly, Sparse, _mul, _q

_I_KBAR = (1, (0, 1, 1))  # i kbar, as a (kbar power, coefficient) pair


class TSeries(Sparse):
    """n-fold tensor of the abelian algebra, kbar-truncated at a fixed order.

    Keys are (((aX, aY), ...) with one exponent pair per slot, kbar power)."""

    __slots__ = ("n", "order")

    def __init__(self, n, order, terms=()):
        self.n = n
        self.order = order
        super().__init__(terms)

    def _like(self, pairs):
        return TSeries(self.n, self.order, pairs)

    def _key_mul(self, k1, k2):
        return (((tuple((a1 + a2, b1 + b2) for (a1, b1), (a2, b2) in zip(k1, k2)), 0), _ONE),)

    @staticmethod
    def unit(n, order):
        return TSeries(n, order, {(((0, 0),) * n, 0): _ONE})

    def order_component(self, m):
        """The kbar^m component."""
        return self._like(t for t in self.terms.items() if t[0][1] == m)

    def _show(self, key, power, coef):
        mono = " ⊗ ".join(("X^%d Y^%d" % (a, b)).replace("X^0 ", "").replace(" Y^0", "") or "1"
                          for a, b in key)
        return super()._show(f"({mono})", power, coef)


def _power_series(t: TSeries, coef) -> TSeries:
    """1 + sum_k coef(k) t^k for k = 1..order, stopping once t^k vanishes; coef(k) is a scalar."""
    out = power = TSeries.unit(t.n, t.order)
    for k in range(1, t.order + 1):
        power = power * t
        if power.is_zero():
            break
        out = out + power.scale(coef(k))
    return out


def exp_series(t: TSeries) -> TSeries:
    """exp of a series with vanishing kbar^0 part (nilpotent by truncation)."""
    if not t.order_component(0).is_zero():
        raise ValueError("exp needs a series of order O(kbar)")
    return _power_series(t, lambda k: (0, _q(Fraction(1, factorial(k)))))


def series_inverse(F: TSeries) -> TSeries:
    """Neumann inverse of 1 + O(kbar); fails on a non-unit constant term."""
    unit = TSeries.unit(F.n, F.order)
    if not (F.order_component(0) - unit).is_zero():
        raise ValueError("series is not invertible: constant term is not 1")
    return _power_series(F - unit, lambda k: (0, ((-1) ** k, 0, 1)))


# Hopf structure of the free abelian algebra (X, Y primitive) ----------------

def delta_mono(a, b, order):
    """Delta(X^a Y^b) as a 2-tensor (binomial expansion of primitives)."""
    return TSeries(2, order, {(((i, j), (a - i, b - j)), 0): (comb(a, i) * comb(b, j), 0, 1)
                              for i in range(a + 1) for j in range(b + 1)})


def apply_delta(T: TSeries, slot: int) -> TSeries:
    """Coproduct applied to one slot: n-tensor -> (n+1)-tensor."""
    return T.map_keys(lambda k: [((k[:slot] + k2 + k[slot + 1:], n), c) for (k2, n), c in
                                 delta_mono(*k[slot], T.order).terms.items()],
                      TSeries(T.n + 1, T.order))


def apply_counit(T: TSeries, slot: int) -> TSeries:
    """Counit on one slot: keeps only terms with the trivial monomial there."""
    return T.map_keys(lambda k: [((k[:slot] + k[slot + 1:], 0), _ONE)] if k[slot] == (0, 0) else [],
                      TSeries(T.n - 1, T.order))


def embed(T: TSeries, slots, n: int) -> TSeries:
    """Place a 2-tensor into the given slots of an n-tensor (e.g. F13)."""
    def place(key):
        out = [(0, 0)] * n
        for pos, s in zip(slots, key):
            out[pos] = s
        return (((tuple(out), 0), _ONE),)
    return T.map_keys(place, TSeries(n, T.order))


def flip(T: TSeries) -> TSeries:
    assert T.n == 2
    return T.map_keys(lambda k: (((k[::-1], 0), _ONE),))


# twists ---------------------------------------------------------------------

def abelian_twist(order: int) -> TSeries:
    """F = exp(i kbar X ⊗ Y) truncated at the given order."""
    return exp_series(TSeries(2, order, {(((1, 0), (0, 1)), 0): _ONE}).scale(_I_KBAR))


def twist_check(F: TSeries) -> dict:
    """2-cocycle, normalization and semiclassical conditions, exactly."""
    order = F.order
    lhs = embed(F, (0, 1), 3) * apply_delta(F, 0)
    rhs = embed(F, (1, 2), 3) * apply_delta(F, 1)
    diff = lhs - rhs
    cocycle = diff.is_zero()
    norm_l = apply_counit(F, 0) - TSeries.unit(1, order)
    norm_r = apply_counit(F, 1) - TSeries.unit(1, order)
    semiclassical = (F.order_component(0) - TSeries.unit(2, order)).is_zero()
    per_order = [diff.order_component(m).is_zero() for m in range(order + 1)]
    return {
        "order": order,
        "two_cocycle": cocycle,
        "two_cocycle_by_order": per_order,
        "normalization": norm_l.is_zero() and norm_r.is_zero(),
        "semiclassical": semiclassical,
        "passed": cocycle and norm_l.is_zero() and norm_r.is_zero() and semiclassical,
    }


def twisted_structures(F: TSeries) -> dict:
    """The R-matrix R = F21 F^{-1} of a twist, with checks.

    Returns R plus its triangularity, quantum Yang-Baxter and
    braided-commutativity verdicts, each exact at the twist's order.
    """
    order = F.order
    Finv = series_inverse(F)
    R = flip(F) * Finv
    Rinv = series_inverse(R)

    tri = (flip(R) * R - TSeries.unit(2, order)).is_zero()
    R12 = embed(R, (0, 1), 3)
    R13 = embed(R, (0, 2), 3)
    R23 = embed(R, (1, 2), 3)
    qyb = (R12 * R13 * R23 - R23 * R13 * R12).is_zero()
    braided = braided_commutativity_check(Finv, Rinv)

    return {
        "R": R,
        "triangular": tri,
        "quantum_yang_baxter": qyb,
        "braided_commutative": braided,
        "passed": tri and qyb and braided,
    }


# braided commutativity on the polynomial module -----------------------------

def _star_pairs(F_inv: TSeries, f: Poly, g: Poly, coef=(0, _ONE)):
    """The ((key, power), coefficient) pairs of coef (f * g), one star-product term at a time.

    `coef` is a (kbar power, coefficient) pair; powers above the twist's order are skipped.
    """
    order = F_inv.order
    n0, c0 = coef
    for (((ax, ay), (bx, by)), n), c in F_inv.terms.items():
        n += n0
        if n > order:
            continue
        fa = f.deriv(0, ax).deriv(1, ay)
        if fa.is_zero():
            continue
        c = c if c0 is _ONE else _mul(c, c0)
        for (k, m), kc in (fa * g.deriv(0, bx).deriv(1, by)).terms.items():
            if m + n <= order:
                yield (k, m + n), _mul(kc, c)


def star_product(F_inv: TSeries, f: Poly, g: Poly) -> Poly:
    """f * g = m(F^{-1} (f ⊗ g)) with X = d/du, Y = d/dv on each slot."""
    return f._like(_star_pairs(F_inv, f, g))


BRAIDED_SAMPLES = ((2, 1), (1, 2), (3, 0), (2, 2))  # the monomials u^a v^b checked, as (a, b)


def braided_commutativity_check(Finv: TSeries, Rinv: TSeries) -> bool:
    """f*g == (R^{-1}_1 acting on g) * (R^{-1}_2 acting on f) on monomials.

    `Finv` and `Rinv` are the inverses of the twist and of its R-matrix.
    """
    for ab in BRAIDED_SAMPLES:
        for cd in BRAIDED_SAMPLES:
            f, g = Poly(2, {ab: 1}), Poly(2, {cd: 1})
            lhs = star_product(Finv, f, g)
            rhs = f._like(p for (((rx, ry), (sx, sy)), n), c in Rinv.terms.items()
                          for p in _star_pairs(Finv, g.deriv(0, rx).deriv(1, ry),
                                               f.deriv(0, sx).deriv(1, sy), (n, c)))
            if not (lhs - rhs).is_zero():
                return False
    return True
