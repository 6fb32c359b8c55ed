"""Exact sparse algebra over Gaussian rationals.

`KScalar` is the coefficient ring: Laurent polynomials in a deformation
scale (kappa in the Hopf engine, kbar in the twist engine) with exact
Fraction coefficients.  `Sparse` is a finite sum of basis keys with
nonzero KScalar coefficients; it implements the linear structure and the
product once, and each exact-algebra container (the Hopf engine's elements
and tensors, the twist engine's series and module polynomials, and `Poly`
below) is a subclass that supplies only its space and the product of two
basis keys.  `Poly` is the small fixed-arity polynomial ring (kappa^0
coefficients) used by the first-order Seiberg-Witten machinery, where
pointwise products and derivatives have to be symbolically exact.
"""

from __future__ import annotations

from fractions import Fraction


class KScalar:
    """sum_n (re_n + i im_n) kappa^n with exact Fraction coefficients.

    `c` maps each power with a nonzero coefficient to its (re, im) pair.
    """

    __slots__ = ("c",)

    def __init__(self, c=None):
        self.c = {}
        if c:
            for n, (re, im) in c.items():
                if re or im:
                    self.c[n] = (Fraction(re), Fraction(im))

    @staticmethod
    def _of_pairs(c):
        """The KScalar with powers -> (re, im) pairs of Fractions, dropping zero pairs.

        Unlike `KScalar(c)` it trusts the values to be Fractions already.
        """
        k = object.__new__(KScalar)
        k.c = {n: p for n, p in c.items() if p[0] or p[1]}
        return k

    @staticmethod
    def make(re=0, im=0, kpow=0):
        return KScalar({kpow: (Fraction(re), Fraction(im))})

    @staticmethod
    def of(x):
        """x as a KScalar: a KScalar, a real number or an (re, im) pair."""
        if isinstance(x, KScalar):
            return x
        return KScalar.make(*x) if isinstance(x, tuple) else KScalar.make(x)

    def truncated(self, order, lo=0):
        """The part with kappa powers lo..order."""
        if not self.c or lo <= min(self.c) and max(self.c) <= order:
            return self
        return KScalar({n: c for n, c in self.c.items() if lo <= n <= order})

    def __add__(self, other):
        out = dict(self.c)
        for n, (re, im) in other.c.items():
            if n in out:
                r0, i0 = out[n]
                out[n] = (r0 + re, i0 + im)
            else:
                out[n] = (re, im)
        return KScalar._of_pairs(out)

    def __neg__(self):
        return KScalar._of_pairs({n: (-re, -im) for n, (re, im) in self.c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return self.times(other)

    def times(self, other, order=None):
        """The product; given an order, only its part with powers 0..order.

        Power pairs outside 0..order are skipped before any arithmetic, so
        `a.times(b, order) == (a * b).truncated(order)` at a fraction of the cost.
        """
        out = {}
        for n1, (r1, i1) in self.c.items():
            for n2, (r2, i2) in other.c.items():
                n = n1 + n2
                if order is not None and not 0 <= n <= order:
                    continue
                re = r1 * r2 - i1 * i2
                im = r1 * i2 + i1 * r2
                if n in out:
                    r0, i0 = out[n]
                    out[n] = (r0 + re, i0 + im)
                else:
                    out[n] = (re, im)
        return KScalar._of_pairs(out)

    def is_zero(self):
        return not self.c

    def __eq__(self, other):
        return isinstance(other, KScalar) and self.c == other.c

    def __repr__(self):
        if not self.c:
            return "0"
        bits = []
        for n in sorted(self.c):
            re, im = self.c[n]
            kpart = "" if n == 0 else (f"·κ^{n}" if n != 1 else "·κ")
            bits.append(f"({re}{'+' if im >= 0 else ''}{im}i){kpart}")
        return "+".join(bits)


ONE = KScalar.make(1)
ZERO = KScalar()
I = KScalar.make(0, 1)


def _items(terms):
    return terms.items() if isinstance(terms, dict) else terms


class Sparse:
    """Finite sum of basis keys with nonzero KScalar coefficients.

    `terms` maps key -> KScalar.  The constructor takes a dict or (key,
    coef) pairs, sums the coefficients of equal keys and drops zeros; in a
    space with an `order` it keeps only the powers 0..order.  A subclass
    sets its space attributes before calling it and supplies `_like(pairs)`,
    the element of its own space with those terms, and `_key_mul(k1, k2)`,
    the product of two basis keys as (key, coef) pairs.  A unit coefficient
    is the `ONE` object itself, so products skip multiplying by it.
    """

    __slots__ = ("terms",)
    order = None

    def __init__(self, terms=()):
        out = {}
        for k, c in _items(terms):
            out[k] = out[k] + c if k in out else c
        if self.order is not None:
            out = {k: c.truncated(self.order) for k, c in out.items()}
        self.terms = {k: c for k, c in out.items() if c.c}

    def _like(self, pairs):
        raise NotImplementedError

    def _key_mul(self, k1, k2):
        raise NotImplementedError

    def _show(self, key, coef):
        return f"[{coef}]{key}"

    def map_keys(self, fn, into=None):
        """The linear map sending each key k to the (key, coef) pairs fn(k).

        The result lies in the space of `into` (default: this element's).
        """
        return (self if into is None else into)._like(
            (k2, c if c2 is ONE else c * c2)
            for k, c in self.terms.items() for k2, c2 in fn(k))

    def __add__(self, other):
        return self._like([*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return self._like((k, -c) for k, c in self.terms.items())

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        s = KScalar.of(s)
        return self._like((k, c * s) for k, c in self.terms.items())

    def __mul__(self, other):
        pairs, order = [], self.order
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                c = c1.times(c2, order)
                if not c.c:
                    continue
                pairs += [(k, c if kc is ONE else c * kc) for k, kc in self._key_mul(k1, k2)]
        return self._like(pairs)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __repr__(self):
        return " + ".join(self._show(k, self.terms[k]) for k in sorted(self.terms)) or "0"


class Poly(Sparse):
    """Polynomial in nvars variables: exponent tuples -> kappa^0 coefficients.

    A coefficient may be given as a KScalar, a real number or an (re, im) pair.
    """

    __slots__ = ("nvars",)

    def __init__(self, nvars: int, terms=()):
        self.nvars = nvars
        super().__init__((e, KScalar.of(c)) for e, c in _items(terms))

    def _like(self, pairs):
        return Poly(self.nvars, pairs)

    def _key_mul(self, e1, e2):
        return ((tuple(a + b for a, b in zip(e1, e2)), ONE),)

    @staticmethod
    def zero(nvars):
        return Poly(nvars)

    @staticmethod
    def const(nvars, value):
        return Poly(nvars, {(0,) * nvars: value})

    @staticmethod
    def var(nvars, i):
        e = [0] * nvars
        e[i] = 1
        return Poly(nvars, {tuple(e): 1})

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def coefficient(self, e):
        """(re, im) of the coefficient of x^e."""
        return self.terms.get(e, ZERO).c.get(0, (Fraction(0), Fraction(0)))

    def deriv(self, i):
        return self.map_keys(lambda e: ((e[:i] + (e[i] - 1,) + e[i + 1:], KScalar.make(e[i])),))

    def _show(self, e, c):
        r, im = self.coefficient(e)
        mono = "".join(f"{'xyzw'[i]}^{n}" if n > 1 else "xyzw"[i] for i, n in enumerate(e) if n)
        return (f"{r}" if not im else f"({r}+{im}i)") + mono
