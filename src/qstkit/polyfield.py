"""Exact sparse algebra over Gaussian rationals.

A `Sparse` element is a finite sum of terms keyed by (basis key, power),
the power being that of a deformation scale (kappa in the Hopf engine, kbar
in the twist engine), so terms of different powers stay apart.  Each
coefficient is one Gaussian rational, held as a canonical (re, im, d)
triple of integers for (re + i im) / d with d > 0 and gcd(re, im, d) = 1,
so equal elements have equal terms.  A scalar with a power is a (power,
coefficient) pair.  `Sparse` implements the linear structure and the
product once; each exact-algebra container (the Hopf engine's elements and
tensors, the twist engine's series, and `Poly`, the exact polynomials of the
Seiberg-Witten map and of the twist engine's module) supplies only its space
and the product of two basis keys.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, perm

# Gaussian rationals (re, im, d); each result is reduced by the gcd of its
# three integers (Knuth, TAOCP vol. 2, 4.5.1).  The helpers stay private.

_ONE = (1, 0, 1)


def _q(x):
    """The coefficient x: an int, a Fraction, a float or an (re, im) pair of them."""
    re, im = x if isinstance(x, tuple) else (x, 0)
    if type(re) is int and type(im) is int:
        return (re, im, 1)
    re, im = Fraction(re), Fraction(im)
    # over the lcm of the denominators the numerators have no common factor
    d = lcm(re.denominator, im.denominator)
    return (re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d)


def _add(x, y):
    a, b, d = x
    c, e, f = y
    if d == f:
        re, im = a + c, b + e
        if d == 1:
            return (re, im, 1)
    else:
        re, im, d = a * f + c * d, b * f + e * d, d * f
    g = gcd(re, im, d)  # d when the sum is 0, which makes it (0, 0, 1)
    return (re, im, d) if g == 1 else (re // g, im // g, d // g)


def _mul(x, y):
    a, b, d = x
    c, e, f = y
    re, im, d = a * c - b * e, a * e + b * c, d * f
    if d == 1:
        return (re, im, 1)
    g = gcd(re, im, d)
    return (re, im, d) if g == 1 else (re // g, im // g, d // g)


def _neg(x):
    return (-x[0], -x[1], x[2])


def _fractions(x):
    """(re, im) of a coefficient as Fractions."""
    return Fraction(x[0], x[2]), Fraction(x[1], x[2])


def _kappa(power):
    """The printed power of the deformation scale: ·κ^power, or nothing at power 0."""
    return "" if power == 0 else (f"·κ^{power}" if power != 1 else "·κ")


def _fmt(power, x):
    """The printed coefficient: (re+imi), times κ^power when power != 0."""
    re, im = _fractions(x)
    return f"({re}{'+' if im >= 0 else ''}{im}i){_kappa(power)}"


def _items(terms):
    return terms.items() if isinstance(terms, dict) else terms


class Sparse:
    """Finite sum of (basis key, power) terms with nonzero Gaussian-rational coefficients.

    `terms` maps (key, power) -> (re, im, d).  The constructor takes a dict
    or ((key, power), coef) pairs, sums the coefficients of equal keys and
    drops zeros; in a space with an `order` it keeps only the powers
    0..order.  A subclass sets its space attributes before calling it and
    supplies `_like(pairs)`, the element of its own space with those terms,
    and `_key_mul(k1, k2)`, the product of two basis keys as
    ((key, power), coef) pairs.  A unit coefficient is the `_ONE` object
    itself, so products skip multiplying by it.
    """

    __slots__ = ("terms",)
    order = None

    def __init__(self, terms=()):
        out, order, merged = {}, self.order, False
        for k, c in _items(terms):
            if order is not None and not 0 <= k[1] <= order:
                continue
            if k in out:
                out[k] = _add(out[k], c)
                merged = True
            elif c[0] or c[1]:
                out[k] = c
        # only a merge can leave a zero: a zero term is never stored
        self.terms = {k: c for k, c in out.items() if c[0] or c[1]} if merged else out

    def _show(self, key, power, coef):
        return f"[{_fmt(power, coef)}]{key}"

    def map_keys(self, fn, into=None):
        """The linear map sending each key k to the ((key, power), coef) pairs fn(k).

        A term's power adds to the powers of its image.  The result lies in
        the space of `into` (default: this element's).
        """
        return (self if into is None else into)._like(
            ((k2, n + n2), c if c2 is _ONE else _mul(c, c2))
            for (k, n), c in self.terms.items() for (k2, n2), c2 in fn(k))

    def __add__(self, other):
        return self._like([*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return self._like((k, _neg(c)) for k, c in self.terms.items())

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        """This element times the scalar s = (power, coef)."""
        n, q = s
        return self._like(((k, p + n), _mul(c, q)) for (k, p), c in self.terms.items())

    def __mul__(self, other):
        """The product; in a space with an order, a term pair whose powers sum
        above it is skipped before any arithmetic (most pairs of a long series)."""
        pairs, order = [], self.order
        b = list(other.terms.items())
        for (k1, n1), c1 in self.terms.items():
            for (k2, n2), c2 in b:
                n = n1 + n2
                if order is not None and n > order:
                    continue
                c = _mul(c1, c2)
                pairs += [((k, n + kn), c if kc is _ONE else _mul(c, kc))
                          for (k, kn), kc in self._key_mul(k1, k2)]
        return self._like(pairs)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __repr__(self):
        return " + ".join(self._show(k, n, c) for (k, n), c in sorted(self.terms.items())) or "0"


class Poly(Sparse):
    """Polynomial in nvars variables, keyed by (exponent tuple, power).

    A coefficient is given as an int, a Fraction or an (re, im) pair of them,
    at power 0; the twist engine's module terms also carry kbar powers."""

    __slots__ = ("nvars",)

    def __init__(self, nvars: int, terms=()):
        self.nvars = nvars
        super().__init__(((e, 0), _q(c)) for e, c in _items(terms))

    def _like(self, pairs):
        p = object.__new__(Poly)
        p.nvars = self.nvars
        Sparse.__init__(p, pairs)
        return p

    def _key_mul(self, e1, e2):
        return (((tuple(a + b for a, b in zip(e1, e2)), 0), _ONE),)

    def scale(self, s):
        """This polynomial times s, given as a coefficient."""
        return super().scale((0, _q(s)))

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
        return max((sum(e) for e, _ in self.terms), default=0)

    def coefficient(self, e):
        """(re, im) of the coefficient of x^e, as Fractions."""
        c = self.terms.get((e, 0))
        return _fractions(c) if c else (Fraction(0), Fraction(0))

    def deriv(self, i, n=1):
        """The n-th derivative in variable i; a term of degree below n in it drops."""
        if n == 0:
            return self
        return self.map_keys(lambda e: (((e[:i] + (e[i] - n,) + e[i + 1:], 0),
                                         (perm(e[i], n), 0, 1)),) if e[i] >= n else ())

    def _show(self, e, power, c):
        r, im = _fractions(c)
        mono = "".join(f"{'xyzw'[i]}^{n}" if n > 1 else "xyzw"[i] for i, n in enumerate(e) if n)
        return (f"{r}" if not im else f"({r}+{im}i)") + mono + _kappa(power)
