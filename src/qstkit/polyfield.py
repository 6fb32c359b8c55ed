"""Exact sparse algebra over Gaussian rationals.

`KScalar` is the coefficient ring: Laurent polynomials in a deformation
scale (kappa in the Hopf engine, kbar in the twist engine) whose
coefficients are Gaussian-integer numerators over one common positive
denominator, so sums and products run on Python integers.  `Sparse` is a
finite sum of basis keys with nonzero KScalar coefficients; it implements
the linear structure and the product once, and each exact-algebra container
(the Hopf engine's elements and tensors, the twist engine's series and
module polynomials, and `Poly` below) is a subclass that supplies only its
space and the product of two basis keys.  `Poly` is the small fixed-arity
polynomial ring (kappa^0 coefficients) used by the first-order
Seiberg-Witten machinery, where pointwise products and derivatives have to
be symbolically exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class KScalar:
    """sum_n (re_n + i im_n) kappa^n / d with integer re_n, im_n and d > 0.

    `num` maps each power with a nonzero coefficient to its integer
    (re, im) numerators and `d` is their one denominator.  The form is
    canonical: gcd(d, every numerator) = 1, and d = 1 when `num` is empty,
    so two values are equal exactly when their `num` and `d` are.  Each
    result is reduced once, by the gcd of its denominator and all its
    numerators (Knuth, TAOCP vol. 2, 4.5.1).  `c` is the read-only view
    powers -> (re, im) Fraction pairs.
    """

    __slots__ = ("num", "d")

    def __init__(self, c=None):
        """From powers -> (re, im) pairs of rationals (ints, Fractions or floats)."""
        fr = {}
        for n, (re, im) in (c or {}).items():
            re, im = Fraction(re), Fraction(im)
            if re or im:
                fr[n] = (re, im)
        # over the lcm of the denominators the numerators have no common factor
        d = lcm(*(x.denominator for p in fr.values() for x in p))
        self.num = {n: (re.numerator * (d // re.denominator), im.numerator * (d // im.denominator))
                    for n, (re, im) in fr.items()}
        self.d = d

    @staticmethod
    def _raw(num, d):
        """The KScalar num / d, trusting it to be canonical already."""
        k = object.__new__(KScalar)
        k.num = num
        k.d = d
        return k

    @staticmethod
    def _reduced(num, d):
        """The KScalar num / d for a `num` without zero pairs: divides out the common factor."""
        g = d
        for re, im in num.values():
            if g == 1:
                break
            g = gcd(g, re, im)
        if g != 1:  # also when num is empty, where it makes d = 1
            num = {n: (re // g, im // g) for n, (re, im) in num.items()}
            d //= g
        return KScalar._raw(num, d)

    @property
    def c(self):
        """powers -> (re, im) as Fractions."""
        d = self.d
        return {n: (Fraction(re, d), Fraction(im, d)) for n, (re, im) in self.num.items()}

    @staticmethod
    def make(re=0, im=0, kpow=0):
        if type(re) is int and type(im) is int:
            return KScalar._raw({kpow: (re, im)} if re or im else {}, 1)
        return KScalar({kpow: (re, im)})

    @staticmethod
    def of(x):
        """x as a KScalar: a KScalar, a real number or an (re, im) pair."""
        if isinstance(x, KScalar):
            return x
        return KScalar.make(*x) if isinstance(x, tuple) else KScalar.make(x)

    def truncated(self, order, lo=0):
        """The part with kappa powers lo..order."""
        num = self.num
        if not num or lo <= min(num) and max(num) <= order:
            return self
        return KScalar._reduced({n: p for n, p in num.items() if lo <= n <= order}, self.d)

    def __add__(self, other):
        a, b = self.num, other.num
        if not b:
            return self
        if not a:
            return other
        d1, d2 = self.d, other.d
        if d1 == d2:
            out, d, s = dict(a), d1, 1
        else:  # over lcm(d1, d2) = d1 d2 / g: a's numerators times d2 / g, b's times s = d1 / g
            g = gcd(d1, d2)
            sa, s = d2 // g, d1 // g
            d = d1 * sa
            out = {n: (re * sa, im * sa) for n, (re, im) in a.items()}
        for n, (re, im) in b.items():
            if s != 1:
                re, im = re * s, im * s
            if n in out:
                r0, i0 = out[n]
                re, im = r0 + re, i0 + im
                if not (re or im):
                    del out[n]
                    continue
            out[n] = (re, im)
        return KScalar._reduced(out, d)

    def __neg__(self):
        return KScalar._raw({n: (-re, -im) for n, (re, im) in self.num.items()}, self.d)

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
        for n1, (r1, i1) in self.num.items():
            for n2, (r2, i2) in other.num.items():
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
        out = {n: p for n, p in out.items() if p[0] or p[1]}
        return KScalar._reduced(out, self.d * other.d)

    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        return isinstance(other, KScalar) and self.d == other.d and self.num == other.num

    def __repr__(self):
        if not self.num:
            return "0"
        bits = []
        c = self.c
        for n in sorted(c):
            re, im = c[n]
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
        self.terms = {k: c for k, c in out.items() if c.num}

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
        """The product.  In a space with an order, a term pair whose powers
        all fall outside 0..order is skipped before any arithmetic: in a
        high-order series that is most pairs."""
        pairs, order = [], self.order
        b = [(k, c, min(c.num), max(c.num)) for k, c in other.terms.items()]
        for k1, c1 in self.terms.items():
            lo1, hi1 = min(c1.num), max(c1.num)
            for k2, c2, lo2, hi2 in b:
                if order is not None and (lo1 + lo2 > order or hi1 + hi2 < 0):
                    continue
                c = c1.times(c2, order)
                if not c.num:
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
