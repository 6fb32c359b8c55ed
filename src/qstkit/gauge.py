"""Twisted gauge structures on kappa-Minkowski plane waves.

The twisted derivations X0 = kappa(1 - E), X_j = P_j obey the E-twisted
Leibniz rule; gauge transforms are unit-modulus plane waves, and the field
strength / covariance / dimension checks are carried out exactly on
packets.  The packet checks take stacks of packets (see `waves`) and give
one residual per label, a plain float for plain packets.

A gauge field of m labels is one stack of group.dim·m packets, component-
major: component mu holds labels mu·m ... (mu+1)·m - 1, and
`A.split(A.group.dim)` reads the components.  Its field strength is the
stack of the dim(dim-1)/2 independent components F_mn, m < n, row-major,
in the same layout.  The first-order Seiberg-Witten map lives in a
separate exact-polynomial representation, whose field strength is the
full antisymmetric matrix.

Only the packet half loads numpy: its functions import `waves` where they
run, so the SW map, the polynomial fields and the dimension scan work
without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, List

from .polyfield import Poly

if TYPE_CHECKING:
    from .waves import WavePacket


def _xop(mu: int, f: WavePacket) -> WavePacket:
    from .waves import act
    return act("X", f, index=mu)


def _eop(f: WavePacket, power: int = 1) -> WavePacket:
    from .waves import act
    return act("E", f, power=power)


def twisted_leibniz_residual(mu: int, f: WavePacket, g: WavePacket):
    """|X_mu(f*g) - X_mu(f)*g - E(f)*X_mu(g)| relative to the terms' scale, per label."""
    from .waves import star
    lhs = _xop(mu, star(f, g))
    rhs = star(_xop(mu, f), g) + star(_eop(f), _xop(mu, g))
    return (lhs - rhs).norm() / (1.0 + lhs.norm() + rhs.norm())


def twisted_reality_residual(mu: int, f: WavePacket):
    """|(X_mu f)^dagger + E^{-1} X_mu (f^dagger)| relative to the terms' scale, per label."""
    from .waves import dagger
    lhs = dagger(_xop(mu, f))
    rhs = _eop(_xop(mu, dagger(f)), power=-1).scale(-1.0)
    return (lhs - rhs).norm() / (1.0 + lhs.norm() + rhs.norm())


def field_strength(A: WavePacket) -> WavePacket:
    """F_mn = X_m(A_n) - X_n(A_m) - i(E(A_m)*A_n - E(A_n)*A_m) for m < n.

    A is a gauge field: the stack of its group.dim components A_mu,
    component-major.  F is the stack of its dim(dim-1)/2 independent
    components in the same layout, the pairs m < n row-major; F_nm = -F_mn
    and F_mm = 0 are not built.  Each term is one array pass.
    """
    from .waves import concat, star
    n = A.group.dim
    comps = A.split(n)
    pairs = [(m, k) for m in range(n) for k in range(m + 1, n)]
    ems = [_eop(c) for c in comps]
    lo, hi = concat([comps[m] for m, _ in pairs]), concat([comps[k] for _, k in pairs])
    comm = star(concat([ems[m] for m, _ in pairs]), hi) \
        - star(concat([ems[k] for _, k in pairs]), lo)
    deriv = concat([_xop(m, comps[k]) for m, k in pairs]) \
        - concat([_xop(k, comps[m]) for m, k in pairs])
    return deriv + comm.scale(-1j)


def gauge_transform(A: WavePacket, u: WavePacket) -> WavePacket:
    """A_mu -> E(u^dagger) * A_mu * u + i E(u^dagger) * X_mu(u), all components at once.

    The i on the inhomogeneous term is forced by A = i nabla(1) together
    with the -i in the field strength: with it the covariance identity
    F(A^u) = E^2(u^dagger) * F(A) * u closes exactly.
    """
    from .waves import concat, dagger, star
    n = A.group.dim
    eud = concat([_eop(dagger(u))] * n)
    return star(star(eud, A), concat([u] * n)) \
        + star(eud, concat([_xop(mu, u) for mu in range(n)])).scale(1j)


def covariance_residual(A: WavePacket, u: WavePacket):
    """|F(A^u) - E^2(u^dagger) * F(A) * u| relative to the F scale, worst over m < n, per label.

    The independent components are one stack.  A NaN residual of any component is the residual.
    """
    import numpy as np
    from .waves import concat, dagger, star
    k = A.group.dim * (A.group.dim - 1) // 2
    Fu = field_strength(gauge_transform(A, u))
    target = star(star(concat([_eop(dagger(u), power=2)] * k), field_strength(A)),
                  concat([u] * k))
    res = [d.norm() / (1.0 + t.norm()) for d, t in zip((Fu - target).split(k), target.split(k))]
    return np.max(res, axis=0, initial=0.0)


def dimension_constraint_scan(d_values, kappa: float, p0_samples) -> dict:
    """max |e^{(4-d) p0/kappa} - 1| per d: zero for every p0 iff d = 4.

    This is the gauge-variation prefactor E^{d-2}(u) * E^2(u^dagger) on a
    plane-wave unitary u = e_p, evaluated exactly.  A deviation past the
    float range is inf, and a NaN input gives NaN: the builtin max alone
    would drop it.
    """
    rows = {}
    for d in d_values:
        devs = [0.0]
        for p0 in p0_samples:
            try:
                devs.append(abs(math.exp((4 - d) * p0 / kappa) - 1.0))
            except OverflowError:
                devs.append(math.inf)
        rows[int(d)] = math.nan if any(map(math.isnan, devs)) else max(devs)
    zero_set = sorted(d for d, dev in rows.items() if dev == 0.0)
    return {"deviations": rows, "zero_set": zero_set}


# ---------------------------------------------------------------------------
# first-order Seiberg-Witten map on exact polynomial fields

MAX_SW_DEGREE = 4


@dataclass
class PolyGaugeField:
    """A_mu as exact polynomials in the space-time coordinates."""

    components: List[Poly]

    def __post_init__(self):
        nv = {c.nvars for c in self.components}
        if len(nv) != 1:
            raise ValueError("components must share the variable count")
        if self.dim > self.nvars:  # A_mu is differentiated along x^mu
            raise ValueError(f"{self.dim} components need at least as many variables, "
                             f"got {self.nvars}")
        if any(c.degree() > MAX_SW_DEGREE for c in self.components):
            raise ValueError(f"degree overflow: SW map limited to degree {MAX_SW_DEGREE}")

    @property
    def nvars(self):
        return self.components[0].nvars

    @property
    def dim(self):
        return len(self.components)


def poly_field_strength(A: PolyGaugeField) -> list:
    F = [[Poly.zero(A.nvars)] * A.dim for _ in range(A.dim)]
    for mu in range(A.dim):
        for nu in range(A.dim):
            F[mu][nu] = A.components[nu].deriv(mu) - A.components[mu].deriv(nu)
    return F


def _theta_entries(Theta, n: int) -> list:
    """The nonzero entries (rho, sigma, Theta^{rho sigma} as a Fraction) of Theta's n x n block."""
    if len(Theta) < n or any(len(row) < n for row in Theta):
        raise ValueError(f"Theta must be at least {n} x {n} for a {n}-component field")
    entries = [(rho, sg, Fraction(Theta[rho][sg])) for rho in range(n) for sg in range(n)]
    return [(rho, sg, c) for rho, sg, c in entries if c]


def sw_map_order1(A: PolyGaugeField, Theta) -> PolyGaugeField:
    """A_mu - (1/2) Theta^{rho sigma} A_rho (d_sigma A_mu + F_{sigma mu})."""
    theta = _theta_entries(Theta, A.dim)
    F = poly_field_strength(A)
    out = []
    for mu in range(A.dim):
        hat = A.components[mu]
        for rho, sg, c in theta:
            corr = A.components[rho] * (A.components[mu].deriv(sg) + F[sg][mu])
            hat = hat - corr.scale(Fraction(1, 2) * c)
        out.append(hat)
    return PolyGaugeField(out)


def sw_field_strength_order1(A: PolyGaugeField, Theta) -> list:
    """F_mn + Theta^{rs}(F_mr F_ns - A_r d_s F_mn): the printed first order."""
    theta = _theta_entries(Theta, A.dim)
    F = poly_field_strength(A)
    n = A.dim
    out = [[Poly.zero(A.nvars)] * n for _ in range(n)]
    for mu in range(n):
        for nu in range(n):
            hat = F[mu][nu]
            for rho, sg, c in theta:
                term = F[mu][rho] * F[nu][sg] - A.components[rho] * F[mu][nu].deriv(sg)
                hat = hat + term.scale(c)
            out[mu][nu] = hat
    return out


def sw_field_strength_from_hat(A: PolyGaugeField, Theta) -> list:
    """F(A_hat) computed directly: F of A_hat plus Theta^{rs} d_r A_mu d_s A_nu.

    The Moyal commutator -i[A_hat_mu, A_hat_nu]_star contributes
    Theta^{rs} d_r A_mu d_s A_nu at first order.
    """
    theta = _theta_entries(Theta, A.dim)
    out = poly_field_strength(sw_map_order1(A, Theta))
    for mu in range(A.dim):
        for nu in range(A.dim):
            for rho, sg, c in theta:
                out[mu][nu] = out[mu][nu] + (A.components[mu].deriv(rho)
                                             * A.components[nu].deriv(sg)).scale(c)
    return out


def sw_consistency_residual(A: PolyGaugeField, alpha: Poly, Theta) -> list:
    """Order-Theta gauge-equivalence residual of `sw_map_order1`, linearized in alpha.

    hat A(A + d alpha) - hat A(A) - [d alpha_hat - Theta^{rs} d_r alpha d_s A_mu]
    with alpha_hat = alpha + (1/2) Theta^{rs} d_r alpha A_s; identically zero
    as a polynomial for any inputs.  The map is quadratic in A, so its
    alpha-linear part is exactly (1/2)[hat A(A + d alpha) - hat A(A - d alpha)].
    """
    theta = _theta_entries(Theta, A.dim)
    n = A.dim
    dalpha = [alpha.deriv(mu) for mu in range(n)]
    shifted = ([a + da.scale(s) for a, da in zip(A.components, dalpha)] for s in (1, -1))
    plus, minus = (sw_map_order1(PolyGaugeField(B), Theta).components for B in shifted)
    # deformed transform d_mu alpha_hat - Theta^{rs} d_r alpha d_s A_mu
    alpha_hat1 = Poly.zero(A.nvars)
    for rho, sg, c in theta:
        alpha_hat1 = alpha_hat1 + (dalpha[rho] * A.components[sg]).scale(Fraction(1, 2) * c)
    residuals = []
    for mu in range(n):
        rhs = dalpha[mu] + alpha_hat1.deriv(mu)
        for rho, sg, c in theta:
            rhs = rhs - (dalpha[rho] * A.components[mu].deriv(sg)).scale(c)
        residuals.append((plus[mu] - minus[mu]).scale(Fraction(1, 2)) - rhs)
    return residuals


def poly_field_to_jsonable(A: PolyGaugeField) -> list:
    """[[{"exp": [...], "re": r, "im": i}, ...] per component]."""
    out = []
    for comp in A.components:
        out.append([{"exp": list(e), "re": str(re), "im": str(im)}
                    for e, _ in sorted(comp.terms) for re, im in [comp.coefficient(e)]])
    return out


# the digits of a field's numerators and denominators, in all: the SW map's
# sums of products then stay under Python's 4,300-digit int-to-str limit
MAX_COEFFICIENT_DIGITS = 2100


def _coefficient(val, where: str) -> Fraction:
    """A coefficient given as a number or a string such as "p/q", "1.5" or "2e-3"; one
    written with over MAX_COEFFICIENT_DIGITS digits, |exponent| included, is not built.
    An unreadable one is shown by its first 40 characters at most."""
    text = str(val)
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    # Fraction builds 10^|exponent|; five leading digits of it already exceed the bound
    digits = sum(ch.isdigit() for ch in mantissa) + (int(exponent[:5]) if exponent.isdigit() else 0)
    if digits > MAX_COEFFICIENT_DIGITS:
        raise ValueError(f"{where}: the coefficient has more than {MAX_COEFFICIENT_DIGITS} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        shown = repr(val) if len(text) <= 40 else f"{text[:40]!r}…"
        raise ValueError(f"{where}: expected a finite number, got {shown}") from None


def poly_field_from_json(text: str) -> PolyGaugeField:
    """The field `poly_field_to_jsonable` writes, bare or as {"components": ...}.

    A malformed document raises ValueError naming the key path of the bad value.
    """
    import json
    # an integer too long for int() stays a string, for _coefficient to reject
    data = json.loads(text, parse_int=lambda s: s if len(s) > MAX_COEFFICIENT_DIGITS else int(s))
    at, total = "", 0
    if isinstance(data, dict):
        data, at = data.get("components"), "/components"
    if not isinstance(data, list):
        raise ValueError(f"{at or '/'}: expected a list of components")
    comps = []
    for c, terms in enumerate(data):
        if not isinstance(terms, list):
            raise ValueError(f"{at}/{c}: expected a list of terms")
        nv, coeffs = None, {}
        for t, term in enumerate(terms):
            where = f"{at}/{c}/{t}"
            exp = term.get("exp") if isinstance(term, dict) else None
            if not (isinstance(exp, list) and all(type(e) is int and e >= 0 for e in exp)):
                raise ValueError(f"{where}/exp: expected a list of non-negative integers")
            nv = len(exp) if nv is None else nv
            if len(exp) != nv:
                raise ValueError(f"{where}/exp: expected {nv} exponents like the first term")
            coeffs[tuple(exp)] = z = tuple(_coefficient(term.get(key, default), f"{where}/{key}")
                                           for key, default in (("re", None), ("im", 0)))
            total += sum(len(str(n)) for q in z for n in (abs(q.numerator), q.denominator))
            if total > MAX_COEFFICIENT_DIGITS:
                raise ValueError(f"{where}: over {MAX_COEFFICIENT_DIGITS} coefficient digits in all")
        comps.append(Poly(4 if nv is None else nv, coeffs))
    return PolyGaugeField(comps)
