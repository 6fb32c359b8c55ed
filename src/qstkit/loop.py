"""One-loop two-point machinery and the UV/IR-mixing classifier.

The kinetic operator is K(k) = g^{mu nu} k_mu ((-)k)_nu + m^2.  Minkowski-
signature integrals are defined through the Wick rotation k0 -> i k0 with
the inner k0 integral done analytically where closed forms exist; all
closed-form comparisons are by parameter dependence (ratio constancy),
never absolute normalization, since overall 2 pi loop factors are factored
out throughout.

The quadratures and special functions are numpy and `math` code: an
adaptive Gauss-Kronrod rule after QUADPACK, K_nu by the trapezoid rule and
e^z E1(z) by its power series or continued fraction.  scipy and mpmath are
the tests' independent oracles only.  The CLI imports this module only in
`loop` and `suite mixing`, the commands that run it.
"""

from __future__ import annotations

import cmath
import heapq
import math
import sys
import types
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .momentum import GroupDescriptor, group_preset, nonplanar_residual

DIV_SLOPE = 0.1
CONV_SLOPE = 0.02
# Lambda theta|p| from which a Moyal cutoff counts toward criterion (iii):
# there the cutoff term 1/Lambda^2 is at most 4% of the regulator c
NONPLANAR_REGIME = 10.0
# largest relative deviation of a Bessel oracle/closed-form ratio from its d's converged mean
RATIO_TOL = 1e-6
# the spatial dimensions d of bessel_oracle_compare's (m, kappa) grid
BESSEL_DS = (2, 3)
# largest QUADPACK error estimate, relative to the value, of a converged quadrature
QUAD_RTOL = 1e-3
# math.exp(-x) is exactly 0.0 for every x >= _EXP_UNDERFLOW
_EXP_UNDERFLOW = 746.0


def _gk_rule(nodes, wk, wg, order):
    """A Gauss-Kronrod rule as `_gk_panel` reads it.

    `nodes` are the Kronrod nodes in (0, 1) in descending order; `wk` and
    `wg` their weights and those of the embedded Gauss rule (0 at a
    Kronrod-only node), with the weights of the node 0 last; `order` is the
    order in which the rule sums the node pairs.  Returned: the two centre
    weights, each node with its two weights in that order, and each node's
    place in that order with its Kronrod weight, in node order.
    """
    return (wk[-1], wg[-1], tuple((nodes[j], wk[j], wg[j]) for j in order),
            tuple((order.index(j), wk[j]) for j in range(len(nodes))))


# QUADPACK's rules qk21 and qk15i (Piessens et al., QUADPACK, 1983)
_GK21 = _gk_rule(
    (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
     0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
     0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
     0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
     0.294392862701460198131126603103866, 0.148874338981631210884826001129720),
    (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
     0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
     0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
     0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
     0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
     0.149445554002916905664936468389821),
    (0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
     0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
     0.0, 0.295524224714752870173892994651338, 0.0),
    (1, 3, 5, 7, 9, 0, 2, 4, 6, 8),
)
_GK15 = _gk_rule(
    (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
     0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
     0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
     0.207784955007898467600689403773245),
    (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
     0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
     0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
     0.204432940075298892414161999234649, 0.209482141084727828012999174891714),
    (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
     0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327),
    tuple(range(7)),
)
_EPS, _TINY = sys.float_info.epsilon, sys.float_info.min
# QUADPACK's stopping tolerance, absolute and relative (scipy's epsabs = epsrel default)
_QUAD_TOL = 1.49e-8
# -log of the smallest K_nu(x) that `_kv` returns nonzero: 2.303 (1021 log10 2 - 3)
_KV_ELIM = 700.9217936944459


def _gk_panel(f, a, b, rule):
    """One Gauss-Kronrod panel, summed as qk21/qk15i sum it: (value, error estimate, resasc)."""
    wc, gc, terms, spread = rule
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fc = f(c)
    resk, resg = wc * fc, gc * fc
    resabs = abs(resk)
    us, vs = [], []
    for x, k, g in terms:
        u = f(c - h * x)
        v = f(c + h * x)
        us.append(u)
        vs.append(v)
        s = u + v
        resg += g * s
        resk += k * s
        resabs += k * (abs(u) + abs(v))
    mean = resk * 0.5
    resasc = wc * abs(fc - mean)
    for i, k in spread:
        resasc += k * (abs(us[i] - mean) + abs(vs[i] - mean))
    resabs, resasc = resabs * h, resasc * h
    err = abs((resk - resg) * h)
    if resasc and err:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _TINY / (50 * _EPS):
        err = max(50 * _EPS * resabs, err)
    return resk * h, err, resasc


def _gauss_kronrod(f, a, b, limit=50, points=None):
    """Adaptive Gauss-Kronrod quadrature of f over [a, b]: (value, abserr, neval, ok).

    QUADPACK's qagse (qagpe with `points`, qagie for b = inf) without the
    epsilon extrapolation: the panel with the largest error estimate is
    bisected until the estimates sum to at most max(1.49e-8, 1.49e-8 |value|).
    [a, inf) is mapped to t in (0, 1] by x = a + (1 - t)/t and takes the
    15-point rule, a finite range the 21-point one.  ok is False when `limit`
    panels are reached or a panel is too narrow to bisect.  A lone first
    panel whose estimate is its resasc, the min above having chosen 1, is
    bisected whatever its estimate reads, as in qagse and qagie.  The panels
    keep QUADPACK's list order, the half with the larger estimate in its
    parent's place, and the value is their sum in that order.
    """
    if b == math.inf:
        g, rule, lo, hi = (lambda t: f(a + (1.0 - t) / t) / t / t), _GK15, 0.0, 1.0
    else:
        g, rule, lo, hi = f, _GK21, a, b
    cuts = [lo, *sorted(p for p in points or () if lo < p < hi), hi]
    values, heap, value, err = [], [], 0.0, 0.0
    for x0, x1 in zip(cuts, cuts[1:]):
        r, e, resasc = _gk_panel(g, x0, x1, rule)
        heap.append((-e, len(values), x0, x1))
        values.append(r)
        value, err = value + r, err + e
    heapq.heapify(heap)
    untrusted, ok = len(values) == 1 and err == resasc != 0.0, True
    while (untrusted or err > max(_QUAD_TOL, _QUAD_TOL * abs(value))) and len(values) < limit:
        ne, slot, x0, x1 = heapq.heappop(heap)
        mid = 0.5 * (x0 + x1)
        r1, e1, _ = _gk_panel(g, x0, mid, rule)
        r2, e2, _ = _gk_panel(g, mid, x1, rule)
        value, err, untrusted = value + (r1 + r2) - values[slot], err + (e1 + e2) + ne, False
        halves = [(r1, e1, x0, mid), (r2, e2, mid, x1)][::-1 if e2 > e1 else 1]
        for i, (r, e, y0, y1) in zip((slot, len(values)), halves):
            heapq.heappush(heap, (-e, i, y0, y1))
        values[slot] = halves[0][0]
        values.append(halves[1][0])
        if max(abs(x0), abs(x1)) <= (1.0 + 100 * _EPS) * (abs(mid) + 1000 * _TINY):
            ok = False
            break
    neval = (2 * len(rule[2]) + 1) * (2 * len(values) - len(cuts) + 1)
    ok = ok and len(values) < limit and err <= max(_QUAD_TOL, _QUAD_TOL * abs(value))
    return sum(values), err, neval, ok


# `_quad` reads `integrate.quad` at each call, so an object bound here, one
# that counts the quadratures say, sees every quadrature in this module
integrate = types.SimpleNamespace(quad=_gauss_kronrod)


def _quad(f, a, b, **kw):
    """Adaptive Gauss-Kronrod quadrature of f over [a, b]: (value, abserr, neval, converged).

    `converged` is False when the adaptive rule stops unconverged (see
    `_gauss_kronrod`), and also when the error estimate exceeds QUAD_RTOL
    |value|: QUADPACK's stop rule meets an absolute 1.49e-8, which says
    nothing about a value far below it.  An overflowing integrand gives (nan, inf, 0, False).
    """
    try:
        value, err, neval, ok = integrate.quad(f, a, b, **kw)
    except OverflowError:
        return math.nan, math.inf, 0, False
    return value, err, neval, ok and err <= QUAD_RTOL * abs(value)


def _kv(nu: float, x: float) -> float:
    """K_nu(x), the modified Bessel function of the second kind, for x >= 0 (inf at 0).

    K_nu(x) = ∫_0^inf e^{-x cosh t} cosh(nu t) dt by the trapezoid rule with
    step min(0.05, 0.4/sqrt x), which converges exponentially for this
    analytic integrand (Trefethen & Weideman, SIAM Review 56(3), 2014), cut
    where x (cosh t - 1) > 745 and e^{-x cosh t} falls below the smallest
    double relative to its peak e^{-x}.  It reads 0 below e^{-_KV_ELIM}, the
    underflow bound of AMOS's zbesk (Amos, ACM TOMS 12, 1986) that scipy's
    kv applies, so the two read 0 on the same range.
    """
    if x == 0.0:
        return math.inf
    h = min(0.05, 0.4 / math.sqrt(x))
    t = np.arange(h, math.acosh(1.0 + 745.0 / x), h)
    # x (cosh t - 1) = 2 x sinh^2(t/2), without the cancellation near t = 0
    scaled = h * (0.5 + float(np.sum(np.exp(-2.0 * x * np.sinh(0.5 * t) ** 2) * np.cosh(nu * t))))
    return 0.0 if x - math.log(scaled) > _KV_ELIM else scaled * math.exp(-x)


def sphere_area(n: int) -> float:
    """Surface area of the unit n-sphere S^n."""
    return 2 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)


# ---------------------------------------------------------------------------
# regulated propagator integrals (radial reductions per space-time)

def propagator_integral(group: GroupDescriptor, mass: float, Lambda: float) -> dict:
    """∫ lambda(k) K^{-1}(k) up to the cutoff Lambda, reduced to a radial quadrature.

    kappa-Minkowski (Minkowski metric): after the exact spatial rescaling and
    the Wick rotation, the k0 integral is analytic, (pi/omega) e^{-d omega/2 kappa},
    leaving the radial integral over |k_spatial|.  Its integrand is exactly 0.0
    from r = 2 kappa _EXP_UNDERFLOW / d on, so a finite cutoff beyond that
    radius is cut there: on a range far past it the rule would place no node
    where the integrand is nonzero and read 0.  Lambda = inf needs no cut,
    since the rule maps [0, inf) onto (0, 1].
    Commutative (Euclidean): Omega_{D-1} ∫ r^{D-1} / (r^2 + m^2) dr, D = dim.
    """
    if mass < 0:
        raise ValueError("mass must be non-negative")
    if not Lambda > 0:
        raise ValueError("Lambda must be positive")
    name = group.name
    if name.startswith("kappa_minkowski"):
        d, kappa = group.meta["d"], group.meta["kappa"]

        def integrand(r):
            om = math.hypot(r, mass)
            return r ** (d - 1) * (math.pi / om) * math.exp(-d * om / (2 * kappa))

        n, points = d - 1, None
        hi = Lambda if Lambda == math.inf else min(Lambda, 2 * kappa * _EXP_UNDERFLOW / d)
    elif name == "commutative":
        D = group.dim

        def integrand(r):
            return r ** (D - 1) / (r * r + mass * mass)

        n, hi, points = D - 1, Lambda, [mass] if mass < Lambda < np.inf else None
    else:
        raise ValueError(f"no radial reduction for group {name!r}")
    val, err, _, ok = _quad(integrand, 0.0, hi, limit=200, points=points)
    area = sphere_area(n)
    return {"value": area * val, "error": area * err, "converged": ok}


def _loglog_slope(xs, ys):
    xs = np.log(np.asarray(xs, float))
    ys = np.log(np.maximum(np.asarray(ys, float), 1e-300))
    n = len(xs) // 2
    A = np.vstack([xs[n:], np.ones(len(xs) - n)]).T
    slope, _ = np.linalg.lstsq(A, ys[n:], rcond=None)[0]
    return float(slope)


def _converges(slope: float):
    """A log-log cutoff slope read as True (|slope| < CONV_SLOPE), False (> DIV_SLOPE) or None."""
    if slope > DIV_SLOPE:
        return False
    return True if abs(slope) < CONV_SLOPE else None


def propagator_sweep(group: GroupDescriptor, mass: float, lambdas) -> dict:
    """Cutoff sweep of the propagator integral with a divergence verdict.

    Each row is (Lambda, value, converged); a quadrature QUADPACK flags, or a
    value of exactly 0.0 (an underflowed integral, whose slope through 1e-300
    reads nothing), makes the verdict "inconclusive", whatever the slope
    reads, and a NaN value a NaN slope.
    """
    rows = []
    for L in lambdas:
        r = propagator_integral(group, mass, float(L))
        rows.append((float(L), r["value"], r["converged"]))
    values = [r[1] for r in rows]
    slope = (_loglog_slope([r[0] for r in rows], [max(v, 1e-300) for v in values])
             if not any(map(math.isnan, values)) else math.nan)
    converges = _converges(slope) if all(r[2] and r[1] != 0.0 for r in rows) else None
    verdict = {True: "convergent", False: "divergent", None: "inconclusive"}[converges]
    return {"rows": rows, "slope": slope, "verdict": verdict}


# ---------------------------------------------------------------------------
# kappa-Minkowski Bessel closed form and its quadrature oracle

def kmink_bessel_closed_form(m: float, kappa: float, d: int) -> float:
    """4 pi (4 pi kappa m / d)^{(d-1)/2} K_{(d-1)/2}(m d / 2 kappa)."""
    nu = (d - 1) / 2
    return 4 * math.pi * (4 * math.pi * kappa * m / d) ** nu * _kv(nu, m * d / (2 * kappa))


def kmink_bessel_oracle(m: float, kappa: float, d: int) -> dict:
    """Wick-rotated radial quadrature Omega_{d-1} ∫ r^{d-1} (pi/omega) e^{-d omega/2 kappa} dr.

    It is `propagator_integral` for kappa-Minkowski with no cutoff.
    """
    return propagator_integral(group_preset("kappa_minkowski", kappa=kappa, d=d), m, np.inf)


def bessel_oracle_compare(ms=(0.5, 1.0, 2.0), kappas=(0.5, 1.0, 2.0)) -> dict:
    """Ratio oracle/closed-form over the (m, kappa) grid at each d of BESSEL_DS; constant to 1e-6.

    A single global normalization constant is permitted (overall 2 pi loop
    factors are dropped throughout); the test is ratio constancy, not
    absolute value.  A row passes when its quadrature converged and its
    ratio is within RATIO_TOL of the mean over the converged rows of its d,
    so one bad quadrature fails its own row only; the report passes when
    every row does.  With no converged row, or a NaN ratio among them, that
    mean is NaN and every row of the d fails; `max_rel_dev` is reduced
    NaN-propagatingly.
    """
    out = {"rows": [], "max_rel_dev": 0.0, "ratios": {}}
    for d in BESSEL_DS:
        rows = []
        for m in ms:
            for kappa in kappas:
                cf = kmink_bessel_closed_form(m, kappa, d)
                orc = kmink_bessel_oracle(m, kappa, d)
                # a closed form that underflowed to 0 gives no ratio: NaN, without 0/0's warning
                ratio = orc["value"] / cf if cf else math.nan
                rows.append({"d": d, "m": m, "kappa": kappa, "closed_form": cf,
                             "oracle": orc["value"], "oracle_error": orc["error"],
                             "converged": orc["converged"], "ratio": ratio})
        ratios = [r["ratio"] for r in rows]
        converged = [r["ratio"] for r in rows if r["converged"]]
        mean = sum(converged) / len(converged) if converged else math.nan
        devs = np.abs(np.asarray(ratios) / mean - 1.0)
        for r, dev in zip(rows, devs):
            r["passed"] = bool(r["converged"] and dev < RATIO_TOL)
        out["rows"] += rows
        out["ratios"][d] = mean
        out["max_rel_dev"] = float(np.maximum(out["max_rel_dev"], np.max(devs)))
    out["converged"] = all(r["converged"] for r in out["rows"])
    out["passed"] = all(r["passed"] for r in out["rows"])
    return out


# ---------------------------------------------------------------------------
# Moyal non-planar closed form and Schwinger quadrature

def _moyal_regulator(p, Theta, Lambda: float) -> float:
    """c = (p Theta)^2/4 + 1/Lambda^2, the Schwinger regulator of the non-planar value."""
    p = np.asarray(p, float)
    Theta = np.asarray(Theta, float)
    return float(np.dot(Theta.T @ p, Theta.T @ p)) / 4 + 1.0 / Lambda ** 2


def moyal_nonplanar_closed(c: float, m: float) -> float:
    """∫_0^inf a^{-2} e^{-a m^2 - c/a} da = 2 (m/sqrt(c)) K_1(2 m sqrt(c))."""
    return 2 * (m / math.sqrt(c)) * _kv(1, 2 * m * math.sqrt(c))


def moyal_nonplanar(p, Theta, m: float, Lambda: float) -> dict:
    """Non-planar Moyal contribution with the Schwinger regulator.

    c = (p Theta)^2/4 + 1/Lambda^2; the alpha integral is
    `moyal_nonplanar_closed(c, m)`, and its quadrature here checks that
    closed form (the mixing classifier calls the closed form alone);
    overall loop normalization is factored out.
    """
    c = _moyal_regulator(p, Theta, Lambda)

    def integrand(a):
        return a ** (-2) * math.exp(-a * m * m - c / a)

    quad_val, quad_err, _, ok = _quad(integrand, 0.0, np.inf, limit=400)
    closed = moyal_nonplanar_closed(c, m)
    return {"c": c, "Lambda_eff2": 1.0 / c, "quad": quad_val, "quad_error": quad_err,
            "converged": ok, "closed_form": closed,
            "rel_err": abs(quad_val - closed) / abs(closed)}


def moyal_asymptotic_check(m: float, c: float) -> dict:
    """Small-c check: value tracks Lambda_eff^2 - m^2 log(Lambda_eff^2/m^2)."""
    closed = moyal_nonplanar_closed(c, m)
    leff2 = 1.0 / c
    asym = leff2 - m * m * math.log(leff2 / (m * m))
    return {"closed_form": closed, "asymptotic": asym, "ratio": closed / asym,
            "within_2pct": abs(closed / asym - 1.0) < 0.02}


# ---------------------------------------------------------------------------
# kappa-Minkowski non-planar value at temporal probes (closed form)

def _g(z: complex) -> complex:
    """e^z E1(z), the scaled exponential integral, for z off the negative real axis.

    Near 0, and near the negative real axis up to |z| = 60, it is the power
    series E1(z) = -gamma - log z - sum_{k>=1} (-z)^k/(k k!) (A&S 5.1.11),
    whose terms cancel little there, times e^z, which cannot overflow at
    |z| < 60.  Elsewhere it is the continued fraction of A&S 5.1.22 (even
    form, modified Lentz) for e^z E1(z) itself, so a large |Re z| overflows
    nothing; the series region spares it its slow convergence next to the
    cut (Zhang & Jin, Computation of Special Functions, 1996, E1Z).
    """
    if abs(z) < 2.0 or (z.real < 0.0 and abs(z.imag) < -0.6 * z.real and abs(z) < 60.0):
        term = s = -z
        k = 1
        while abs(term) > 1e-17 * k * abs(s):
            k += 1
            term *= -z / k
            s += term / k
        return cmath.exp(z) * (-0.5772156649015329 - cmath.log(z) - s)
    # 1/(z+1 - 1/(z+3 - 4/(z+5 - 9/(z+7 - ...))))
    b = z + 1.0
    c, h = 1e300, 1.0 / b
    dn = h
    for i in range(1, 1000):
        b += 2.0
        dn = 1.0 / (b - i * i * dn)
        c = b - i * i / c
        h *= c * dn
        if abs(c * dn - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"e^z E1(z): the continued fraction did not converge at z = {z}")


def _lorentz_cos(omega: float, m: float, Lambda: float) -> float:
    """C(omega) = ∫_{-Lambda}^{Lambda} cos(omega k) / (k^2 + m^2) dk, omega >= 0.

    C(0) = 2 atan(Lambda/m)/m.  For omega > 0 it is the full-line value
    (pi/m) e^{-omega m} less twice the tail Re T, T = ∫_Lambda^inf
    e^{i omega k}/(k^2 + m^2) dk, whose partial fractions give
    T = e^{i omega Lambda} [g(-omega m - i omega Lambda) - g(omega m - i omega Lambda)] / 2im
    with g(z) = e^z E1(z) (A&S 5.1; Gradshteyn & Ryzhik 3.723).  When
    omega Lambda << 1 and Lambda << m the two parts cancel, and the relative
    rounding error grows like eps m / Lambda.
    """
    if omega == 0.0:
        return 2.0 * math.atan(Lambda / m) / m
    wm, wl = omega * m, omega * Lambda
    phase = complex(math.cos(wl), math.sin(wl))  # e^{i omega Lambda}
    tail = phase * (_g(complex(-wm, -wl)) - _g(complex(wm, -wl))) / (2j * m)
    return math.pi * math.exp(-wm) / m - 2.0 * tail.real


def kappa_nonplanar_closed(p0: float, m: float, kappa: float, d: int, Lambda: float) -> float:
    """Non-planar value at the temporal probe p = (p0, 0), in closed form.

    With q = (-)p imposed exactly, the spatial delta fixes
    k_j^*(k0) = p_j (1 - e^{-k0/kappa})/(1 - e^{-p0/kappa}), which is 0 for a
    temporal p, and contributes the Jacobian |1 - e^{-p0/kappa}|^{-d}.  The
    Wick-rotated (k0 -> i k0) integrand, cut off at |k0| = Lambda, is then
    Re(w/K) = [(1 + D) cos(d k0/kappa) + 1 + D cos(2 d k0/kappa)] / (k0^2 + m^2)
    with D = e^{-d p0/kappa}, so the value is
    jac [(1 + D) C(d/kappa) + C(0) + D C(2d/kappa)] with C from `_lorentz_cos`.
    """
    if not (m > 0 and kappa > 0 and Lambda > 0 and d >= 1):
        raise ValueError("the kappa non-planar value needs m, kappa and Lambda > 0 and d >= 1 "
                         f"(m = {m}, kappa = {kappa}, Lambda = {Lambda}, d = {d})")
    denom = -math.expm1(-p0 / kappa)
    if abs(denom) < 1e-12:
        raise ValueError("p0 = 0 degenerates the non-planar delta")
    jac = abs(denom) ** (-d)
    dq = math.exp(-d * p0 / kappa)  # Delta(q) at q = (-)p
    w = d / kappa
    return jac * ((1.0 + dq) * _lorentz_cos(w, m, Lambda) + _lorentz_cos(0.0, m, Lambda)
                  + dq * _lorentz_cos(2 * w, m, Lambda))


# ---------------------------------------------------------------------------
# symbolic assembly of the one-loop two-point function

@dataclass
class TwoPointAssembly:
    """The planar/non-planar split with exact rational coefficient structure.

    planar    : (g^2/4!) delta(p ⊞ q) (1 + D(q)) ∫ lambda(k) K^{-1}(k) (3 + D(k))
    non-planar: (g^2/4!) ∫ lambda(k) K^{-1}(k) (1 + D(k)^{-1})(1 + D(q) D(k)^{-2})
                delta(p ⊞ k ⊞ q ⊟ k)
    where D is the modular function.  Coefficient polynomials are kept in
    exact Fractions over powers of D(q), D(k).
    """

    group: GroupDescriptor
    prefactor = Fraction(1, 24)  # g^2/4!; these three are class constants, not fields
    # {(power of D(q), power of D(k)): coefficient}
    planar_poly = {
        (0, 0): Fraction(3), (0, 1): Fraction(1), (1, 0): Fraction(3), (1, 1): Fraction(1)}
    nonplanar_poly = {
        (0, 0): Fraction(1), (0, -1): Fraction(1), (1, -2): Fraction(1), (1, -3): Fraction(1)}

    def commutative_coefficients(self) -> dict:
        """Exact rational collapse at D = 1, ⊞ = +."""
        planar = self.prefactor * sum(self.planar_poly.values())
        nonplanar = self.prefactor * sum(self.nonplanar_poly.values())
        return {"planar": planar, "nonplanar": nonplanar, "total": planar + nonplanar}

    def moyal_reduction(self) -> dict:
        """The (g^2/6) delta(p+q) ∫ K^{-1} (2 + e^{2i p.Theta.k}) form.

        Unimodular: D = 1, so planar collapses to 8/24 = 2 * (1/6) and
        non-planar to 4/24 = 1/6 carrying the residual fifth-slot phase,
        which is bilinear: 2 p.Theta.k at q = (-)p (real phase convention), as
        nonplanar_phase_residual checks.
        """
        if self.group.name != "moyal_extended":
            raise ValueError("moyal_reduction needs the extended Moyal group")
        c = self.commutative_coefficients()
        return {"coefficient": c["nonplanar"], "planar_multiple": c["planar"] / c["nonplanar"]}

    def nonplanar_phase_residual(self, p, k):
        """|slot 5 of p ⊞ k ⊞ (-)p ⊟ k - 2 p.Theta.k| / (1 + 2|Theta||p||k|), real convention.

        2|Theta||p||k| bounds the phase, and relative to it a correct law
        reads near eps at any theta (at most 1.1e-15 over 2e5 normal draws
        for theta from 1e-6 to 1e6); relative to 1 + |2 p.Theta.k| alone, a
        draw with a small phase reads up to 4.4e-12 at theta = 1e6.
        p and k are momenta or (n, dim) rows; the residual has one entry per row.
        """
        g = self.group
        p, k = np.asarray(p, dtype=complex), np.asarray(k, dtype=complex)
        word = nonplanar_residual(g, p, g.inv(p), k)
        ns = g.dim - 1
        ps, ks, Theta = p.real[..., :ns], k.real[..., :ns], g.meta["Theta"]
        expected = 2.0 * np.einsum("...i,ij,...j->...", ps, Theta, ks)
        scale = 1.0 + 2.0 * np.linalg.norm(Theta, 2) * (np.linalg.norm(ps, axis=-1)
                                                        * np.linalg.norm(ks, axis=-1))
        return np.abs(word[..., ns] - expected) / scale


# ---------------------------------------------------------------------------
# mixing classifier

@dataclass
class MixingReport:
    space: str
    planar_uv_divergent: Optional[bool]  # None: undecided (INCONCLUSIVE)
    planar_growth_exponent: float
    nonplanar_ir_singular: Optional[bool]  # None: undecided (INCONCLUSIVE)
    nonplanar_ir_raw_trend: float
    nonplanar_uv_finite: Optional[bool]
    verdict: str
    evidence: dict

    def as_dict(self):
        return asdict(self)


def _and(a, b):
    """Three-valued and: False if either is False, else None if either is undecided."""
    if a is False or b is False:
        return False
    return None if a is None or b is None else True


def _verdict(i, ii, iii):
    flags = (i, ii, iii)
    if any(f is None for f in flags):
        return "INCONCLUSIVE"
    return "MIXING" if all(flags) else "NO_MIXING"


MIXING_SPACES = ("moyal", "kappa", "commutative")


def _planar_sweep(group: GroupDescriptor, mass: float, lambdas, evidence: dict):
    """Criterion (i) and the growth exponent from the planar cutoff sweep, kept in `evidence`.

    (i) is True for a divergent sweep, False for a convergent one, None otherwise.
    """
    sweep = propagator_sweep(group, mass, lambdas)
    evidence["planar_sweep"] = sweep
    return {"divergent": True, "convergent": False}.get(sweep["verdict"]), sweep["slope"]


def mixing_classify(space: str, mass: float = 1.0, kappa: float = 1.0,
                    theta: float = 1.0, d: int = 3,
                    lambda_grid=None, p_grid=None) -> MixingReport:
    """Three-criterion UV/IR-mixing classification of a preset space-time.

    (i) UV divergence of ∫ lambda K^{-1} from a cutoff sweep; (ii) IR
    singularity of the non-planar value as p -> 0 (gated by (i), since the
    criterion is a singularity *caused by* the planar UV divergence);
    (iii) UV finiteness of the non-planar value at fixed p != 0.  For
    "moyal", p_grid holds the |p| of the IR probes and (iii) probes at the
    largest of them; for "kappa", it holds p0 / kappa.
    """
    evidence = {}

    if space == "moyal":
        lam_grid = lambda_grid if lambda_grid is not None else np.geomspace(10, 1e4, 8)
        i_div, growth = _planar_sweep(group_preset("commutative", dim=4), mass, lam_grid, evidence)

        Theta = group_preset("moyal_extended", theta=theta).meta["Theta"]
        pg = p_grid if p_grid is not None else np.geomspace(1.0, 1e-3, 7)
        rows = []
        for t in pg:
            c = _moyal_regulator(np.array([t, 0.0, 0.0, 0.0]), Theta, 1e8)
            rows.append((float(t), moyal_nonplanar_closed(c, mass)))
        evidence["ir_sequence"] = rows
        raw = _loglog_slope([r[0] for r in rows], [r[1] for r in rows])
        monotone = all(rows[j + 1][1] >= rows[j][1] for j in range(len(rows) - 1))
        # K1(2 m sqrt c) underflows to exactly 0.0 once theta |p| is about 1e3,
        # and a slope through log(1e-300) reads nothing: a zero leaves its criterion undecided
        ii_raw = raw < -DIV_SLOPE if monotone and all(r[1] != 0.0 for r in rows) else None
        ii = _and(ii_raw, i_div)

        p_fixed = np.array([float(np.max(pg)), 0.0, 0.0, 0.0])
        lrows = []
        for L in lam_grid:
            c = _moyal_regulator(p_fixed, Theta, float(L))
            lrows.append((float(L), moyal_nonplanar_closed(c, mass)))
        evidence["uv_sequence"] = lrows
        # the phase regulates only where it outweighs the cutoff term,
        # Lambda theta|p| >> 1; below that the value still grows with Lambda
        theta_p = float(np.linalg.norm(Theta.T @ p_fixed))
        acting = [r for r in lrows if r[0] * theta_p >= NONPLANAR_REGIME]
        iii = None
        if len(acting) >= 3 and all(r[1] != 0.0 for r in acting):
            iii = _converges(_loglog_slope([r[0] for r in acting], [r[1] for r in acting]))

        return MixingReport("moyal", i_div, growth, ii, raw, iii,
                            _verdict(i_div, ii, iii), evidence)

    if space == "kappa":
        g = group_preset("kappa_minkowski", kappa=kappa, d=d)
        lam_grid = lambda_grid if lambda_grid is not None else np.geomspace(10 * kappa, 1e4 * kappa, 8)
        i_div, growth = _planar_sweep(g, mass, lam_grid, evidence)

        pg = p_grid if p_grid is not None else np.geomspace(1.0, 1e-2, 5)
        rows = []
        for t in pg:
            # the temporal probe p = (t kappa, 0) keeps the rotated propagator positive
            rows.append((float(t), kappa_nonplanar_closed(t * kappa, mass, kappa, d, 200 * kappa)))
        evidence["ir_sequence"] = rows
        raw = _loglog_slope([r[0] for r in rows], [abs(r[1]) for r in rows])
        ii = _and(raw < -DIV_SLOPE, i_div)

        lrows = []
        for L in np.geomspace(10 * kappa, 1e3 * kappa, 6):
            lrows.append((float(L), kappa_nonplanar_closed(kappa, mass, kappa, d, float(L))))
        evidence["uv_sequence"] = lrows
        iii = _converges(_loglog_slope([r[0] for r in lrows],
                                       [max(abs(r[1]), 1e-300) for r in lrows]))

        return MixingReport(f"kappa_minkowski_d{d}", i_div, growth,
                            ii, raw, iii, _verdict(i_div, ii, iii), evidence)

    if space == "commutative":
        lam_grid = lambda_grid if lambda_grid is not None else np.geomspace(10, 1e4, 8)
        i_div, growth = _planar_sweep(group_preset("commutative", dim=d + 1), mass, lam_grid,
                                      evidence)
        # ⊞ = + makes k drop out of the non-planar delta: the sector is
        # degenerate (no k-dependent phase), so no IR singularity by definition
        evidence["nonplanar"] = "degenerate: delta(p + k + q - k) = delta(p + q)"
        return MixingReport("commutative", i_div, growth, False,
                            0.0, True, _verdict(i_div, False, True), evidence)

    raise ValueError(f"unknown space {space!r}; use {'|'.join(MIXING_SPACES)}")


# ---------------------------------------------------------------------------
# diagram enumeration (one-loop 2-point contractions of the 4-vertex)

def _adjacent(i, j):
    return (abs(i - j) % 4) in (1, 3)


# the legs of the quartic vertex per field content
_LEGS = {"real_phi4": ("real",) * 4,
         "charged_orientable": ("phi+", "phi", "phi+", "phi"),
         "charged_nonorientable": ("phi+", "phi+", "phi", "phi")}


def _pairs(a, b):
    """A real leg pairs with any leg, a phi+ leg only with a phi leg."""
    return "real" in (a, b) or {a, b} == {"phi+", "phi"}


def diagram_enumerate(field: str):
    """Wick contractions of one quartic vertex into the one-loop 2-point.

    The external p takes a real or phi+ leg, the external q a leg that pairs
    with it, and the two loop legs pair with each other.  A contraction is
    planar iff the loop legs are cyclically adjacent.
    """
    if field not in _LEGS:
        raise ValueError(f"unknown field content {field!r}")
    legs = _LEGS[field]
    out = []
    for ip in range(4):
        for iq in range(4):
            loop = tuple(sorted(set(range(4)) - {ip, iq}))
            if legs[ip] != "phi" and iq != ip and _pairs(legs[ip], legs[iq]) \
                    and _pairs(*(legs[i] for i in loop)):
                out.append({"p_leg": ip, "q_leg": iq, "loop_legs": loop,
                            "planar": _adjacent(*loop)})
    return out


def diagram_counts(field: str) -> dict:
    ds = diagram_enumerate(field)
    planar = sum(1 for d in ds if d["planar"])
    return {"total": len(ds), "planar": planar, "nonplanar": len(ds) - planar}
