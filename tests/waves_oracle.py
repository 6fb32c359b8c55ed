"""Numeric star-product oracle for the plane-wave algebra (tests only).

`numeric_star_oracle` evaluates the integral star-product formula of a
preset at one point x by quadrature: the inner oscillatory integral is done
analytically against a Gaussian window, the remaining smooth integrals by
Gauss-Hermite.  It approaches `qstkit.waves.star(f, g)(x)` as the damping
width grows, which is what the tests check.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from qstkit.waves import WavePacket, plane_wave


def unit_wave(group) -> WavePacket:
    """e_0, the unit of the star product."""
    return plane_wave(group, np.zeros(group.dim))


def packet_value(f: WavePacket, x) -> complex:
    """f at the point x: sum_p a_p exp(i p.x)."""
    return complex(sum(a * np.exp(1j * np.dot(p, x)) for p, a in f.terms))


@dataclass
class QuadSpec:
    """Oscillatory-quadrature parameters for the integral star formulas."""
    window: float = 40.0     # integration window, in units of 1/deformation
    width: float = 10.0      # Gaussian damping width, same units
    points: int = 120        # Gauss-Hermite nodes


def _gauss_hermite_mean(h, center, sigma, npts, halfwidth=None):
    """∫ G_sigma(t - center) h(t) dt with a unit-mass Gaussian, via Gauss-Hermite.

    A finite halfwidth truncates the abscissas to |t - center| <= halfwidth,
    the quadrature analogue of integrating over a compact window.
    """
    nodes, weights = np.polynomial.hermite_e.hermegauss(npts)
    if halfwidth is not None:
        keep = np.abs(sigma * nodes) <= halfwidth
        nodes, weights = nodes[keep], weights[keep]
    vals = np.array([h(center + sigma * x) for x in nodes], dtype=complex)
    return (weights @ vals) / math.sqrt(2 * math.pi)


def numeric_star_oracle(f: WavePacket, g: WavePacket, x, quad: Optional[QuadSpec] = None) -> complex:
    """Evaluate the integral star-product formula of the preset at the point x.

    The inner oscillatory integral is done analytically against a Gaussian
    window (it collapses onto a delta in the dual variable); the remaining
    smooth one-dimensional integrals are done by Gauss-Hermite quadrature.
    The result approaches star(f, g)(x) as the damping width grows.
    """
    quad = quad or QuadSpec()
    grp = f.group
    x = np.asarray(x, dtype=float)
    name = grp.name

    if name.startswith("kappa_minkowski"):
        kappa = grp.meta["kappa"]
        sigma = quad.width / kappa  # y0-damping width
        total = 0j
        for p, a in f.terms:
            for q, b in g.terms:
                # ∫ dp0'/2pi dy0 e^{-i y0 p0'} f(x0+y0, x_j) g(x0, e^{-p0'/k} x_j)
                # y0-integral against the Gaussian window: G centered at p=p0ʼ
                def hfun(p0p, q=q):
                    return np.exp(1j * (q[0] * x[0] + np.dot(q[1:], x[1:]) * math.exp(-p0p / kappa)))
                phase_f = a * np.exp(1j * (p[0] * x[0] + np.dot(p[1:], x[1:])))
                val = _gauss_hermite_mean(hfun, p[0], 1.0 / sigma, quad.points,
                                          halfwidth=quad.window * kappa)
                total += phase_f * b * val
        return total

    if name == "rho_minkowski":
        rho = grp.meta["rho"]
        sigma = quad.width * abs(rho)  # y0-damping width, scale 1/rho in p0'
        total = 0j
        for p, a in f.terms:
            for q, b in g.terms:
                def hfun(p0p, q=q):
                    # q.(R^T x) realizes the R(+rho p0) q composition of the
                    # group law; the printed formula's R(rho p0) x matches the
                    # opposite global sign of rho (see notes).
                    cth, sth = math.cos(rho * p0p), math.sin(rho * p0p)
                    rx = np.array([cth * x[1] + sth * x[2], -sth * x[1] + cth * x[2]])
                    return np.exp(1j * (q[0] * x[0] + q[1] * rx[0] + q[2] * rx[1] + q[3] * x[3]))
                phase_f = a * np.exp(1j * np.dot(p, x))
                val = _gauss_hermite_mean(hfun, p[0], 1.0 / sigma, quad.points,
                                          halfwidth=quad.window / abs(rho))
                total += phase_f * b * val
        return total

    if name == "moyal_extended":
        return _moyal_oracle(f, g, x, quad)

    raise ValueError(f"no integral star-product formula wired for {name!r}")


def _moyal_oracle(f: WavePacket, g: WavePacket, x, quad: QuadSpec) -> complex:
    """Phase-space double integral (1/(pi θ)^4)∬ f(x+y)g(x+z)e^{-2i y.Θ^{-1}.z}.

    For plane waves the integral factorizes over symplectic blocks.  In each
    block the two z-integrals against the Gaussian damping are analytic
    (narrow Gaussians pinning y); the remaining y-integrals are damped 1-D
    Gauss-Hermite quadratures.  The undamped limit is the Weyl phase
    exp(-(i/2) p.Θ.q) per wave pair.
    """
    grp = f.group
    theta = grp.meta["theta"]
    ns = grp.dim - 1
    sigma = quad.width * abs(theta)
    total = 0j
    for p, a in f.terms:
        for q, b in g.terms:
            val = a * b * np.exp(1j * (np.dot(np.real(p[:ns]), x[:ns]) + np.dot(np.real(q[:ns]), x[:ns])))
            val *= np.exp(1j * (p[ns] + q[ns]))  # phase-slot values e^{i p5}
            for blk in range(ns // 2):
                i1, i2 = 2 * blk, 2 * blk + 1
                val *= _moyal_block(np.real(p[i1]), np.real(p[i2]),
                                    np.real(q[i1]), np.real(q[i2]), theta, sigma, quad.points)
            total += val
    return total


def _moyal_block(p1, p2, q1, q2, theta, sigma, npts):
    """One symplectic block of the damped Moyal integral for a wave pair.

    (1/(pi θ)^2) ∬∬ dy1 dy2 dz1 dz2 e^{i(p1 y1 + p2 y2 + q1 z1 + q2 z2)}
                 e^{+(2i/θ)(y1 z2 - y2 z1)} e^{-(y²+z²)/2σ²}.
    The z2 (z1) integral pins y1 near -θ q2/2 (y2 near +θ q1/2) with width
    θ/2σ; collecting the Gaussian normalizations leaves two unit-mass means.
    """
    s = 2.0 / theta
    c1 = -q2 / s  # y1 center
    c2 = q1 / s   # y2 center
    w = 1.0 / (sigma * abs(s))
    nodes, weights = np.polynomial.hermite_e.hermegauss(npts)

    def damped_mean(pp, c):
        vals = np.exp(1j * pp * (c + w * nodes)) * np.exp(-(c + w * nodes) ** 2 / (2 * sigma ** 2))
        return (weights @ vals) / math.sqrt(2 * math.pi)

    v1 = damped_mean(p1, c1)
    v2 = damped_mean(p2, c2)
    # (1/(piθ)^2) (sqrt(2π)σ)^2 [z-integrals] * (sqrt(2π) w)^2 [y-Gaussian masses] = 1
    norm = (2 * math.pi * sigma * w) ** 2 / (math.pi * theta) ** 2 * (2 * math.pi) / (2 * math.pi)
    return norm * v1 * v2
