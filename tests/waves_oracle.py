"""Oracles for the plane-wave algebra (tests only).

`numeric_star_oracle` evaluates the integral star-product formula of a
preset at one point x by quadrature: the inner oscillatory integral is done
analytically against a Gaussian window, the remaining smooth integrals by
Gauss-Hermite.  It approaches `qstkit.waves.star(f, g)(x)` as the damping
width grows, which is what the tests check.

`RefPacket` and `RefDeltaSum` are the one-packet algebra that `qstkit.waves`
stacks: each object is one packet or one sum, merged on its own.  The
stacked results must equal them label by label, bit for bit.  `delta_sum`
builds a one-label DeltaSum from (amplitude, atoms) terms.
"""

import math
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from qstkit.waves import MERGE_TOL, SUPPORT_TOL, DeltaSum, WavePacket, plane_wave


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


# ---------------------------------------------------------------------------
# the one-packet reference algebra

def _close(P, q):
    """Which rows of P are the momentum q: max|p - q| <= MERGE_TOL·(1 + max|q|)."""
    return np.abs(P - q).max(axis=-1, initial=0.0) <= MERGE_TOL * (1.0 + np.abs(q).max(initial=0.0))


def ref_merge(moms, amps):
    """One packet's merge: each row joins the first earlier kept row it is `_close` to.

    Rows are compared only within a run of sorted sums of real parts, cut
    where a gap is wider than two equal rows allow.
    """
    n = len(amps)
    if n > 1:
        key = moms.real.sum(axis=1)
        order = key.argsort(kind="stable")
        key = key[order]
        widest = 1.0 + np.fmax.reduce(np.abs(moms), axis=None, initial=0.0)
        linked = key[1:] - key[:-1] <= 2 * moms.shape[1] * MERGE_TOL * widest
        if linked.any():
            target = np.arange(n)
            linked = np.concatenate(([False], linked, [False]))
            for start, end in np.flatnonzero(linked[1:] != linked[:-1]).reshape(-1, 2).tolist():
                run = np.sort(order[start:end + 1]).tolist()
                reps = run[:1]
                for j in run[1:]:
                    hit = _close(moms[reps], moms[j])
                    if hit.any():
                        target[j] = reps[hit.argmax()]
                    else:
                        reps.append(j)
            first = target == np.arange(n)
            summed = amps[first]
            np.add.at(summed, np.cumsum(first)[target[~first]] - 1, amps[~first])
            moms, amps = moms[first], summed
    keep = ~(np.abs(amps) <= MERGE_TOL)
    return moms[keep], amps[keep]


class RefPacket:
    """One wave packet: (n, dim) momenta and (n,) amplitudes, merged on their own."""

    def __init__(self, group, moms, amps):
        self.group = group
        self.moms, self.amps = ref_merge(np.asarray(moms), np.asarray(amps, dtype=complex))

    def __add__(self, other):
        return RefPacket(self.group, np.concatenate((self.moms, other.moms)),
                         np.concatenate((self.amps, other.amps)))

    def scale(self, z):
        return RefPacket(self.group, self.moms, z * self.amps)

    def norm(self):
        return sum(map(abs, self.amps.tolist()))


def _ref_pairs(f, g):
    P, Q = f.moms, g.moms
    return (np.repeat(P, len(Q), axis=0), np.tile(Q, (len(P), 1)),
            np.outer(f.amps, g.amps).ravel())


def ref_star(f, g):
    P, Q, amps = _ref_pairs(f, g)
    return RefPacket(f.group, f.group.add(P, Q), amps)


def ref_dagger(f):
    return RefPacket(f.group, f.group.inv(f.moms), np.conj(f.amps))


def ref_act(gen, f, index=0, power=1):
    kappa, p = f.group.meta["kappa"], f.moms
    if gen == "E":
        eig = np.exp(-power * p[:, 0] / kappa)
    elif gen == "X" and index == 0:
        eig = kappa * (1.0 - np.exp(-p[:, 0] / kappa))
    else:
        eig = p[:, index]
    return RefPacket(f.group, p, eig * f.amps)


class RefDeltaSum:
    """One formal sum of delta words in normal form: {L: (words, amplitudes)}."""

    def __init__(self, group, W, amps):
        self.group, dim, self.words = group, group.dim, {}
        nonzero = ~(np.abs(W).max(axis=-1) <= MERGE_TOL)
        count = nonzero.sum(axis=1)
        for L in np.unique(count).tolist():
            rows = count == L
            V, a = W[rows][nonzero[rows]].reshape(np.count_nonzero(rows), L, dim), amps[rows]
            if L:
                value = reduce(group.add, V.swapaxes(0, 1))
                on = ~(np.abs(value).max(axis=-1) > SUPPORT_TOL)
                V, a = V[on], a[on]
            if L > 1:
                V, a = self._canonical_rotation(V, a)
            self.words[L] = ref_merge(V.reshape(len(a), L * dim), a)

    def _canonical_rotation(self, W, amps):
        m, L, dim = W.shape
        R = W[:, (np.arange(L)[:, None] + np.arange(L)) % L].reshape(m * L, L * dim)
        keys = np.concatenate((R.real, R.imag), axis=1).T[::-1]
        order = np.lexsort(np.vstack((keys, np.repeat(np.arange(m), L))))
        k = order[::L] % L
        factors = np.cumprod(np.concatenate((np.ones((m, 1)), self.group.modular(W[:, :-1])),
                                            axis=1), axis=1)
        rows = np.arange(m)
        return W[rows[:, None], (np.arange(L) + k[:, None]) % L], amps * factors[rows, k]

    def is_zero(self):
        return all(np.all(np.abs(a) <= MERGE_TOL) for _, a in self.words.values())

    def equals(self, other, tol=1e-10):
        """Every merged amplitude of self - other within tol (1 + s), s the largest
        |amplitude| of either sum; a NaN amplitude makes the sums unequal."""
        amps = [a for _, a in (*self.words.values(), *other.words.values())]
        tol = tol * (1.0 + np.max(np.abs(np.concatenate([np.zeros(0), *amps])), initial=0.0))
        for L in self.words.keys() | other.words.keys():
            empty = (np.zeros((0, L * self.group.dim)), np.zeros(0, complex))
            (A, a), (B, b) = self.words.get(L, empty), other.words.get(L, empty)
            _, diff = ref_merge(np.concatenate((A, B)), np.concatenate((a, -b)))
            if not np.all(np.abs(diff) <= tol):
                return False
        return True


def ref_integral_star(f, g):
    P, Q, amps = _ref_pairs(f, g)
    return RefDeltaSum(f.group, np.stack((P, Q), axis=1), amps)


def ref_twisted_trace_check(f, g):
    twisted = ref_act("E", g, power=f.group.meta["d"]) \
        if f.group.name.startswith("kappa_minkowski") else g
    return ref_integral_star(f, g).equals(ref_integral_star(twisted, f))


def delta_sum(group, terms, rng=None) -> DeltaSum:
    """The one-label DeltaSum of (amplitude, atoms) terms.

    An rng first shuffles the terms and rotates each word left by a random
    number of atoms, delta(a ⊞ R) -> Delta(a) delta(R ⊞ a) per atom moved,
    which the normal form must undo.
    """
    terms = [(complex(a), [np.asarray(x) for x in atoms]) for a, atoms in terms]
    if rng is not None:
        terms = [terms[i] for i in rng.permutation(len(terms))]
        for i, (a, atoms) in enumerate(terms):
            k = int(rng.integers(len(atoms))) if atoms else 0
            terms[i] = (a * math.prod(complex(group.modular(x)) for x in atoms[:k]),
                        atoms[k:] + atoms[:k])
    L = max((len(atoms) for _, atoms in terms), default=0)
    # padded with zero atoms, which the normal form drops
    W = np.array([atoms + [np.zeros(group.dim)] * (L - len(atoms)) for _, atoms in terms])
    return DeltaSum._of(group, W.reshape(len(terms), L, group.dim),
                        np.array([a for a, _ in terms], dtype=complex),
                        np.zeros(len(terms), np.intp), 1)
