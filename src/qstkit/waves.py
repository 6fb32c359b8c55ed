"""Plane-wave star algebra and the delta calculus.

A WavePacket is a finite complex combination of deformed plane waves e_p;
the star product composes momenta through the group law, the involution
sends e_p to e_{(-)p}.  Integrals of packets live in DeltaSum: formal sums
of delta symbols over ⊞/⊟ words whose normal form implements the deformed
cyclicity delta(p ⊞ q) = Delta((-)q) delta(q ⊞ p).  The formal volume
delta(0) is kept symbolic throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .momentum import GroupDescriptor

MERGE_TOL = 1e-12
SUPPORT_TOL = 1e-9


class GroupMismatch(ValueError):
    pass


def _key(vec, tol=MERGE_TOL):
    """Quantized hashable key for a momentum vector."""
    v = np.asarray(vec)
    out = []
    for x in v:
        out.append(round(float(np.real(x)) / tol))
        out.append(round(float(np.imag(x)) / tol))
    return tuple(out)


class WavePacket:
    """Finite map momentum -> complex amplitude over a fixed group.

    Momenta within the merge tolerance are identified (tolerance-aware
    linear merge: packets are small and quantized dict keys misbin points
    that straddle a rounding boundary).
    """

    def __init__(self, group: GroupDescriptor, terms=None):
        self.group = group
        self._moms = []
        self._amps = []
        if terms:
            for p, a in terms:
                self._add_term(np.asarray(p), complex(a))
        self._prune()

    def _add_term(self, p, a):
        scale = 1.0 + float(np.max(np.abs(p))) if p.size else 1.0
        for i, p0 in enumerate(self._moms):
            if p0.shape == p.shape and np.max(np.abs(p0 - p)) <= MERGE_TOL * scale:
                self._amps[i] += a
                return
        self._moms.append(np.asarray(p))
        self._amps.append(a)

    def _prune(self):
        keep = [i for i, a in enumerate(self._amps) if abs(a) > MERGE_TOL]
        self._moms = [self._moms[i] for i in keep]
        self._amps = [self._amps[i] for i in keep]

    @property
    def terms(self):
        return list(zip(self._moms, self._amps))

    def __len__(self):
        return len(self._moms)

    def __add__(self, other):
        if self.group is not other.group and self.group.name != other.group.name:
            raise GroupMismatch("packets live on different groups")
        out = WavePacket(self.group, self.terms)
        for p, a in other.terms:
            out._add_term(p, complex(a))
        out._prune()
        return out

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, z):
        return WavePacket(self.group, [(p, z * a) for p, a in self.terms])

    def norm(self):
        """l1 amplitude norm (zero iff the packet is zero)."""
        return sum(abs(a) for a in self._amps)

    def amplitude_at(self, p):
        p = np.asarray(p)
        scale = 1.0 + float(np.max(np.abs(p))) if p.size else 1.0
        for p0, a in zip(self._moms, self._amps):
            if np.max(np.abs(p0 - p)) <= MERGE_TOL * scale:
                return a
        return 0j

    def value_at(self, x):
        """Pointwise evaluation sum_p a_p exp(i p.x)."""
        x = np.asarray(x)
        return sum(a * np.exp(1j * np.dot(p, x)) for p, a in self.terms)

    def __repr__(self):
        inner = " + ".join(f"({a:.3g})e_{np.round(np.real(p), 6)}" for p, a in self.terms)
        return f"WavePacket[{self.group.name}: {inner or '0'}]"


def packet_to_json(f: WavePacket) -> str:
    import json
    return json.dumps({
        "group": f.group.name,
        "terms": [{"p": [float(np.real(x)) for x in p],
                   "re": float(a.real), "im": float(a.imag)}
                  for p, a in f.terms],
    }, sort_keys=True)


def packet_from_json(text: str, group: GroupDescriptor) -> WavePacket:
    import json
    data = json.loads(text)
    if data["group"] != group.name:
        raise GroupMismatch(f"packet is on {data['group']!r}, not {group.name!r}")
    return WavePacket(group, [(np.asarray(t["p"], float), t["re"] + 1j * t["im"])
                              for t in data["terms"]])


def plane_wave(group: GroupDescriptor, p, amp=1.0) -> WavePacket:
    return WavePacket(group, [(np.asarray(p), amp)])


def unit_wave(group: GroupDescriptor) -> WavePacket:
    return plane_wave(group, np.zeros(group.dim))


def star(f: WavePacket, g: WavePacket) -> WavePacket:
    """e_p * e_q = e_{p [+] q}, extended bilinearly."""
    if f.group.name != g.group.name:
        raise GroupMismatch(f"{f.group.name} vs {g.group.name}")
    grp = f.group
    if not (f.terms and g.terms):
        return WavePacket(grp)
    # all |f| x |g| momentum pairs, f-major, composed in one call of the law
    P, Q = np.array(f._moms), np.array(g._moms)
    moms = grp.add(np.repeat(P, len(Q), axis=0), np.tile(Q, (len(P), 1)))
    return WavePacket(grp, list(zip(moms, np.outer(f._amps, g._amps).ravel())))


def dagger(f: WavePacket) -> WavePacket:
    """Antilinear involution: (a e_p)^† = conj(a) e_{(-)p}."""
    grp = f.group
    return WavePacket(grp, [(grp.inv(p), np.conj(a)) for p, a in f.terms])


# generator actions on kappa-Minkowski packets -------------------------------

def act(gen: str, f: WavePacket, index: int = 0, power: int = 1) -> WavePacket:
    """Diagonal action of P_mu, E^n, X_mu on kappa-Minkowski plane waves.

    P_mu e_p = p_mu e_p;  E^n e_p = e^{-n p0/kappa} e_p;
    X0 e_p = kappa(1 - e^{-p0/kappa}) e_p;  X_j e_p = p_j e_p.
    """
    grp = f.group
    if not grp.name.startswith("kappa_minkowski"):
        raise ValueError(f"generator {gen!r} acts only on kappa-Minkowski packets")
    kappa = grp.meta["kappa"]

    def eig(p):
        if gen == "P":
            return p[index]
        if gen == "E":
            return math.exp(-power * p[0] / kappa)
        if gen == "X":
            if index == 0:
                return kappa * (1.0 - math.exp(-p[0] / kappa))
            return p[index]
        raise ValueError(f"unknown generator {gen!r}")

    return WavePacket(grp, [(p, eig(p) * a) for p, a in f.terms])


# ---------------------------------------------------------------------------
# delta calculus

@dataclass(frozen=True)
class _Term:
    amp: complex
    atoms: tuple  # tuple of momentum vectors; () is the formal volume delta(0)


class DeltaSum:
    """Formal sum  sum_i a_i delta(w_i)  over ⊞-words in concrete momenta.

    Terms are stored in normal form: words flattened to atom sequences,
    zero atoms removed, off-support terms (word value != 0) dropped as zero
    distributions, and each surviving word rotated to its lexicographically
    smallest cyclic form with the modular cyclicity factor applied.  The
    formal volume (2 pi)^{d+1} delta(0) is the empty word, never a float.
    """

    def __init__(self, group: GroupDescriptor, terms=None, normalize=True, rng=None):
        self.group = group
        raw = []
        for amp, atoms in (terms or []):
            raw.append(_Term(complex(amp), tuple(np.asarray(a) for a in atoms)))
        self._terms = self._normal_form(raw, rng=rng) if normalize else raw

    # -- construction of words ------------------------------------------------

    def _on_support(self, words):
        """Whether each word's value p1 ⊞ p2 ⊞ ... vanishes; the empty word does.

        Words of one length are composed together, one law call per ⊞.
        """
        on = [True] * len(words)
        by_length = {}
        for i, atoms in enumerate(words):
            if atoms:
                by_length.setdefault(len(atoms), []).append(i)
        for idx in by_length.values():
            A = np.array([words[i] for i in idx])  # (words, length, dim)
            v = A[:, 0]
            for k in range(1, A.shape[1]):
                v = self.group.add(v, A[:, k])
            for i, val in zip(idx, np.max(np.abs(v), axis=-1)):
                on[i] = not val > SUPPORT_TOL  # a NaN value is kept in the sum
        return on

    def _normal_form(self, raw, rng=None):
        merged = {}
        order = list(range(len(raw)))
        if rng is not None:
            rng.shuffle(order)
        words = [[np.asarray(a) for a in t.atoms if np.max(np.abs(np.asarray(a))) > MERGE_TOL]
                 for t in raw]
        on_support = self._on_support(words)
        for idx in order:
            if not on_support[idx]:
                continue  # delta at a nonzero point: the zero distribution
            t, atoms = raw[idx], words[idx]
            amp = t.amp
            if atoms:
                amp, atoms = self._canonical_rotation(amp, atoms, rng=rng)
            key = tuple(_key(a) for a in atoms)
            if key in merged:
                a2, at2 = merged[key]
                merged[key] = (a2 + amp, at2)
            else:
                merged[key] = (amp, tuple(atoms))
        out = [_Term(a, at) for (a, at) in merged.values() if abs(a) > MERGE_TOL]
        out.sort(key=lambda t: tuple(_key(a) for a in t.atoms))
        return out

    def _rotate_once(self, amp, atoms):
        """delta(a ⊞ R) -> Delta(a) delta(R ⊞ a): one cyclic left rotation.

        On the delta's support R evaluates to (-)a, so the printed factor
        Delta((-)R) equals Delta(a); a full cycle multiplies the amplitude
        by Delta(word value) = Delta(0) = 1, which keeps rotation well
        defined.
        """
        fac = self.group.modular(atoms[0])
        return amp * fac, atoms[1:] + atoms[:1]

    def _canonical_rotation(self, amp, atoms, rng=None):
        """Bring the word to its lexicographically smallest cyclic order."""
        if rng is not None:
            for _ in range(int(rng.integers(len(atoms)))):
                amp, atoms = self._rotate_once(amp, atoms)
        best = (tuple(_key(a) for a in atoms), amp, list(atoms))
        cur_amp, cur = amp, list(atoms)
        for _ in range(len(atoms) - 1):
            cur_amp, cur = self._rotate_once(cur_amp, cur)
            k = tuple(_key(a) for a in cur)
            if k < best[0]:
                best = (k, cur_amp, list(cur))
        return best[1], best[2]

    # -- public API ------------------------------------------------------------

    @property
    def terms(self):
        return [(t.amp, t.atoms) for t in self._terms]

    def __len__(self):
        return len(self._terms)

    def is_zero(self, tol=MERGE_TOL):
        return all(abs(t.amp) <= tol for t in self._terms)

    def equals(self, other: "DeltaSum", tol=1e-10) -> bool:
        if self.group.name != other.group.name:
            return False
        mine = {tuple(_key(a) for a in t.atoms): t.amp for t in self._terms}
        theirs = {tuple(_key(a) for a in t.atoms): t.amp for t in other._terms}
        for k in set(mine) | set(theirs):
            if abs(mine.get(k, 0j) - theirs.get(k, 0j)) > tol:
                return False
        return True

    def __repr__(self):
        if not self._terms:
            return "DeltaSum[0]"
        bits = []
        for t in self._terms:
            if t.atoms:
                w = " [+] ".join(str(np.round(np.real(a), 4)) for a in t.atoms)
            else:
                w = "0"
            bits.append(f"({t.amp:.4g})·δ({w})")
        return "DeltaSum[" + " + ".join(bits) + "]"


def integral(f: WavePacket) -> DeltaSum:
    """∫ f = sum_p a_p delta(p)."""
    return DeltaSum(f.group, [(a, (p,)) for p, a in f.terms])


def integral_star(f: WavePacket, g: WavePacket) -> DeltaSum:
    """∫ f*g = sum a_p b_q delta(p ⊞ q), kept as two-atom words."""
    if f.group.name != g.group.name:
        raise GroupMismatch(f"{f.group.name} vs {g.group.name}")
    terms = []
    for p, a in f.terms:
        for q, b in g.terms:
            terms.append((a * b, (p, q)))
    return DeltaSum(f.group, terms)


def twisted_trace_check(f: WavePacket, g: WavePacket, tol=1e-10) -> bool:
    """∫ f*g  ==  ∫ (E^d g)*f  as DeltaSums (kappa-Minkowski twisted trace).

    For unimodular groups (Moyal, rho-Minkowski) the twist is trivial and
    this reduces to plain cyclicity of the integral.
    """
    grp = f.group
    lhs = integral_star(f, g)
    if grp.name.startswith("kappa_minkowski"):
        d = grp.meta["d"]
        gt = act("E", g, power=d)
    else:
        gt = g  # unimodular: plain cyclicity
    rhs = integral_star(gt, f)
    return lhs.equals(rhs, tol=tol)


# ---------------------------------------------------------------------------
# numeric star-product oracle

@dataclass
class QuadSpec:
    """Oscillatory-quadrature parameters for the integral star formulas."""
    window: float = 40.0     # integration window, in units of 1/deformation
    width: float = 10.0      # Gaussian damping width, same units
    points: int = 120        # Gauss-Hermite nodes
    tol: float = 1e-8


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
