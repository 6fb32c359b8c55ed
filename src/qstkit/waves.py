"""Plane-wave star algebra and the delta calculus.

A WavePacket is a finite complex combination of deformed plane waves e_p;
the star product composes momenta through the group law, the involution
sends e_p to e_{(-)p}.  Integrals of packets live in DeltaSum: formal sums
of delta symbols over ⊞/⊟ words whose normal form implements the deformed
cyclicity delta(p ⊞ q) = Delta((-)q) delta(q ⊞ p).  The formal volume
delta(0) is kept symbolic throughout.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .momentum import GroupDescriptor

MERGE_TOL = 1e-12
SUPPORT_TOL = 1e-9


class GroupMismatch(ValueError):
    pass


def _close(P, q):
    """Which rows of P are the momentum q: max|p - q| <= MERGE_TOL·(1 + max|q|)."""
    return np.abs(P - q).max(axis=-1, initial=0.0) <= MERGE_TOL * (1.0 + np.abs(q).max(initial=0.0))


def _merge(moms, amps):
    """Identify equal momenta, sum their amplitudes and drop zero amplitudes.

    A row merges into the first earlier kept row that it is `_close` to, and
    rows keep their order.  Rows are compared only within a run of sorted sums
    of real parts, cut where a gap is wider than two equal rows allow.
    """
    n = len(amps)
    if n > 1:
        key = moms.real.sum(axis=1)  # not p_0: p ⊞ q and q ⊞ p share it on kappa-Minkowski
        order = key.argsort(kind="stable")
        key = key[order]
        widest = 1.0 + np.fmax.reduce(np.abs(moms), axis=None, initial=0.0)  # NaN-blind
        # dim·MERGE_TOL·widest bounds the gap of equal rows; twice that covers rounding
        linked = key[1:] - key[:-1] <= 2 * moms.shape[1] * MERGE_TOL * widest
        if linked.any():
            target = np.arange(n)
            linked = np.concatenate(([False], linked, [False]))
            # each run of linked gaps [start, end) holds the rows order[start:end + 1]
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
            summed = amps[first]  # representatives first, then the rest in order
            np.add.at(summed, np.cumsum(first)[target[~first]] - 1, amps[~first])
            moms, amps = moms[first], summed
    keep = ~(np.abs(amps) <= MERGE_TOL)  # a NaN amplitude stays visible
    return moms[keep], amps[keep]


class WavePacket:
    """Finite map momentum -> complex amplitude over a fixed group.

    An (n, dim) momentum array and an (n,) amplitude array, in first-appearance order.
    """

    def __init__(self, group: GroupDescriptor, terms=None):
        terms = list(terms or ())
        moms = np.array([np.asarray(p) for p, _ in terms]) if terms else np.zeros((0, group.dim))
        self.group = group
        self._moms, self._amps = _merge(moms, np.array([a for _, a in terms], dtype=complex))

    @classmethod
    def _of(cls, group, moms, amps):
        out = cls.__new__(cls)
        out.group = group
        out._moms, out._amps = _merge(moms, amps)
        return out

    @property
    def terms(self):
        return list(zip(self._moms, self._amps.tolist()))

    def __len__(self):
        return len(self._amps)

    def __add__(self, other):
        if self.group is not other.group and self.group.name != other.group.name:
            raise GroupMismatch("packets live on different groups")
        return WavePacket._of(self.group, np.concatenate((self._moms, other._moms)),
                              np.concatenate((self._amps, other._amps)))

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, z):
        return WavePacket._of(self.group, self._moms, z * self._amps)

    def norm(self):
        """l1 amplitude norm (zero iff the packet is zero)."""
        return sum(map(abs, self._amps.tolist()))

    def __repr__(self):
        inner = " + ".join(f"({a:.3g})e_{np.round(np.real(p), 6)}" for p, a in self.terms)
        return f"WavePacket[{self.group.name}: {inner or '0'}]"


def plane_wave(group: GroupDescriptor, p, amp=1.0) -> WavePacket:
    return WavePacket(group, [(np.asarray(p), amp)])


def _pairs(f: WavePacket, g: WavePacket):
    """All |f| x |g| momentum pairs, f-major, and their amplitude products."""
    if f.group.name != g.group.name:
        raise GroupMismatch(f"{f.group.name} vs {g.group.name}")
    P, Q = f._moms, g._moms
    return (np.repeat(P, len(Q), axis=0), np.tile(Q, (len(P), 1)),
            np.outer(f._amps, g._amps).ravel())


def star(f: WavePacket, g: WavePacket) -> WavePacket:
    """e_p * e_q = e_{p [+] q}, extended bilinearly."""
    P, Q, amps = _pairs(f, g)
    # all pairs composed in one call of the law
    return WavePacket._of(f.group, f.group.add(P, Q), amps)


def dagger(f: WavePacket) -> WavePacket:
    """Antilinear involution: (a e_p)^† = conj(a) e_{(-)p}."""
    return WavePacket._of(f.group, f.group.inv(f._moms), np.conj(f._amps))


# generator actions on kappa-Minkowski packets -------------------------------

def act(gen: str, f: WavePacket, index: int = 0, power: int = 1) -> WavePacket:
    """Diagonal action of P_mu, E^n, X_mu on kappa-Minkowski plane waves.

    P_mu e_p = p_mu e_p;  E^n e_p = e^{-n p0/kappa} e_p;
    X0 e_p = kappa(1 - e^{-p0/kappa}) e_p;  X_j e_p = p_j e_p.
    """
    if not f.group.name.startswith("kappa_minkowski"):
        raise ValueError(f"generator {gen!r} acts only on kappa-Minkowski packets")
    kappa, p = f.group.meta["kappa"], f._moms
    if gen == "E":
        eig = np.exp(-power * p[:, 0] / kappa)
    elif gen == "X" and index == 0:
        eig = kappa * (1.0 - np.exp(-p[:, 0] / kappa))
    elif gen in ("P", "X"):
        eig = p[:, index]
    else:
        raise ValueError(f"unknown generator {gen!r}")
    return WavePacket._of(f.group, p, eig * f._amps)


# ---------------------------------------------------------------------------
# delta calculus

class DeltaSum:
    """Formal sum  sum_i a_i delta(w_i)  over ⊞-words in concrete momenta.

    Terms are stored in normal form: zero atoms removed, off-support words
    (word value != 0) dropped as zero distributions, each surviving word
    rotated to its lexicographically smallest cyclic form with the modular
    cyclicity factor applied, and equal words merged; the words of length L
    are one (m, L·dim) array.  The formal volume (2 pi)^{d+1} delta(0) is the
    empty word, never a float.  An rng shuffles and rotates the words first.
    """

    def __init__(self, group: GroupDescriptor, terms=None, rng=None):
        terms = list(terms or ())
        L = max((len(atoms) for _, atoms in terms), default=0)
        # padded with zero atoms, which the normal form drops
        pad = [[*map(np.asarray, atoms)] + [np.zeros(group.dim)] * (L - len(atoms))
               for _, atoms in terms]
        self.group = group
        self._words = self._normal_form(np.array(pad).reshape(len(terms), L, group.dim),
                                        np.array([a for a, _ in terms], dtype=complex), rng)

    @classmethod
    def _of(cls, group, W, amps):
        out = cls.__new__(cls)
        out.group = group
        out._words = out._normal_form(W, amps, None)
        return out

    def _normal_form(self, W, amps, rng):
        """{L: (words, amplitudes)} for the (m, L, dim) words W."""
        dim, words = self.group.dim, {}
        nonzero = ~(np.abs(W).max(axis=-1) <= MERGE_TOL)  # zero atoms drop out of their word
        count = nonzero.sum(axis=1)
        for L in np.unique(count).tolist():
            rows = count == L
            V, a = W[rows][nonzero[rows]].reshape(np.count_nonzero(rows), L, dim), amps[rows]
            if L:
                value = reduce(self.group.add, V.swapaxes(0, 1))
                on = ~(np.abs(value).max(axis=-1) > SUPPORT_TOL)  # a NaN value stays in the sum
                V, a = V[on], a[on]
            if rng is not None and L:
                shuffle = rng.permutation(len(a))
                V, a = self._rotated(V[shuffle], a[shuffle], rng.integers(L, size=len(a)))
            if L > 1:
                V, a = self._canonical_rotation(V, a)
            words[L] = _merge(V.reshape(len(a), L * dim), a)
        return words

    def _rotated(self, W, amps, k):
        """Rotate word i left by k_i atoms: delta(a ⊞ R) -> Delta(a) delta(R ⊞ a).

        On the delta's support R evaluates to (-)a, so the factor Delta((-)R)
        equals Delta(a); a full cycle multiplies the amplitude by
        Delta(word value) = Delta(0) = 1, which keeps rotation well defined.
        """
        m, L = W.shape[:2]
        factors = np.cumprod(np.concatenate((np.ones((m, 1)), self.group.modular(W[:, :-1])),
                                            axis=1), axis=1)
        rows = np.arange(m)
        return W[rows[:, None], (np.arange(L) + k[:, None]) % L], amps * factors[rows, k]

    def _canonical_rotation(self, W, amps):
        """Bring each word to its lexicographically smallest cyclic order."""
        m, L, dim = W.shape
        R = W[:, (np.arange(L)[:, None] + np.arange(L)) % L].reshape(m * L, L * dim)
        keys = np.concatenate((R.real, R.imag), axis=1).T[::-1]
        # sorted by word first, so each word's smallest rotation leads its L rows
        order = np.lexsort(np.vstack((keys, np.repeat(np.arange(m), L))))
        return self._rotated(W, amps, order[::L] % L)

    # -- public API ------------------------------------------------------------

    @property
    def terms(self):
        return [(a, tuple(w.reshape(L, self.group.dim)))
                for L, (flat, amps) in self._words.items() for w, a in zip(flat, amps.tolist())]

    def __len__(self):
        return sum(len(amps) for _, amps in self._words.values())

    def is_zero(self):
        return all(np.all(np.abs(amps) <= MERGE_TOL) for _, amps in self._words.values())

    def equals(self, other: "DeltaSum", tol=1e-10) -> bool:
        """Whether self - other merges to amplitudes all within tol."""
        if self.group.name != other.group.name:
            return False
        for L in self._words.keys() | other._words.keys():
            empty = (np.zeros((0, L * self.group.dim)), np.zeros(0, complex))
            (A, a), (B, b) = self._words.get(L, empty), other._words.get(L, empty)
            _, diff = _merge(np.concatenate((A, B)), np.concatenate((a, -b)))
            if not np.all(np.abs(diff) <= tol):
                return False
        return True

    def __repr__(self):
        bits = [f"({amp:.4g})·δ({' [+] '.join(str(np.round(np.real(a), 4)) for a in atoms) or 0})"
                for amp, atoms in self.terms]
        return f"DeltaSum[{' + '.join(bits) or 0}]"


def integral_star(f: WavePacket, g: WavePacket) -> DeltaSum:
    """∫ f*g = sum a_p b_q delta(p ⊞ q), kept as two-atom words."""
    P, Q, amps = _pairs(f, g)
    return DeltaSum._of(f.group, np.stack((P, Q), axis=1), amps)


def twisted_trace_check(f: WavePacket, g: WavePacket) -> bool:
    """∫ f*g  ==  ∫ (E^d g)*f  as DeltaSums, within 1e-10 (kappa-Minkowski twisted trace).

    For unimodular groups (Moyal, rho-Minkowski) the twist is trivial and
    this reduces to plain cyclicity of the integral.
    """
    if f.group.name.startswith("kappa_minkowski"):
        twisted = act("E", g, power=f.group.meta["d"])
    else:
        twisted = g  # unimodular: plain cyclicity
    return integral_star(f, g).equals(integral_star(twisted, f))
