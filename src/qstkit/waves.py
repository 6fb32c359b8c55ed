"""Plane-wave star algebra and the delta calculus.

A WavePacket is a finite complex combination of deformed plane waves e_p;
the star product composes momenta through the group law, the involution
sends e_p to e_{(-)p}.  Integrals of packets live in DeltaSum: formal sums
of delta symbols over ⊞/⊟ words whose normal form implements the deformed
cyclicity delta(p ⊞ q) = Delta((-)q) delta(q ⊞ p).  The formal volume
delta(0) is kept symbolic throughout.

Both are stacks: each row carries the label of one of `count` independent
packets (or sums), every operation acts label by label, and a value such
as a norm or a verdict comes back once per label.  So one array pass does
the work of many small packets.  A plain packet is the one-label stack,
and its values come back as plain scalars.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .momentum import GroupDescriptor

MERGE_TOL = 1e-12
SUPPORT_TOL = 1e-9
# DeltaSum.equals reads two sums equal in a label when every amplitude of
# self - other there is at most EQUAL_TOL (1 + s), s the label's largest |amplitude|
EQUAL_TOL = 1e-10


class GroupMismatch(ValueError):
    pass


def _same_group(g, h) -> bool:
    """Whether two descriptors are one group: equal names and equal parameters, arrays by value."""
    return g is h or (g.name == h.name and g.meta.keys() == h.meta.keys()
                      and all(np.array_equal(g.meta[k], h.meta[k]) for k in g.meta))


def _check_group(f, g):
    if not _same_group(f.group, g.group):
        raise GroupMismatch(f"packets live on different groups: {f.group.name} {f.group.meta} "
                            f"vs {g.group.name} {g.group.meta}")


def _check_same(f, g):
    """Two stacks that combine: one group and one label count."""
    _check_group(f, g)
    if f.count != g.count:
        raise ValueError(f"stacks of {f.count} and {g.count} packets")


def _unstack(values):
    """One value per label; a one-label stack gives a plain scalar."""
    return values[0].item() if len(values) == 1 else values


def _merge(moms, amps, labels):
    """Identify equal momenta within each label, sum their amplitudes and drop zero amplitudes.

    A row merges into the first earlier kept row of its label that it is
    within max|p - q| <= MERGE_TOL·(1 + max|q|) of, and rows keep their
    order.  Rows are compared only within a run of sums of real parts sorted
    by (label, sum), cut at a label change and where a gap is wider than two
    equal rows allow.  All runs take their k-th row at once.
    """
    n = len(amps)
    if n > 1:
        key = moms.real.sum(axis=1)  # not p_0: p ⊞ q and q ⊞ p share it on kappa-Minkowski
        order = np.lexsort((key, labels))
        key, lab = key[order], labels[order]
        widest = 1.0 + np.fmax.reduce(np.abs(moms), axis=None, initial=0.0)  # NaN-blind
        # dim·MERGE_TOL·widest bounds the gap of equal rows; twice that covers rounding
        linked = (key[1:] - key[:-1] <= 2 * moms.shape[1] * MERGE_TOL * widest) \
            & (lab[1:] == lab[:-1])
        if linked.any():
            target = np.arange(n)
            linked = np.concatenate(([False], linked, [False]))
            # each run of linked gaps [start, end) holds the rows order[start:end + 1]
            start, end = np.flatnonzero(linked[1:] != linked[:-1]).reshape(-1, 2).T
            length = end - start + 1
            head = np.cumsum(length) - length  # where each run begins in `rows`
            rows = order[np.repeat(start - head, length) + np.arange(head[-1] + length[-1])]
            rows = rows[np.lexsort((rows, np.repeat(np.arange(len(length)), length)))]
            kept = np.zeros(len(rows), bool)
            kept[head] = True
            for k in range(1, length.max()):
                live = head[length > k]
                earlier = live[:, None] + np.arange(k)
                q = moms[rows[live + k]]
                near = np.abs(moms[rows[earlier]] - q[:, None]).max(axis=-1, initial=0.0) \
                    <= MERGE_TOL * (1.0 + np.abs(q).max(axis=-1, initial=0.0))[:, None]
                hit = near & kept[earlier]
                found = hit.any(axis=1)
                target[rows[live[found] + k]] = rows[earlier[found, hit[found].argmax(axis=1)]]
                kept[live[~found] + k] = True
            first = target == np.arange(n)
            summed = amps[first]  # representatives first, then the rest in order
            np.add.at(summed, np.cumsum(first)[target[~first]] - 1, amps[~first])
            moms, amps, labels = moms[first], summed, labels[first]
    return _nonzero(moms, amps, labels)


def _abs_max(X):
    """max |X| over the short last axis, column by column; a NaN propagates, as in .max."""
    return reduce(np.maximum, np.moveaxis(np.abs(X), -1, 0))


def _check_rows(group, moms, amps, labels, count):
    """Rows of a stack: (n, dim) momenta, n amplitudes and n labels in [0, count)."""
    if moms.shape != (len(amps), group.dim) or labels.shape != amps.shape:
        raise ValueError(f"{group.name}: needs (n, {group.dim}) momenta, n amplitudes, n labels")
    if labels.size and not 0 <= labels.min() <= labels.max() < count:
        raise ValueError(f"labels must lie in [0, {count})")


def _by_label(moms, amps, labels):
    """The rows grouped by label, in row order within each label."""
    order = np.argsort(labels, kind="stable")
    return moms[order], amps[order], labels[order]


def _nonzero(moms, amps, labels):
    """The rows whose amplitude is not zero; a NaN amplitude stays visible."""
    keep = ~(np.abs(amps) <= MERGE_TOL)
    return moms[keep], amps[keep], labels[keep]


class WavePacket:
    """A stack of `count` finite maps momentum -> complex amplitude over a fixed group.

    An (n, dim) momentum array, an (n,) amplitude array and an (n,) label
    array: row i is a term of packet labels[i].  The rows are grouped by
    label in increasing order, each packet's terms in first-appearance
    order, and no momentum merges across labels.  A plain packet is the
    one-label stack.
    """

    def __init__(self, group: GroupDescriptor, terms=None):
        terms = list(terms or ())
        moms = np.array([np.asarray(p) for p, _ in terms]) if terms else np.zeros((0, group.dim))
        amps, labels = np.array([a for _, a in terms], dtype=complex), np.zeros(len(terms), np.intp)
        _check_rows(group, moms, amps, labels, 1)
        self.group, self.count = group, 1
        self._moms, self._amps, self._labels = _merge(moms, amps, labels)

    @classmethod
    def _merged(cls, group, moms, amps, labels, count):
        """The stack of rows that no merge would change."""
        out = cls.__new__(cls)
        out.group, out.count = group, count
        out._moms, out._amps, out._labels = moms, amps, labels
        return out

    @classmethod
    def stack(cls, group: GroupDescriptor, moms, amps, labels, count: int) -> "WavePacket":
        """`count` packets from rows: term i is amps[i]·e_{moms[i]} in packet labels[i]."""
        moms, amps = np.asarray(moms), np.asarray(amps, dtype=complex)
        labels = np.asarray(labels, dtype=np.intp)
        _check_rows(group, moms, amps, labels, count)
        return cls._merged(group, *_merge(*_by_label(moms, amps, labels)), count)

    @classmethod
    def zero(cls, group: GroupDescriptor, count: int = 1) -> "WavePacket":
        """`count` zero packets."""
        return cls._merged(group, np.zeros((0, group.dim)), np.zeros(0, complex),
                           np.zeros(0, np.intp), count)

    def _like(self, moms, amps, labels):
        """The stack of these rows, grouped by label, merged."""
        return WavePacket._merged(self.group, *_merge(moms, amps, labels), self.count)

    def _reweighted(self, amps):
        """These momenta with new amplitudes.  No two rows of a label are within
        the merge tolerance of each other, so only zero amplitudes drop."""
        return WavePacket._merged(self.group, *_nonzero(self._moms, amps, self._labels), self.count)

    @property
    def terms(self):
        """(momentum, amplitude) of every row, label by label as stored."""
        return list(zip(self._moms, self._amps.tolist()))

    def __len__(self):
        return len(self._amps)

    def split(self, k: int) -> list:
        """k stacks of count/k packets: packet l of the i-th is packet i·count/k + l of this one."""
        size, rest = divmod(self.count, k)
        if rest:
            raise ValueError(f"{self.count} packets do not split into {k} stacks")
        # the rows are grouped by label, so each stack is a slice
        cut = np.searchsorted(self._labels, np.arange(k + 1) * size).tolist()
        return [WavePacket._merged(self.group, self._moms[a:b], self._amps[a:b],
                                   self._labels[a:b] - i * size, size)
                for i, (a, b) in enumerate(zip(cut, cut[1:]))]

    def __add__(self, other):
        _check_same(self, other)
        return self._like(*_by_label(np.concatenate((self._moms, other._moms)),
                                     np.concatenate((self._amps, other._amps)),
                                     np.concatenate((self._labels, other._labels))))

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, z):
        return self._reweighted(z * self._amps)

    def norm(self):
        """l1 amplitude norm per label (zero iff the packet is zero), summed in row order.

        |a| is hypot(Re a, Im a), as Python's abs of a complex; numpy's complex
        abs can differ from it in the last bit.
        """
        moduli = np.hypot(self._amps.real, self._amps.imag)
        return _unstack(np.bincount(self._labels, weights=moduli, minlength=self.count))

    def __repr__(self):
        inner = " + ".join(f"({a:.3g})e_{np.round(np.real(p), 6)}" for p, a in self.terms)
        return f"WavePacket[{self.group.name}: {inner or '0'}]"


def plane_wave(group: GroupDescriptor, p, amp=1.0) -> WavePacket:
    """amp·e_p.  An (m, dim) array of momenta, with one amplitude or m, gives the
    stack of m plane waves, one per label."""
    P = np.atleast_2d(np.asarray(p))
    return WavePacket.stack(group, P, np.broadcast_to(amp, len(P)), np.arange(len(P)), len(P))


def concat(packets) -> WavePacket:
    """Stacks side by side: packet l of the i-th is packet l + (the count of those before it)."""
    for p in packets[1:]:
        _check_group(packets[0], p)
    offsets = np.cumsum([0] + [p.count for p in packets])
    return WavePacket._merged(packets[0].group, np.concatenate([p._moms for p in packets]),
                              np.concatenate([p._amps for p in packets]),
                              np.concatenate([p._labels + o for p, o in zip(packets, offsets)]),
                              int(offsets[-1]))


def _pairs(f: WavePacket, g: WavePacket):
    """The row pairs of f and g that share a label, f-major within each label.

    Returns both momenta, the amplitude products and the labels of the pairs.
    """
    _check_same(f, g)
    per = np.bincount(g._labels, minlength=f.count)
    reps = per[f._labels]  # the pairs of each f row
    ends = reps.cumsum()
    # the k-th pair of an f row takes the k-th row of g's block of its label
    j = ((per.cumsum() - per)[f._labels] - ends + reps).repeat(reps) + np.arange(reps.sum())
    return (f._moms.repeat(reps, axis=0), g._moms.take(j, axis=0),
            f._amps.repeat(reps) * g._amps.take(j), f._labels.repeat(reps))


def star(f: WavePacket, g: WavePacket) -> WavePacket:
    """e_p * e_q = e_{p [+] q}, extended bilinearly, packet by packet."""
    P, Q, amps, labels = _pairs(f, g)
    # all pairs composed in one call of the law
    return f._like(f.group.add(P, Q), amps, labels)


def dagger(f: WavePacket) -> WavePacket:
    """Antilinear involution: (a e_p)^† = conj(a) e_{(-)p}."""
    return f._like(f.group.inv(f._moms), np.conj(f._amps), f._labels)


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
    return f._reweighted(eig * f._amps)


# ---------------------------------------------------------------------------
# delta calculus

class DeltaSum:
    """A stack of `count` formal sums  sum_i a_i delta(w_i)  over ⊞-words in concrete momenta.

    Terms are stored in normal form: zero atoms removed, off-support words
    (word value != 0) dropped as zero distributions, each surviving word
    rotated to its lexicographically smallest cyclic form with the modular
    cyclicity factor applied, and equal words of one label merged; the words
    of length L are one (m, L·dim) array with an (m,) amplitude and label
    array.  The formal volume (2 pi)^{d+1} delta(0) is the empty word, never
    a float.
    """

    @classmethod
    def _of(cls, group, W, amps, labels, count):
        """The sums of the (m, L, dim) words W, word i with amplitude amps[i] in sum labels[i]."""
        out = cls.__new__(cls)
        out.group, out.count = group, count
        out._words = out._normal_form(W, amps, labels)
        return out

    def _normal_form(self, W, amps, labels):
        """{L: (words, amplitudes, labels)} for the (m, L, dim) words W."""
        dim, words = self.group.dim, {}
        nonzero = ~(_abs_max(W) <= MERGE_TOL)  # zero atoms drop out of their word
        length = nonzero.sum(axis=1)
        for L in np.flatnonzero(np.bincount(length)).tolist():
            rows = length == L
            V = W[rows]
            if L < W.shape[1]:  # drop the zero atoms; a full-length word has none
                V = V[nonzero[rows]].reshape(len(V), L, dim)
            a, lab = amps[rows], labels[rows]
            if L:
                value = reduce(self.group.add, V.swapaxes(0, 1))
                on = ~(_abs_max(value) > SUPPORT_TOL)  # a NaN value stays in the sum
                V, a, lab = V[on], a[on], lab[on]
            if L > 1:
                V, a = self._canonical_rotation(V, a)
            words[L] = _merge(V.reshape(len(a), L * dim), a, lab)
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
        """(amplitude, atoms) of every word, all labels."""
        return [(a, tuple(w.reshape(L, self.group.dim)))
                for L, (flat, amps, _) in self._words.items() for w, a in zip(flat, amps.tolist())]

    def __len__(self):
        return sum(len(amps) for _, amps, _ in self._words.values())

    def _all_within(self, parts, tol):
        """Per label: whether each amplitude of the (words, amplitudes, labels) is within
        tol, a scalar or one value per label."""
        tol = np.broadcast_to(tol, self.count)
        ok = np.ones(self.count, bool)
        for _, amps, labels in parts:
            ok[labels[~(np.abs(amps) <= tol[labels])]] = False
        return _unstack(ok)

    def is_zero(self):
        """Per label: whether every amplitude is within MERGE_TOL of zero."""
        return self._all_within(self._words.values(), MERGE_TOL)

    def equals(self, other: "DeltaSum"):
        """Per label: whether self - other merges to amplitudes all within EQUAL_TOL (1 + s).

        s is the largest |amplitude| of either sum's words in that label, so the
        test is relative for large amplitudes.  A NaN or inf amplitude fails its label.
        """
        _check_same(self, other)
        diffs, scale = [], np.zeros(self.count)
        for L in self._words.keys() | other._words.keys():
            empty = (np.zeros((0, L * self.group.dim)), np.zeros(0, complex), np.zeros(0, np.intp))
            (A, a, la), (B, b, lb) = self._words.get(L, empty), other._words.get(L, empty)
            amps, labels = np.concatenate((a, -b)), np.concatenate((la, lb))
            np.fmax.at(scale, labels, np.abs(amps))
            diffs.append(_merge(np.concatenate((A, B)), amps, labels))
        # an inf scale gives a NaN tolerance, which no difference is within
        return self._all_within(diffs, EQUAL_TOL * (1.0 + np.where(np.isinf(scale), np.nan, scale)))

    def __repr__(self):
        bits = [f"({amp:.4g})·δ({' [+] '.join(str(np.round(np.real(a), 4)) for a in atoms) or 0})"
                for amp, atoms in self.terms]
        return f"DeltaSum[{' + '.join(bits) or 0}]"


def integral_star(f: WavePacket, g: WavePacket) -> DeltaSum:
    """∫ f*g = sum a_p b_q delta(p ⊞ q), kept as two-atom words, packet by packet."""
    P, Q, amps, labels = _pairs(f, g)
    return DeltaSum._of(f.group, np.stack((P, Q), axis=1), amps, labels, f.count)


def twisted_trace_check(f: WavePacket, g: WavePacket):
    """∫ f*g == ∫ (E^d g)*f as DeltaSums, per label (kappa-Minkowski twisted trace).

    For unimodular groups (Moyal, rho-Minkowski) the twist is trivial and
    this reduces to plain cyclicity of the integral.
    """
    if f.group.name.startswith("kappa_minkowski"):
        twisted = act("E", g, power=f.group.meta["d"])
    else:
        twisted = g  # unimodular: plain cyclicity
    return integral_star(f, g).equals(integral_star(twisted, f))
