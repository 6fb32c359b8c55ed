"""Moyal matrix basis at finite truncation.

In the matrix basis {f_mn} the star product is literally matrix
multiplication: f_mn * f_kl = delta_nk f_ml, f_mn^dagger = f_nm, and the
trace pairing <a, b> = integral of a^dagger * b equals 2 pi theta times the
Frobenius pairing.  At truncation N an element is an N x N complex matrix;
out-of-truncation indices are rejected, never projected, so the algebra
stays exactly associative.  The diagonal family {f_mm} realizes the
noncommutative partition of unity on this algebra.

Every element is held as its support, (rows, cols, vals) arrays, in
strictly increasing key order rows·N + cols.  The product of two supports
joins the first one's columns with the second one's row ranges, so checks
on basis elements cost O(support), not O(N^3), and no product goes
through BLAS.  Two supports are compared and paired by matching their
sorted keys, with no re-sort.
"""

from __future__ import annotations

import math

import numpy as np

# random g, every entry nonzero, on which partition_check tests the unity sum_m f_mm * g = g
UNITY_SAMPLES = 4
# the positivity witnesses f_{m,k(m)} share k(m) = WITNESS_BLOCK floor(m / WITNESS_BLOCK),
# so their one product holds N * WITNESS_BLOCK terms at most
WITNESS_BLOCK = 32


class TruncationError(IndexError):
    pass


class TruncatedElement:
    """An algebra element at truncation N, with theta.

    It is sum_i vals[i] f_{rows[i] cols[i]} with each (row, col) pair once,
    in strictly increasing key order rows·N + cols, and no zero value.
    Built from any support: the pairs are sorted, repeated pairs summed and
    zeros dropped; an index outside the truncation or a value that is not
    finite is rejected.  Every operation keeps the key order.
    """

    __slots__ = ("theta", "N", "rows", "cols", "vals")

    def __init__(self, rows, cols, vals, theta, N):
        rows, cols = (np.asarray(x, dtype=np.intp).reshape(-1) for x in (rows, cols))
        vals = np.asarray(vals, dtype=complex).reshape(-1)
        if not len(rows) == len(cols) == len(vals):
            raise ValueError("rows, cols and vals differ in length")
        if np.any((rows < 0) | (rows >= N) | (cols < 0) | (cols >= N)):
            raise TruncationError(f"support outside truncation N={N}")
        self._fill(theta, N, *_summed(rows, cols, vals, N))

    def _fill(self, theta, N, rows, cols, vals):
        if not np.all(np.isfinite(vals)):
            raise ValueError("coefficients must be finite")
        self.theta, self.N = theta, N
        self.rows, self.cols, self.vals = rows, cols, vals
        return self


def _support(theta, N, rows, cols, vals):
    return object.__new__(TruncatedElement)._fill(theta, N, rows, cols, vals)


def _summed(rows, cols, vals, N):
    """The support (rows, cols, vals) in key order, repeated pairs summed and zeros dropped."""
    keys = rows * N + cols
    if np.any(keys[1:] <= keys[:-1]):
        # a stable sort keeps each pair's terms in their given order, and they sum in it
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.concatenate(([True], keys[1:] != keys[:-1]))
        group = np.cumsum(first) - 1
        summed = np.empty(group[-1] + 1, dtype=complex)
        summed.real = np.bincount(group, vals.real[order])
        summed.imag = np.bincount(group, vals.imag[order])
        rows, cols, vals = rows[order][first], cols[order][first], summed
    keep = vals != 0
    return rows[keep], cols[keep], vals[keep]


def _matched(a: TruncatedElement, b: TruncatedElement):
    """(ia, ib): the positions in a and in b of their common keys, in key order."""
    ka, kb = a.rows * a.N + a.cols, b.rows * b.N + b.cols
    ib = np.searchsorted(kb, ka)
    hit = ib < len(kb)
    hit[hit] = kb[ib[hit]] == ka[hit]
    return np.flatnonzero(hit), ib[hit]


def _max_diff(a: TruncatedElement, b: TruncatedElement) -> float:
    """max |a_mn - b_mn| over the union of the supports."""
    if np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols):
        return float(np.max(np.abs(a.vals - b.vals), initial=0.0))
    ia, ib = _matched(a, b)
    d = np.concatenate((a.vals, -b.vals))  # a's entries, then b's negated
    d[ia] -= b.vals[ib]  # a common key holds a_mn - b_mn in a's slot
    d[len(a.vals) + ib] = 0  # and nothing in b's
    return float(np.max(np.abs(d), initial=0.0))


def star(a: TruncatedElement, b: TruncatedElement) -> TruncatedElement:
    """The matrix product of a and b.

    Every (m, n) of a meets every (n, l) of b, and the terms are summed per (m, l).
    """
    if a.N != b.N:
        raise ValueError(f"truncation mismatch: {a.N} vs {b.N}")
    ptr = np.searchsorted(b.rows, np.arange(b.N + 1))  # b's row n is b[ptr[n]:ptr[n + 1]]
    lo = ptr[a.cols]
    counts = ptr[a.cols + 1] - lo
    ia = np.repeat(np.arange(len(a.vals)), counts)
    ib = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    return _support(a.theta, a.N, *_summed(a.rows[ia], b.cols[ib], a.vals[ia] * b.vals[ib], a.N))


def dagger(a: TruncatedElement) -> TruncatedElement:
    order = np.argsort(a.cols * a.N + a.rows)  # the transpose, back in key order
    return _support(a.theta, a.N, a.cols[order], a.rows[order], a.vals[order].conj())


def trace_pairing(a: TruncatedElement, b: TruncatedElement) -> complex:
    """∫ a^dagger * b = 2 pi theta sum_mn conj(a_mn) b_mn."""
    if a.N != b.N:
        raise ValueError("truncation mismatch")
    ia, ib = _matched(a, b)
    return 2 * math.pi * a.theta * complex(np.sum(np.conj(a.vals[ia]) * b.vals[ib]))


def _weights(n):
    """n distinct nonzero Gaussian integers k + i(n + 1 - k), k = 1..n: complex, so a
    missing conjugation shows, and with positive real parts, so no two cancel."""
    k = np.arange(1, n + 1)
    return k + 1j * (n + 1 - k)


def partition_check(N: int, theta: float = 1.0, seed: int = 0) -> dict:
    """Partition-of-unity axioms for the diagonal family {f_mm} at truncation N.

    positivity : f_mm = f_{m,k(m)} * f_{m,k(m)}^dagger for every m < N, with
                 k(m) = B floor(m / B) and B = WITNESS_BLOCK; for N <= B every
                 witness is f_m0.  One product g * g^dagger of the witness sum
                 g = sum_m f_{m,k(m)} checks them all: f_{m,k} f_{k',m'} =
                 delta_{kk'} f_{mm'}, so it must equal the block-diagonal
                 all-ones element, whose diagonal is the f_mm.  It holds O(N B)
                 terms, and a swapped product reads nonzero (f_0m f_m0 = f_00).
    unity      : sum_m f_mm * g = g on UNITY_SAMPLES random g with N^2 entries
    commutation: chi * chi~ = chi~ * chi for two weighted diagonal sums over m < 6
    Local finiteness is vacuous at finite N.
    """
    rng = np.random.default_rng(seed)
    m = np.arange(N)
    k = m - m % WITNESS_BLOCK
    g = _support(theta, N, m, k, np.ones(N, dtype=complex))
    witness = star(g, dagger(g))
    # row m of the block-diagonal all-ones element holds the columns k(m) .. k(m) + size(m) - 1
    size = np.minimum(k + WITNESS_BLOCK, N) - k
    cols = np.repeat(k - (np.cumsum(size) - size), size) + np.arange(size.sum())
    blocks = _support(theta, N, np.repeat(m, size), cols, np.ones(len(cols), dtype=complex))
    pos_err = _max_diff(witness, blocks)

    unit_sum = _support(theta, N, m, m, np.ones(N, dtype=complex))
    unity_err = 0.0
    for _ in range(UNITY_SAMPLES):
        g = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        rows, cols = np.nonzero(g)  # the full support, row-major: no sort needed
        g = _support(theta, N, rows, cols, g[rows, cols])
        unity_err = max(unity_err, _max_diff(star(unit_sum, g), g), _max_diff(star(g, unit_sum), g))

    d = np.arange(min(N, 6))
    w = _weights(len(d))
    a, b = (_support(theta, N, d, d, x) for x in (w, w[::-1]))
    comm_err = _max_diff(star(a, b), star(b, a))

    return {
        "N": N,
        "positivity_witness_error": pos_err,
        "unity_reconstruction_error": unity_err,
        "diagonal_commutation_error": comm_err,
        "passed": pos_err == 0.0 and unity_err == 0.0 and comm_err == 0.0,
    }


def identity_checks(N: int, theta: float = 1.0, seed: int = 1) -> dict:
    """Product/involution/trace identities of the basis at truncation N.

    Each family of random basis elements is one weighted sum with the
    Gaussian-integer weights of `_weights`, so every product and pairing is
    exact in float64 and a correct kernel reads exactly 0:
    delta rule     : (sum_i a_i f_{m_i n_i}) * (sum_j b_j f_{k_j l_j}) against
                     sum over the pairs (i, j) with n_i = k_j of a_i b_j f_{m_i l_j},
                     on 50 draws (m, n, k, l): all 50 x 50 cross pairs
    involution     : (sum_i a_i f_{m_i n_i})^dagger = sum_i conj(a_i) f_{n_i m_i}, 20 draws
    orthonormality : <sum_i a_i f_{m_i n_i}, sum_j b_j f_{k_j l_j}> against 2 pi theta
                     times the sum of conj(a_i) b_j over (m_i, n_i) = (k_j, l_j),
                     on 30 draws: all 30 x 30 cross pairs; and the first sum
                     paired with itself, whose matched pairs include every i = j,
                     so its conjugation is checked at any N
    associativity  : (a * b) * c = a * (b * c) on 10 random triples of N-term supports
    Each family is drawn in one `integers` call, which yields the numbers of
    one call per draw: the bit generator keeps the unused half of a 64-bit
    output between calls.
    Returns the largest error of each identity; the caller judges them.
    """
    rng = np.random.default_rng(seed)
    errs = {}
    m, n, k, l = rng.integers(0, N, size=(50, 4)).T
    w = _weights(50)
    v = w[::-1]
    i, j = np.nonzero(n[:, None] == k[None, :])
    expect = TruncatedElement(m[i], l[j], w[i] * v[j], theta, N)
    errs["delta_rule"] = _max_diff(star(TruncatedElement(m, n, w, theta, N),
                                        TruncatedElement(k, l, v, theta, N)), expect)
    m, n = rng.integers(0, N, size=(20, 2)).T
    w = _weights(20)
    errs["involution"] = _max_diff(dagger(TruncatedElement(m, n, w, theta, N)),
                                   TruncatedElement(n, m, w.conj(), theta, N))
    m, n, k, l = rng.integers(0, N, size=(30, 4)).T
    w = _weights(30)
    v = w[::-1]
    a, pair_errs = TruncatedElement(m, n, w, theta, N), []
    for rows, cols, vals in ((k, l, v), (m, n, w)):  # the cross pairs, then a with itself
        i, j = np.nonzero((m[:, None] == rows[None, :]) & (n[:, None] == cols[None, :]))
        val = trace_pairing(a, TruncatedElement(rows, cols, vals, theta, N))
        expect = 2 * math.pi * theta * complex(np.sum(w[i].conj() * vals[j]))
        pair_errs.append(abs(val - expect))
    errs["orthonormality"] = float(np.max(pair_errs))  # a NaN error stays NaN
    # associativity on random triples of N-term supports with Gaussian-integer
    # values: every product and sum is exact in float64, so a correct product reads 0
    e = 0.0
    for _ in range(10):
        a, b, c = (_integer_support(rng, theta, N) for _ in range(3))
        e = max(e, _max_diff(star(star(a, b), c), star(a, star(b, c))))
    errs["associativity"] = e
    return errs


def _integer_support(rng, theta, N):
    """N terms at random (row, col), each value re + i im with re, im drawn from -3..3."""
    rows, cols = rng.integers(0, N, size=(2, N))
    re, im = rng.integers(-3, 4, size=(2, N))
    return TruncatedElement(rows, cols, re + 1j * im, theta, N)
