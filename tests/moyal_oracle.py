"""Dense reference for the Moyal matrix-basis checks (tests only).

`partition_check` and `identity_checks` as first written: every basis
element is an explicit N x N matrix, the star product is `@`, the dagger is
`.conj().T` and the trace pairing sums over all N^2 entries.  They draw the
same random numbers in the same order as `qstkit.moyal_matrix`, so the two
must return equal dicts.  They cost O(N^3) time and O(N^2) memory per basis
element, so the tests use them for N <= MAX_N only.  `from_matrix` and
`dense` convert between a coefficient matrix and the module's supports, and
`basis_element` is the one-term support f_mn.
"""

import math

import numpy as np

from qstkit.moyal_matrix import TruncatedElement

MAX_N = 256


def _small(N):
    if N > MAX_N:
        raise ValueError(f"the dense oracle is for N <= {MAX_N}")


def from_matrix(c, theta):
    """The element sum_mn c_mn f_mn of a square coefficient matrix: its nonzero entries."""
    c = np.asarray(c, dtype=complex)
    rows, cols = np.nonzero(c)
    return TruncatedElement(rows, cols, c[rows, cols], theta, c.shape[0])


def basis_element(m, n, theta, N):
    """The basis element f_mn; an index outside the truncation raises TruncationError."""
    return TruncatedElement([m], [n], [1.0], theta, N)


def dense(e):
    """The N x N coefficient matrix of an element."""
    c = np.zeros((e.N, e.N), dtype=complex)
    c[e.rows, e.cols] = e.vals
    return c


def basis_matrix(m, n, N):
    c = np.zeros((N, N), dtype=complex)
    c[m, n] = 1.0
    return c


def _integer_matrix(rng, N):
    """N terms at random (row, col) with values re + i im, re, im in -3..3; repeats summed."""
    rows, cols = rng.integers(0, N, size=(2, N))
    re, im = rng.integers(-3, 4, size=(2, N))
    c = np.zeros((N, N), dtype=complex)
    np.add.at(c, (rows, cols), re + 1j * im)
    return c


def trace_pairing(a, b, theta):
    return 2 * math.pi * theta * complex(np.sum(np.conj(a) * b))


def partition_check(N, theta=1.0, n_samples=4, seed=0):
    _small(N)
    rng = np.random.default_rng(seed)
    pos_err = 0.0
    for m in range(N):
        fm0 = basis_matrix(m, 0, N)
        witness = fm0 @ fm0.conj().T
        pos_err = max(pos_err, float(np.max(np.abs(witness - basis_matrix(m, m, N)))))

    unit_sum = np.eye(N, dtype=complex)
    unity_err = 0.0
    for _ in range(n_samples):
        g = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        unity_err = max(unity_err, float(np.max(np.abs(unit_sum @ g - g))),
                        float(np.max(np.abs(g @ unit_sum - g))))

    comm_err = 0.0
    for m in range(min(N, 6)):
        for n in range(min(N, 6)):
            a, b = basis_matrix(m, m, N), basis_matrix(n, n, N)
            comm_err = max(comm_err, float(np.max(np.abs(a @ b - b @ a))))

    return {
        "N": N,
        "positivity_witness_error": pos_err,
        "unity_reconstruction_error": unity_err,
        "diagonal_commutation_error": comm_err,
        "passed": pos_err == 0.0 and unity_err == 0.0 and comm_err == 0.0,
    }


def identity_checks(N, theta=1.0, seed=1):
    _small(N)
    rng = np.random.default_rng(seed)
    errs = {}
    e = 0.0
    for _ in range(50):
        m, n, k, l = (int(x) for x in rng.integers(0, N, size=4))
        prod = basis_matrix(m, n, N) @ basis_matrix(k, l, N)
        expect = np.zeros((N, N), dtype=complex)
        if n == k:
            expect[m, l] = 1.0
        e = max(e, float(np.max(np.abs(prod - expect))))
    errs["delta_rule"] = e
    e = 0.0
    for _ in range(20):
        m, n = (int(x) for x in rng.integers(0, N, size=2))
        e = max(e, float(np.max(np.abs(basis_matrix(m, n, N).conj().T - basis_matrix(n, m, N)))))
    errs["involution"] = e
    e = 0.0
    for _ in range(30):
        m, n, k, l = (int(x) for x in rng.integers(0, N, size=4))
        val = trace_pairing(basis_matrix(m, n, N), basis_matrix(k, l, N), theta)
        expect = 2 * math.pi * theta if (m == k and n == l) else 0.0
        e = max(e, abs(val - expect))
    errs["orthonormality"] = e
    # the module's Gaussian-integer supports as matrices: every product is exact
    e = 0.0
    for _ in range(10):
        a, b, c = (_integer_matrix(rng, N) for _ in range(3))
        e = max(e, float(np.max(np.abs((a @ b) @ c - a @ (b @ c)))))
    errs["associativity"] = e
    return errs
