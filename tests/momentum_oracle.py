"""Row-major reference for the su2, Moyal and rho closed forms (tests only).

The laws of `qstkit.momentum` as first written: each works on whole
`(..., dim)` rows, with `np.linalg.norm(..., keepdims=True)`, `np.cross`,
`(..., 1)` broadcasts, a `@ Theta` matmul and `np.concatenate`.  The
library now builds the same closed forms on the coordinate columns
`p[..., i]`; the tests compare the two within 64 eps (1 + |x|).  The
Lie bracket of the BCH series as first written, one three-operand einsum,
is here too.

The hand-written derivatives of the kappa (right ordering), rho, Moyal and
commutative laws live here as well: the Jacobian determinants of the left
and right translations and the mixed Hessian at the origin.  The library
differentiates the laws numerically; the tests check these closed forms
against that, and the stored structure constants against these exactly.

So does kappa-Minkowski in the sum (symmetric) ordering, with the
intertwiner phi(p) = (p0, g(p0/kappa) p_s) from the right ordering: pushed
through phi, the right-ordered law must match the BCH series, which
composes in the sum ordering.
"""

import dataclasses

import numpy as np

from qstkit.momentum import MOYAL_PHASE_CONVENTIONS, _minus, _one, _series, _sinc2, group_preset


def su2_laws(lam):
    """(add, haar weight) of su2_lambda."""

    def quaternion(p):
        """Scalar and vector part of the unit quaternion exp(i lam p.sigma / 2)."""
        norm = np.linalg.norm(p, axis=-1, keepdims=True)
        return np.cos(lam * norm / 2), (np.sin(lam * norm / 2) / np.where(norm > 0, norm, 1.0)) * p

    def sadd(p, q):
        a0, av = quaternion(np.asarray(p))
        b0, bv = quaternion(np.asarray(q))
        r0 = a0 * b0 - np.sum(av * bv, axis=-1, keepdims=True)
        rv = a0 * bv + b0 * av - np.cross(av, bv)
        nr = np.linalg.norm(rv, axis=-1, keepdims=True)
        angle = np.arctan2(nr, r0)  # in [0, pi]
        live = nr >= 1e-300
        return np.where(live, (2 * angle / lam) * rv / np.where(live, nr, 1.0), 0.0)

    def w(p):
        return _sinc2(lam * np.linalg.norm(p, axis=-1) / 2)

    return sadd, w


def g_right_to_sum(x):
    """g(x) = x / (1 - e^{-x}) with the removable singularity at 0."""
    # Taylor to order 4 (the x^3 coefficient vanishes)
    return _series(x, lambda x: 1.0 + x / 2 + x * x / 12 - x ** 4 / 720,
                   lambda x: x / (1.0 - np.exp(-x)))


def _h_exp(x):
    """(e^x - 1)/x, series-protected."""
    return _series(x, lambda x: 1.0 + x / 2 + x * x / 6 + x ** 3 / 24 + x ** 4 / 120,
                   lambda x: np.expm1(x) / x)


def _h_mexp(x):
    """(1 - e^{-x})/x, series-protected."""
    return _series(x, lambda x: 1.0 - x / 2 + x * x / 6 - x ** 3 / 24 + x ** 4 / 120,
                   lambda x: -np.expm1(-x) / x)


def kappa_sum_group(kappa, d):
    """kappa-Minkowski in the sum ordering: the right-ordered group's structure
    and modular function, with the sum-ordered law and Haar weights."""
    right = group_preset("kappa_minkowski", kappa=kappa, d=d)

    def sadd(p, q):
        p, q = np.asarray(p), np.asarray(q)
        p0, q0 = p[..., :1], q[..., :1]
        pref = np.exp(-p0 / kappa) * g_right_to_sum((p0 + q0) / kappa)
        return pref * (_h_exp(p0 / kappa) * p + _h_mexp(q0 / kappa) * q)

    def wl(p):
        # |(1 - e^{p0/kappa})/p0|^d; the printed expression is negative for
        # p0 > 0, the absolute value is taken.
        return np.abs(_h_exp(np.asarray(p)[..., 0] / kappa) / kappa) ** d

    def wr(p):
        return wl(p) / right.modular(p)

    return dataclasses.replace(right, name="kappa_minkowski_sum", add=sadd, inv=_minus,
                               haar_left=wl, haar_right=wr)


def ordering_transform(p, kappa, direction):
    """phi(p) = (p0, g(p0/kappa) p_j) intertwines the right and sum laws."""
    p = np.asarray(p, float)
    out = np.array(p)
    gv = g_right_to_sum(p[..., :1] / kappa)
    if direction == "right_to_sum":
        out[..., 1:] = gv * p[..., 1:]
    elif direction == "sum_to_right":
        out[..., 1:] = p[..., 1:] / gv
    else:
        raise ValueError("direction must be 'right_to_sum' or 'sum_to_right'")
    return out


def moyal_add(Theta, phase_convention="weyl"):
    """The add law of moyal_extended for the spatial matrix Theta."""
    c = MOYAL_PHASE_CONVENTIONS[phase_convention]
    ns = Theta.shape[0]

    def madd(p, q):
        # plain sum, with the phase slot shifted by c p.Theta.q (real parts of the
        # spatial momenta); the dtype follows p, q and c, so complex phases stay
        p, q = np.asarray(p), np.asarray(q)
        phase = np.sum((np.real(p[..., :ns]) @ Theta) * np.real(q[..., :ns]), axis=-1)
        return np.concatenate((p[..., :ns] + q[..., :ns],
                               (p[..., ns] + q[..., ns] + c * phase)[..., None]), axis=-1)

    return madd


def rho_laws(rho):
    """(add, inv) of rho_minkowski."""

    def radd(p, q):
        # (q1, q2) rotated by the angle rho p0
        p, q = np.asarray(p), np.asarray(q)
        c, s = np.cos(rho * p[..., :1]), np.sin(rho * p[..., :1])
        q1, q2 = q[..., 1:2], q[..., 2:3]
        return p + np.concatenate((q[..., :1], c * q1 - s * q2, s * q1 + c * q2, q[..., 3:]),
                                  axis=-1)

    def rinv(p):
        # (p1, p2) rotated by the angle -rho p0
        p = np.asarray(p)
        c, s = np.cos(rho * p[..., :1]), np.sin(rho * p[..., :1])
        p1, p2 = p[..., 1:2], p[..., 2:3]
        return -np.concatenate((p[..., :1], c * p1 + s * p2, c * p2 - s * p1, p[..., 3:]),
                               axis=-1)

    return radd, rinv


def bracket(C, u, v):
    """[u, v]_r = sum_mn u_m v_n C^{mn}_r over every (m, n, r), zero or not."""
    return np.einsum("...m,...n,mnr->...r", u, v, np.asarray(C, dtype=complex))


# closed-form derivatives ---------------------------------------------------

HAND_DERIVED = ("kappa_minkowski", "rho_minkowski", "moyal_extended", "commutative")


def jacobians(g):
    """(jac_left(q, p), jac_right(p, q)) of g: |det d(q [+] p)/dp| and |det d(p [+] q)/dp|.

    kappa (right ordering): q [+] p = q + (p0, e^{-q0/kappa} p_s), so the left
    determinant is e^{-d q0/kappa}; p [+] q is triangular in p with unit
    diagonal.  The rho, Moyal and commutative translations are triangular with
    unit diagonal on both sides.
    """
    if g.name == "kappa_minkowski":
        kappa, d = g.meta["kappa"], g.meta["d"]
        return (lambda q, p: np.exp(-d * np.asarray(q)[..., 0] / kappa)), _one
    if g.name in HAND_DERIVED:
        return _one, _one
    raise ValueError(f"no closed-form Jacobians for {g.name}")


def exact_hessian(g):
    """H[mu, nu, rho] = d^2 (p [+] q)_rho / dp_mu dq_nu at p = q = 0."""
    n = g.dim
    H = np.zeros((n, n, n), dtype=complex)
    if g.name == "kappa_minkowski":
        for j in range(1, n):
            H[0, j, j] = -1.0 / g.meta["kappa"]
    elif g.name == "rho_minkowski":
        # d^2 (p+q)_1,2 / dp0 dq_j of R(rho p0) q at 0
        H[0, 1, 2] = g.meta["rho"]
        H[0, 2, 1] = -g.meta["rho"]
    elif g.name == "moyal_extended":
        c = MOYAL_PHASE_CONVENTIONS[g.meta["phase_convention"]]
        H[:n - 1, :n - 1, n - 1] = c * g.meta["Theta"]
    elif g.name != "commutative":
        raise ValueError(f"no closed-form Hessian for {g.name}")
    return H


def structure_from_hessian(H):
    """C = -i (H - H^T in (mu, nu)), the tensor a law with mixed Hessian H regenerates."""
    return -1j * (H - H.transpose(1, 0, 2))
