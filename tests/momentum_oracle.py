"""Row-major reference for the su2, Moyal and rho closed forms (tests only).

The laws of `qstkit.momentum` as first written: each works on whole
`(..., dim)` rows, with `np.linalg.norm(..., keepdims=True)`, `np.cross`,
`(..., 1)` broadcasts, a `@ Theta` matmul and `np.concatenate`.  The
library now builds the same closed forms on the coordinate columns
`p[..., i]`; the tests compare the two within 64 eps (1 + |x|).  The
Lie bracket of the BCH series as first written, one three-operand einsum,
is here too.
"""

import numpy as np

from qstkit.liestructure import MOYAL_PHASE_CONVENTIONS
from qstkit.momentum import _sinc2


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
