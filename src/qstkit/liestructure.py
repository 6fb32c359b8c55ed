"""Lie-algebra-type noncommutativity data: the structure-constant tensor.

A quantum space-time of Lie-algebra type is fixed by a tensor C^{mu nu}_rho
with [x^mu, x^nu] = C^{mu nu}_rho x^rho, which carries the deformation
scale.  This module holds the tensor type with its JSON reader, the Jacobi
check, and the recovery of C from a group law's mixed Hessian.  The shipped
space-times build their tensors next to their group laws, in `momentum`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

JACOBI_TOL = 1e-12
HESSIAN_STEP = 1e-4  # finite-difference step of recover_from_group_law


@dataclass(frozen=True)
class StructureConstants:
    """The tensor C^{mu nu}_rho of a Lie-algebra-type space-time."""

    name: str
    dim: int
    C: np.ndarray  # complex, shape (dim, dim, dim), indexed [mu, nu, rho]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        C = np.asarray(self.C, dtype=complex)
        if C.shape != (self.dim,) * 3:
            raise ValueError(f"C must have shape {(self.dim,)*3}, got {C.shape}")
        object.__setattr__(self, "C", C)

    def antisymmetry_violation(self) -> float:
        return float(np.max(np.abs(self.C + self.C.transpose(1, 0, 2))))

    @staticmethod
    def from_json(text: str) -> "StructureConstants":
        data = json.loads(text)
        dim = int(data["dim"])
        C = np.zeros((dim, dim, dim), dtype=complex)
        for e in data["entries"]:
            C[e["mu"], e["nu"], e["rho"]] = e["re"] + 1j * e["im"]
        return StructureConstants(name=data["name"], dim=dim, C=C)


def jacobi_check(sc: StructureConstants) -> dict:
    """Max |Jacobi sum| over all index tuples; passes iff <= 1e-12."""
    C = sc.C
    J = (
        np.einsum("mns,srt->mnrt", C, C)
        + np.einsum("nrs,smt->mnrt", C, C)
        + np.einsum("rms,snt->mnrt", C, C)
    )
    v = float(np.max(np.abs(J)))
    return {"max_violation": v, "passed": v <= JACOBI_TOL}


# signs of (p_mu, q_nu) at the four points of the mixed central difference
_STENCIL = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)


def _hessian_fd(add, dim, h):
    """d^2 (p [+] q)_rho/dp_mu dq_nu at p = q = 0, shape (dim, dim, dim), central differences.

    The law gets all 4 dim^2 stencil points in one call, as two arrays of
    shape (dim, dim, 4, dim): [mu, nu, k] is (s_k h e_mu, t_k h e_nu) for
    the k-th sign pair (s_k, t_k) of _STENCIL.
    """
    eye = h * np.eye(dim)
    P = _STENCIL[:, 0, None] * eye[:, None, None, :]   # (dim, 1, 4, dim)
    Q = _STENCIL[:, 1, None] * eye[None, :, None, :]   # (1, dim, 4, dim)
    P, Q = np.broadcast_arrays(P, Q)
    f = np.asarray(add(P, Q))
    return (f[..., 0, :] - f[..., 1, :] - f[..., 2, :] + f[..., 3, :]) / (4 * h * h)


def recover_from_group_law(g) -> StructureConstants:
    """Structure constants from a deformed addition law.

    C^{mu nu}_rho = -i (H^{mu nu}_rho - H^{nu mu}_rho) with H the mixed
    Hessian of the group law at the origin, from central finite differences
    of g.add at step h = HESSIAN_STEP, with one Richardson step (h and h/2)
    for O(h^4) accuracy.  ArithmeticError names the first (mu, nu) whose two
    estimates differ by more than 1e-2 (1 + max |H(h/2)|).
    """
    dim = g.dim
    d1 = _hessian_fd(g.add, dim, HESSIAN_STEP)
    d2 = _hessian_fd(g.add, dim, HESSIAN_STEP / 2)
    gap = np.max(np.abs(d2 - d1), axis=-1)
    unstable = np.argwhere(gap > 1e-2 * (1 + np.max(np.abs(d2), axis=-1)))
    if len(unstable):
        mu, nu = unstable[0]
        raise ArithmeticError(
            f"Hessian estimate unstable at (mu,nu)=({mu},{nu}): "
            f"h and h/2 values differ by {gap[mu, nu]:.3e}"
        )
    H = (4 * d2 - d1) / 3
    C = -1j * (H - H.transpose(1, 0, 2))
    return StructureConstants(name=f"{g.name}:recovered", dim=dim, C=C)
