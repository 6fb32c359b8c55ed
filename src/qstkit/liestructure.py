"""Lie-algebra-type noncommutativity data: structure constants and presets.

A quantum space-time of Lie-algebra type is fixed by a tensor C^{mu nu}_rho
with [x^mu, x^nu] = C^{mu nu}_rho x^rho, which carries the deformation
scale.  Four presets are shipped: kappa-Minkowski in d spatial dimensions,
the extended Moyal space (with the unit phase slot appended so the algebra
closes linearly), rho-Minkowski, and the su(2) fuzzy space.  A preset's
`meta` keeps its parameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

JACOBI_TOL = 1e-12
HESSIAN_STEP = 1e-4  # finite-difference step of recover_from_group_law

PRESET_NAMES = ("kappa_minkowski", "moyal_extended", "rho_minkowski", "su2_lambda")

# Moyal fifth-slot conventions: increment of p5 under composition, as a
# multiple c of p.Theta.q.  The preset stores the tensor its law regenerates,
# C[:ns, :ns, ns] = -2i c Theta: i Theta for "weyl" (whose phase matches the
# integral star product), -2i Theta for "real" and 2 Theta for "imaginary".
MOYAL_PHASE_CONVENTIONS = {"weyl": -0.5, "real": 1.0, "imaginary": 1j}


class PresetError(ValueError):
    """Unknown preset name or inadmissible parameters/dimension."""


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


def preset(name: str, *, kappa=None, theta=None, rho=None, lam=None, d=None,
           dim=None, phase_convention="weyl") -> StructureConstants:
    """Return the structure constants of one of the four shipped space-times.

    kappa_minkowski: [x^0,x^j] = (i/kappa) x^j for j = 1..d (any d >= 1).
    moyal_extended:  [x^mu,x^nu] = -2i c Theta^{mu nu} x^5 with the unit slot
                     appended (dim = even spatial + 1, default 5); c is the
                     phase convention's increment, so i Theta for "weyl".
    rho_minkowski:   dim 4, rotation-type bracket in the (x1,x2) plane.
    su2_lambda:      [x^j,x^k] = i lam eps^{jk}_l x^l, dim 3.
    """
    if name == "kappa_minkowski":
        if kappa is None or kappa <= 0:
            raise PresetError("kappa must be positive")
        d = 1 if d is None else int(d)
        if dim is not None and dim != d + 1:
            raise PresetError(f"kappa_minkowski with d={d} has dim {d+1}")
        if d < 1:
            raise PresetError("kappa_minkowski needs d >= 1")
        n = d + 1
        C = np.zeros((n, n, n), dtype=complex)
        for j in range(1, n):
            C[0, j, j] = 1j / kappa
            C[j, 0, j] = -1j / kappa
        return StructureConstants(name, n, C, meta={"d": d, "kappa": float(kappa)})

    if name == "moyal_extended":
        if theta is None or theta == 0:
            raise PresetError("theta must be nonzero")
        n = 5 if dim is None else int(dim)
        if n < 3 or n % 2 == 0:
            raise PresetError("moyal_extended needs an even spatial dim plus the phase slot")
        if phase_convention not in MOYAL_PHASE_CONVENTIONS:
            raise PresetError(f"unknown phase convention {phase_convention!r}")
        ns = n - 1
        Theta = np.zeros((ns, ns))
        for b in range(ns // 2):
            Theta[2 * b, 2 * b + 1] = theta
            Theta[2 * b + 1, 2 * b] = -theta
        C = np.zeros((n, n, n), dtype=complex)
        C[:ns, :ns, ns] = -2j * MOYAL_PHASE_CONVENTIONS[phase_convention] * Theta
        return StructureConstants(name, n, C, meta={"theta": float(theta), "Theta": Theta,
                                                     "phase_convention": phase_convention})

    if name == "rho_minkowski":
        if rho is None or rho == 0:
            raise PresetError("rho must be nonzero")
        if dim is not None and dim != 4:
            raise PresetError("rho_minkowski is four-dimensional")
        C = np.zeros((4, 4, 4), dtype=complex)
        # Signs tied to the group law vec(p) + R(+rho p0) vec(q); the
        # coordinate bracket with the opposite sign corresponds to R(-rho p0).
        C[0, 1, 2] = -1j * rho
        C[1, 0, 2] = 1j * rho
        C[0, 2, 1] = 1j * rho
        C[2, 0, 1] = -1j * rho
        return StructureConstants(name, 4, C, meta={"rho": float(rho)})

    if name == "su2_lambda":
        if lam is None or lam == 0:
            raise PresetError("lambda must be nonzero")
        if dim is not None and dim != 3:
            raise PresetError("su2_lambda is three-dimensional")
        eps = np.zeros((3, 3, 3))
        for (j, k, l), s in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                             ((1, 0, 2), -1), ((2, 1, 0), -1), ((0, 2, 1), -1)):
            eps[j, k, l] = s
        C = 1j * lam * eps
        return StructureConstants(name, 3, C, meta={"lam": float(lam)})

    raise PresetError(f"unknown preset {name!r}; choose one of {PRESET_NAMES}")


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
