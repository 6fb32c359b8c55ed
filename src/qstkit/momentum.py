"""Closed-form deformed momentum groups.

Each space-time's momenta compose through a non-abelian group law ("⊞")
obtained by exponentiating the coordinate algebra.  This module ships the
closed forms for the four presets plus the commutative group, their Haar
weights, modular functions and Jacobians, the right<->sum ordering
transform for kappa-Minkowski, the non-planar delta solver and a truncated
BCH composition that serves as the independent oracle for the closed
forms and as the generic-group fallback.  `add_batch` and `inv_batch`
apply a group's laws to (n, dim) stacks, in blocks of BLOCK_ROWS rows that
give bit for bit the values and dtype of one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .liestructure import MOYAL_PHASE_CONVENTIONS, StructureConstants, preset

SERIES_CUT = 1e-4  # switch point for removable singularities


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class GroupDescriptor:
    """A momentum group: composition, inverse, Haar weights, modular function.

    Every law acts on arrays of shape (..., dim), so one momentum is a batch
    of one; add, jac_left and jac_right take two arrays of the same shape.
    Scalar-valued laws (weights, modular function, Jacobians) return shape
    (...), a NumPy scalar for one momentum.
    """

    name: str
    dim: int
    structure: Optional[StructureConstants]
    add: Callable
    inv: Callable
    haar_left: Callable
    haar_right: Callable
    modular: Callable
    unimodular: bool
    ordering: Optional[str] = None
    jac_left: Optional[Callable] = None   # |det d(q+p)/dp|
    jac_right: Optional[Callable] = None  # |det d(p+q)/dp|
    exact_hessian: Optional[Callable] = None
    meta: dict = field(default_factory=dict, compare=False)

    def check_dim(self, *vecs):
        """Each argument must be one momentum (dim,) or a stack (n, dim), all entries finite."""
        for v in vecs:
            shape = np.shape(v)
            if len(shape) not in (1, 2) or shape[-1] != self.dim:
                raise DimensionMismatch(
                    f"{self.name}: expected momentum of length {self.dim}, got shape {shape}"
                )
            if not np.all(np.isfinite(np.asarray(v, dtype=complex))):
                raise ValueError(f"{self.name}: momentum entries must be finite")


def add(g: GroupDescriptor, p, q):
    g.check_dim(p, q)
    return g.add(np.asarray(p), np.asarray(q))


def inv(g: GroupDescriptor, p):
    g.check_dim(p)
    return g.inv(np.asarray(p))


def modular(g: GroupDescriptor, p):
    g.check_dim(p)
    return g.modular(np.asarray(p))


def _one(p, *_):
    """The constant 1 for each momentum in p: unimodular weights and Jacobians."""
    return np.ones(np.shape(p)[:-1])[()]


def _cols(p, *idx):
    """The coordinate columns p[..., i], NumPy scalars for one momentum.

    A 0-d array takes the general ufunc path at every operation; a scalar
    does not, so one momentum composes several times faster.
    """
    return tuple(p[..., i][()] for i in idx)


def _norm3(x, y, z):
    """The Euclidean length of (x, y, z), three coordinate columns of one array."""
    if np.iscomplexobj(x):
        x, y, z = np.abs(x), np.abs(y), np.abs(z)
    return np.sqrt(x * x + y * y + z * z)


def _minus(p):
    """The inverse -p, for the laws in which p ⊞ (-p) = 0."""
    return -np.asarray(p)


# ---------------------------------------------------------------------------
# series-protected special functions (elementwise)

def _series(x, taylor, exact):
    """exact(x), with the Taylor polynomial taylor(x) where |x| < SERIES_CUT."""
    x = np.asarray(x)
    small = np.abs(x) < SERIES_CUT
    return np.where(small, taylor(x), exact(np.where(small, 1.0, x)))[()]


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


def _sinc2(x):
    """(sin(x)/x)^2, series-protected."""
    return _series(x, lambda x: 1.0 - x * x / 6 + x ** 4 / 120, lambda x: np.sin(x) / x) ** 2


# ---------------------------------------------------------------------------
# preset group laws

def _kappa_group(kappa: float, d: int) -> GroupDescriptor:
    sc = preset("kappa_minkowski", kappa=kappa, d=d)
    n = d + 1

    def kadd(p, q):
        p, q = np.asarray(p), np.asarray(q)
        return p + np.concatenate((q[..., :1], np.exp(-p[..., :1] / kappa) * q[..., 1:]), axis=-1)

    def kinv(p):
        p = np.asarray(p)
        return -np.concatenate((p[..., :1], np.exp(p[..., :1] / kappa) * p[..., 1:]), axis=-1)

    def mod(p):
        return np.exp(d * np.asarray(p)[..., 0] / kappa)

    def hess():
        H = np.zeros((n, n, n), dtype=complex)
        for j in range(1, n):
            H[0, j, j] = -1.0 / kappa
        return H

    return GroupDescriptor(
        name="kappa_minkowski", dim=n, structure=sc,
        # the left Haar weight e^{d p0/kappa} is the modular function itself
        add=kadd, inv=kinv, haar_left=mod, haar_right=_one, modular=mod,
        unimodular=False, ordering="right",
        jac_left=lambda q, p: np.exp(-d * np.asarray(q)[..., 0] / kappa),
        jac_right=_one,
        exact_hessian=hess,
        meta={"kappa": kappa, "d": d},
    )


def _kappa_sum_group(kappa: float, d: int) -> GroupDescriptor:
    """kappa-Minkowski in the sum (symmetric) wave-packet ordering."""
    sc = preset("kappa_minkowski", kappa=kappa, d=d)
    n = d + 1

    def sadd(p, q):
        p, q = np.asarray(p), np.asarray(q)
        p0, q0 = p[..., :1], q[..., :1]
        pref = np.exp(-p0 / kappa) * g_right_to_sum((p0 + q0) / kappa)
        return pref * (_h_exp(p0 / kappa) * p + _h_mexp(q0 / kappa) * q)

    def mod(p):
        return np.exp(d * np.asarray(p)[..., 0] / kappa)

    def wl(p):
        # |(1 - e^{p0/kappa})/p0|^d; the printed expression is negative for
        # p0 > 0, the absolute value is taken.
        return np.abs(_h_exp(np.asarray(p)[..., 0] / kappa) / kappa) ** d

    def wr(p):
        return wl(p) / mod(p)

    return GroupDescriptor(
        name="kappa_minkowski_sum", dim=n, structure=sc,
        add=sadd, inv=_minus, haar_left=wl, haar_right=wr, modular=mod,
        unimodular=False, ordering="sum",
        meta={"kappa": kappa, "d": d},
    )


def _rho_group(rho: float) -> GroupDescriptor:
    sc = preset("rho_minkowski", rho=rho)

    # Each law builds its two rotated columns before it allocates the output.
    # In the other order the column temporaries fragment the malloc heap, and
    # kernel_scale's peak RSS (10^6-row batches, glibc) rose by about 5%.

    def radd(p, q):
        # (q1, q2) rotated by the angle rho p0, written over the columns of a fresh p + q
        p, q = np.asarray(p), np.asarray(q)
        (p0, p1, p2), (q1, q2) = _cols(p, 0, 1, 2), _cols(q, 1, 2)
        angle = rho * p0
        c, s = np.cos(angle), np.sin(angle)
        r1, r2 = p1 + (c * q1 - s * q2), p2 + (s * q1 + c * q2)
        out = np.add(p, q, dtype=np.result_type(p, q, c))
        out[..., 1], out[..., 2] = r1, r2
        return out

    def rinv(p):
        # (p1, p2) rotated by the angle -rho p0, written over the columns of a fresh -p
        p = np.asarray(p)
        p0, p1, p2 = _cols(p, 0, 1, 2)
        angle = rho * p0
        c, s = np.cos(angle), np.sin(angle)
        r1, r2 = -(c * p1 + s * p2), -(c * p2 - s * p1)
        out = np.negative(p, dtype=np.result_type(p, c))
        out[..., 1], out[..., 2] = r1, r2
        return out

    def hess():
        H = np.zeros((4, 4, 4), dtype=complex)
        # d^2 (p+q)_1,2 / dp0 dq_j of R(rho p0) q at 0
        H[0, 1, 2] = rho
        H[0, 2, 1] = -rho
        return H

    return GroupDescriptor(
        name="rho_minkowski", dim=4, structure=sc,
        add=radd, inv=rinv, haar_left=_one, haar_right=_one, modular=_one,
        unimodular=True,
        jac_left=_one, jac_right=_one,
        exact_hessian=hess,
        meta={"rho": rho},
    )


def _moyal_group(theta: float, dim: int = 5, phase_convention: str = "weyl") -> GroupDescriptor:
    sc = preset("moyal_extended", theta=theta, dim=dim, phase_convention=phase_convention)
    Theta = sc.meta["Theta"]
    c = MOYAL_PHASE_CONVENTIONS[phase_convention]
    ns = dim - 1
    cTheta = c * Theta  # complex for the imaginary convention
    # its nonzero entries, ordered by column as the sum p.Theta.q runs
    terms = [(i, j, cTheta[i, j]) for j, i in zip(*np.nonzero(Theta.T))]

    def madd(p, q):
        # plain sum, with the phase slot shifted by c p.Theta.q (real parts of the
        # spatial momenta); the dtype follows p, q and c, so complex phases stay
        p, q = np.asarray(p), np.asarray(q)
        out = (p + q).astype(np.result_type(p, q, cTheta), copy=False)
        P, Q = _cols(np.real(p), *range(ns)), _cols(np.real(q), *range(ns))
        out[..., ns] += sum(P[i] * v * Q[j] for i, j, v in terms)
        return out

    def hess():
        H = np.zeros((dim, dim, dim), dtype=complex)
        H[:ns, :ns, ns] = c * Theta
        return H

    return GroupDescriptor(
        name="moyal_extended", dim=dim, structure=sc,
        add=madd, inv=_minus, haar_left=_one, haar_right=_one, modular=_one,
        unimodular=True,
        jac_left=_one, jac_right=_one,
        exact_hessian=hess,
        meta={"theta": theta, "Theta": Theta, "phase_convention": phase_convention},
    )


def _su2_group(lam: float) -> GroupDescriptor:
    sc = preset("su2_lambda", lam=lam)

    def quaternion(p):
        """Scalar and vector components of the unit quaternion exp(i lam p.sigma / 2)."""
        x, y, z = _cols(p, 0, 1, 2)
        norm = _norm3(x, y, z)
        half = lam * norm / 2
        s = np.sin(half) / np.where(norm > 0, norm, 1.0)
        return np.cos(half), s * x, s * y, s * z

    def sadd(p, q):
        # the quaternion product a b = (a0 b0 - a.b, a0 b + b0 a - a x b), by component
        a0, a1, a2, a3 = quaternion(np.asarray(p))
        b0, b1, b2, b3 = quaternion(np.asarray(q))
        r0 = a0 * b0 - (a1 * b1 + a2 * b2 + a3 * b3)
        r1 = a0 * b1 + b0 * a1 - (a2 * b3 - a3 * b2)
        r2 = a0 * b2 + b0 * a2 - (a3 * b1 - a1 * b3)
        r3 = a0 * b3 + b0 * a3 - (a1 * b2 - a2 * b1)
        del a0, a1, a2, a3, b0, b1, b2, b3  # freed before the output is allocated
        nr = _norm3(r1, r2, r3)
        dead = nr < 1e-300  # False for NaN, so a non-finite row stays non-finite
        scale = (2 / lam) * np.arctan2(nr, r0) / np.where(dead, 1.0, nr)  # angle in [0, pi]
        out = np.empty(np.shape(scale) + (3,), np.result_type(scale, r1))
        for k, r in enumerate((r1, r2, r3)):
            np.multiply(scale, r, out=out[..., k])
        out[dead] = 0.0  # a rotation too small to give an axis: the identity
        return out

    def w(p):
        return _sinc2(lam * _norm3(*_cols(p, 0, 1, 2)) / 2)

    return GroupDescriptor(
        name="su2_lambda", dim=3, structure=sc,
        add=sadd, inv=_minus, haar_left=w, haar_right=w, modular=_one,
        unimodular=True,
        meta={"lam": lam},
    )


def _commutative_group(dim: int) -> GroupDescriptor:
    C = np.zeros((dim, dim, dim), dtype=complex)
    sc = StructureConstants("commutative", dim, 0.0, C)
    return GroupDescriptor(
        name="commutative", dim=dim, structure=sc,
        add=lambda p, q: np.asarray(p) + np.asarray(q),
        inv=_minus,
        haar_left=_one, haar_right=_one, modular=_one,
        unimodular=True,
        jac_left=_one, jac_right=_one,
        exact_hessian=lambda: np.zeros((dim, dim, dim), dtype=complex),
        meta={},
    )


def group_preset(name: str, *, kappa=1.0, theta=1.0, rho=1.0, lam=1.0, d=1,
                 dim=None, ordering="right", phase_convention="weyl") -> GroupDescriptor:
    """Build the momentum group of a named space-time preset."""
    if name == "kappa_minkowski":
        if ordering == "right":
            return _kappa_group(float(kappa), int(d))
        if ordering == "sum":
            return _kappa_sum_group(float(kappa), int(d))
        raise ValueError(f"unknown kappa ordering {ordering!r}")
    if name == "rho_minkowski":
        return _rho_group(float(rho))
    if name == "moyal_extended":
        return _moyal_group(float(theta), 5 if dim is None else int(dim), phase_convention)
    if name == "su2_lambda":
        return _su2_group(float(lam))
    if name == "commutative":
        return _commutative_group(4 if dim is None else int(dim))
    raise ValueError(f"unknown group preset {name!r}")


# ---------------------------------------------------------------------------
# batched composition: the descriptor's laws on stacks of momenta

# Rows per block of add_batch/inv_batch: a law's column temporaries for 8192
# rows (64 KB each) stay in a 2 MB L2 cache instead of streaming memory.
BLOCK_ROWS = 8192


def _check_rows(g: GroupDescriptor, *arrays):
    for X in arrays:
        if X.ndim != 2 or X.shape[1] != g.dim or X.shape != arrays[0].shape:
            raise DimensionMismatch(f"{g.name}: needs matching (n, {g.dim}) arrays")


def _by_blocks(law, *arrays):
    """law(*arrays) for (n, dim) stacks, evaluated BLOCK_ROWS rows at a time.

    Every law acts row by row, so each block's rows come out bit for bit as
    in one call; the blocks only keep the law's column temporaries in cache.
    A law may choose its dtype from the whole batch (bch_compose returns
    real only when every row is), so a block whose dtype differs from the
    first block's is never cast: the batch is then one call after all.
    """
    n = len(arrays[0])
    if n <= BLOCK_ROWS:
        return law(*arrays)
    first = law(*(X[:BLOCK_ROWS] for X in arrays))
    out = np.empty((n,) + first.shape[1:], first.dtype)
    out[:BLOCK_ROWS] = first
    for start in range(BLOCK_ROWS, n, BLOCK_ROWS):
        part = law(*(X[start:start + BLOCK_ROWS] for X in arrays))
        if part.dtype != out.dtype:
            return law(*arrays)
        out[start:start + BLOCK_ROWS] = part
    return out


def add_batch(g: GroupDescriptor, P, Q) -> np.ndarray:
    """Row-wise p ⊞ q for arrays of momenta, shape (n, dim)."""
    P, Q = np.asarray(P), np.asarray(Q)
    _check_rows(g, P, Q)
    return _by_blocks(g.add, P, Q)


def inv_batch(g: GroupDescriptor, P) -> np.ndarray:
    """Row-wise ⊟p for an array of momenta, shape (n, dim)."""
    P = np.asarray(P)
    _check_rows(g, P)
    return _by_blocks(g.inv, P)


# ---------------------------------------------------------------------------
# Haar invariance (pointwise Jacobian form)

def _fd_jacobian_det(f, x, h=1e-5):
    """|det df/dx| at each momentum of x by central differences.

    f gets all 2 dim stencil points in one call, as an array of shape
    (..., 2, dim, dim): [..., 0, j] is x + h e_j and [..., 1, j] is x - h e_j.
    """
    x = np.asarray(x, float)
    step = h * np.eye(x.shape[-1])
    vals = np.real(f(x[..., None, None, :] + np.stack((step, -step))))
    # row j holds d f / d x_j: the transposed Jacobian, with the same determinant
    return np.abs(np.linalg.det((vals[..., 0, :, :] - vals[..., 1, :, :]) / (2 * h)))


def haar_invariance_check(g: GroupDescriptor, q, p, side="left", weight=None):
    """Pointwise Jacobian residual of Haar invariance.

    left : |w(p) - w(q [+] p) * |det d(q [+] p)/dp||
    right: |w(p) - w(p [+] q) * |det d(p [+] q)/dp||
    p and q are momenta or (n, dim) rows; the residual has one entry per row.
    A weight override lets corrupted densities be probed.
    """
    g.check_dim(p, q)
    p, q = np.broadcast_arrays(np.asarray(p, float), np.asarray(q, float))
    qs = q[..., None, None, :]  # q against the stencil points of _fd_jacobian_det
    if side == "left":
        w = weight if weight is not None else g.haar_left
        shifted = g.add(q, p)
        if g.jac_left is not None:
            det = g.jac_left(q, p)
        else:
            det = _fd_jacobian_det(lambda x: g.add(np.broadcast_to(qs, x.shape), x), p)
    elif side == "right":
        w = weight if weight is not None else g.haar_right
        shifted = g.add(p, q)
        if g.jac_right is not None:
            det = g.jac_right(p, q)
        else:
            det = _fd_jacobian_det(lambda x: g.add(x, np.broadcast_to(qs, x.shape)), p)
    else:
        raise ValueError("side must be 'left' or 'right'")
    return np.abs(w(p) - w(shifted) * det)


def modular_identity_residuals(g: GroupDescriptor, p, q) -> dict:
    """Relative residuals of Delta(p+q) = Delta(p)Delta(q), Delta(-p) = 1/Delta(p), Delta(0) = 1.

    p and q are momenta or (n, dim) rows; each residual has one entry per row.
    """
    g.check_dim(p, q)
    p, q = np.broadcast_arrays(np.asarray(p), np.asarray(q))
    dp = g.modular(p)
    prod = dp * g.modular(q)
    r1 = np.abs(g.modular(g.add(p, q)) - prod) / (1.0 + np.abs(prod))
    r2 = np.abs(g.modular(g.inv(p)) - 1.0 / dp) / (1.0 + 1.0 / dp)
    r3 = np.abs(g.modular(np.zeros(g.dim)) - 1.0)
    return {"homomorphism": r1, "inverse": r2, "identity": r3}


# ---------------------------------------------------------------------------
# ordering transform (kappa-Minkowski right <-> sum)

def ordering_transform(p, kappa: float, direction: str) -> np.ndarray:
    """phi(p) = (p0, g(p0/kappa) p_j) intertwines the right and sum laws."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
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


# ---------------------------------------------------------------------------
# non-planar delta solver

@dataclass
class DeltaSolveResult:
    ok: bool
    k: Optional[np.ndarray]
    residual: float
    reason: str = ""


def nonplanar_residual(g: GroupDescriptor, p, q, k) -> np.ndarray:
    """p [+] k [+] q [+] (-k), the argument of the non-planar delta."""
    return g.add(g.add(g.add(p, k), q), g.inv(k))


def delta_solve_nonplanar(g: GroupDescriptor, p, q, k0: float = 0.0,
                          tol: float = 1e-10, max_iter: int = 60) -> DeltaSolveResult:
    """Solve p [+] k [+] q [-] k = 0 for the spatial part of k at fixed k0."""
    g.check_dim(p, q)
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    n = g.dim
    if np.allclose(p, 0) and np.allclose(q, 0):
        k = np.zeros(n)
        k[0] = k0
        return DeltaSolveResult(True, k, 0.0, "trivial")

    if g.name == "kappa_minkowski":
        kappa = g.meta["kappa"]
        if abs(p[0] + q[0]) > tol:
            return DeltaSolveResult(False, None, abs(p[0] + q[0]),
                                    "energy component p0+q0 is constant in k and nonzero")
        denom = 1.0 - math.exp(-p[0] / kappa)
        if abs(denom) < 1e-14:
            r = p[1:] + math.exp(-(p[0] + k0) / kappa) * q[1:]
            if np.max(np.abs(r)) < tol:
                k = np.zeros(n)
                k[0] = k0
                return DeltaSolveResult(True, k, 0.0, "degenerate p0=0, residual already zero")
            return DeltaSolveResult(False, None, float(np.max(np.abs(r))),
                                    "p0=0 makes the spatial residual k-independent and nonzero")
        k = np.zeros(n)
        k[0] = k0
        k[1:] = (p[1:] + math.exp(-(p[0] + k0) / kappa) * q[1:]) / denom
        res = float(np.max(np.abs(nonplanar_residual(g, p, q, k))))
        return DeltaSolveResult(res < tol, k, res, "closed form")

    # general path: damped Newton on the spatial components at fixed k0
    def resid(kspat):
        k = np.concatenate(([k0], kspat))
        return np.real(nonplanar_residual(g, p, q, k))

    k_full0 = np.zeros(n)
    k_full0[0] = k0
    r0 = resid(np.zeros(n - 1))
    if abs(r0[0]) > tol and g.name in ("rho_minkowski", "commutative"):
        return DeltaSolveResult(False, None, abs(r0[0]),
                                "energy component is constant in k and nonzero")
    kspat = np.zeros(n - 1)
    h = 1e-6
    for _ in range(max_iter):
        r = resid(kspat)
        if np.max(np.abs(r)) < tol:
            k = np.concatenate(([k0], kspat))
            return DeltaSolveResult(True, k, float(np.max(np.abs(r))), "newton")
        J = np.empty((n, n - 1))
        for j in range(n - 1):
            e = np.zeros(n - 1)
            e[j] = h
            J[:, j] = (resid(kspat + e) - resid(kspat - e)) / (2 * h)
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        lam = 1.0
        best = np.max(np.abs(r))
        while lam > 1e-6:
            trial = kspat + lam * step
            if np.max(np.abs(resid(trial))) < best:
                kspat = trial
                break
            lam /= 2
        else:
            return DeltaSolveResult(False, None, float(best), "newton stalled")
    return DeltaSolveResult(False, None, float(np.max(np.abs(resid(kspat)))),
                            "newton did not converge")


# ---------------------------------------------------------------------------
# dispersion relations

def dispersion(choice: str, E: float, kappa: float) -> float:
    """|p|^2 for the two kinetic-generator choices (truncated at printed order)."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if choice == "P":
        return E * E
    if choice == "X":
        return E * E - E ** 3 / kappa
    raise ValueError("choice must be 'P' or 'X'")


# ---------------------------------------------------------------------------
# truncated BCH composition -- generic groups, and the oracle

# B_{2p}/(2p)! for the classical BCH recursion
_BCH_K2P = {
    2: 1.0 / 12,
    4: -1.0 / 720,
    6: 1.0 / 30240,
    8: -1.0 / 1209600,
    10: 1.0 / 47900160,
    12: -691.0 / 1307674368000,
}


def _compositions(n, k):
    """Ordered tuples of k positive integers summing to n."""
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def bch_compose(C: np.ndarray, p, q, order: int = 8):
    """p [+] q from the structure constants alone, via the truncated BCH series.

    Composes exp(i p.x) exp(i q.x) in the Lie algebra [x^m, x^n] = C^{mn}_r x^r
    using the Bernoulli-number recursion for the graded pieces z_n; this is
    the symmetric (sum-type) wave-packet ordering.  p and q are (..., dim)
    arrays; the result is real when every composed momentum is.
    """
    C = np.asarray(C, dtype=complex)
    A = 1j * np.asarray(p, dtype=complex)
    B = 1j * np.asarray(q, dtype=complex)

    def bracket(u, v):
        return np.einsum("...m,...n,mnr->...r", u, v, C)

    z = [None, A + B]
    for n in range(1, order):
        acc = 0.5 * bracket(A - B, z[n])
        for twop in range(2, n + 1, 2):
            coeff = _BCH_K2P.get(twop)
            if coeff is None:
                break
            for comp in _compositions(n, twop):
                w = A + B
                for k in reversed(comp):
                    w = bracket(z[k], w)
                if np.any(w):
                    acc = acc + coeff * w
        z.append(acc / (n + 1))
    out = sum(z[1:]) / 1j
    if np.all(np.max(np.abs(out.imag), axis=-1) < 1e-12 * (1 + np.max(np.abs(out.real), axis=-1))):
        return out.real
    return out


def group_from_structure(sc: StructureConstants, order: int = 8) -> GroupDescriptor:
    """Generic group law from structure constants via the truncated BCH series."""

    def gadd(p, q):
        return bch_compose(sc.C, p, q, order=order)

    return GroupDescriptor(
        name=f"bch:{sc.name}", dim=sc.dim, structure=sc,
        add=gadd, inv=_minus,
        haar_left=_one, haar_right=_one, modular=_one,
        unimodular=True, meta={"order": order},
    )
