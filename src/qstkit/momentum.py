"""Closed-form deformed momentum groups: the catalogue of shipped space-times.

Each space-time's momenta compose through a non-abelian group law ("⊞")
obtained by exponentiating the coordinate algebra [x^mu, x^nu] =
C^{mu nu}_rho x^rho.  One builder per preset (kappa-Minkowski, the extended
Moyal space, rho-Minkowski, su(2) and the commutative space) checks its
parameters and builds C next to the closed-form law, inverse, Haar weights
and modular function; `group_preset` picks the builder by name.  The
module also holds the Haar invariance check (its Jacobians come from
finite differences of the law itself), the non-planar delta solver and a
truncated BCH composition that serves as the independent oracle for the
closed forms and as the generic-group fallback.
`add_batch` applies a group's law to (n, dim) stacks, in blocks of
BLOCK_ROWS rows that give bit for bit the values and dtype of one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .liestructure import StructureConstants

SERIES_CUT = 1e-4  # switch point for removable singularities
JACOBIAN_STEP = 1e-5  # central-difference step of _fd_jacobian_det
NEWTON_TOL = 1e-10  # delta_solve_nonplanar: largest |residual| of a solution
NEWTON_STEP = 1e-6  # central-difference step of delta_solve_nonplanar's Newton Jacobian
NEWTON_MAX_ITER = 60  # damped Newton steps of delta_solve_nonplanar's general path

# Moyal fifth-slot conventions: increment of p5 under composition, as a
# multiple c of p.Theta.q.  The group stores the tensor its law regenerates,
# C[:ns, :ns, ns] = -2i c Theta: i Theta for "weyl" (whose phase matches the
# integral star product), -2i Theta for "real" and 2 Theta for "imaginary".
MOYAL_PHASE_CONVENTIONS = {"weyl": -0.5, "real": 1.0, "imaginary": 1j}


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class GroupDescriptor:
    """A momentum group: composition, inverse, Haar weights, modular function.

    Every law acts on arrays of shape (..., dim), so one momentum is a batch
    of one; add takes two arrays of the same shape.  Scalar-valued laws
    (weights, modular function) return shape (...), a NumPy scalar for one
    momentum.  Derivatives are never stored: the Haar check and structure
    recovery differentiate add.
    """

    name: str
    dim: int
    structure: StructureConstants
    add: Callable
    inv: Callable
    haar_left: Callable
    haar_right: Callable
    modular: Callable

    @property
    def meta(self) -> dict:
        """The structure's parameters, e.g. kappa and d: `structure.meta`."""
        return self.structure.meta

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
    """The constant 1 for each momentum in p: unimodular weights."""
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


def _sinc2(x):
    """(sin(x)/x)^2, series-protected."""
    return _series(x, lambda x: 1.0 - x * x / 6 + x ** 4 / 120, lambda x: np.sin(x) / x) ** 2


# ---------------------------------------------------------------------------
# the preset catalogue: each builder checks its parameters, then builds C and the law

def _finite(what: str, value, positive: bool = False) -> float:
    """value as a float; ValueError unless it is finite and nonzero (with positive, > 0)."""
    v = float(value)
    if not math.isfinite(v) or v == 0 or (positive and v < 0):
        raise ValueError(f"{what} must be finite and {'positive' if positive else 'nonzero'}")
    return v


def _fixed_dim(name: str, n: int, dim) -> None:
    """ValueError when a dim is given and is not n, the dimension of the preset."""
    if dim is not None and dim != n:
        raise ValueError(f"{name} has dim {n}, not {dim}")


def _kappa_group(kappa, d, dim=None) -> GroupDescriptor:
    """[x^0, x^j] = (i/kappa) x^j for j = 1..d (any d >= 1)."""
    kappa, d = _finite("kappa", kappa, positive=True), int(d)
    _fixed_dim(f"kappa_minkowski with d={d}", d + 1, dim)
    if d < 1:
        raise ValueError("kappa_minkowski needs d >= 1")
    n = d + 1
    C = np.zeros((n, n, n), dtype=complex)
    for j in range(1, n):
        C[0, j, j] = 1j / kappa
        C[j, 0, j] = -1j / kappa
    sc = StructureConstants("kappa_minkowski", n, C, meta={"d": d, "kappa": kappa})

    def mod(p):
        """Delta(p) = e^{d p0/kappa}."""
        return np.exp(d * np.asarray(p)[..., 0] / kappa)

    # column by column: the same float operations as one broadcast, without its temporaries
    def kadd(p, q):
        p, q = np.asarray(p), np.asarray(q)
        e = np.exp(-p[..., 0] / kappa)
        out = np.add(p, q, dtype=np.result_type(p, q, e))
        for j in range(1, out.shape[-1]):
            out[..., j] = p[..., j] + e * q[..., j]
        return out

    def kinv(p):
        p = np.asarray(p)
        e = np.exp(p[..., 0] / kappa)
        out = np.negative(p, dtype=np.result_type(p, e))
        for j in range(1, out.shape[-1]):
            np.negative(e * p[..., j], out=out[..., j])
        return out

    return GroupDescriptor(
        name="kappa_minkowski", dim=d + 1, structure=sc,
        # the left Haar weight e^{d p0/kappa} is the modular function itself
        add=kadd, inv=kinv, haar_left=mod, haar_right=_one, modular=mod,
    )


def _rho_group(rho, dim=None) -> GroupDescriptor:
    """dim 4, a rotation-type bracket in the (x1, x2) plane."""
    rho = _finite("rho", rho)
    _fixed_dim("rho_minkowski", 4, dim)
    C = np.zeros((4, 4, 4), dtype=complex)
    # Signs tied to the group law vec(p) + R(+rho p0) vec(q); the
    # coordinate bracket with the opposite sign corresponds to R(-rho p0).
    C[0, 1, 2] = -1j * rho
    C[1, 0, 2] = 1j * rho
    C[0, 2, 1] = 1j * rho
    C[2, 0, 1] = -1j * rho
    sc = StructureConstants("rho_minkowski", 4, C, meta={"rho": rho})

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

    return GroupDescriptor(
        name="rho_minkowski", dim=4, structure=sc,
        add=radd, inv=rinv, haar_left=_one, haar_right=_one, modular=_one,
    )


def _moyal_group(theta, dim=None, phase_convention="weyl") -> GroupDescriptor:
    """[x^mu, x^nu] = -2i c Theta^{mu nu} x^5 with the unit slot appended (dim = even
    spatial + 1, default 5); c is the phase convention's increment, so i Theta for "weyl"."""
    theta = _finite("theta", theta)
    n = 5 if dim is None else int(dim)
    if n < 3 or n % 2 == 0:
        raise ValueError("moyal_extended needs an even spatial dim plus the phase slot")
    if phase_convention not in MOYAL_PHASE_CONVENTIONS:
        raise ValueError(f"unknown phase convention {phase_convention!r}")
    ns = n - 1
    Theta = np.zeros((ns, ns))
    for b in range(ns // 2):
        Theta[2 * b, 2 * b + 1] = theta
        Theta[2 * b + 1, 2 * b] = -theta
    C = np.zeros((n, n, n), dtype=complex)
    C[:ns, :ns, ns] = -2j * MOYAL_PHASE_CONVENTIONS[phase_convention] * Theta
    sc = StructureConstants("moyal_extended", n, C, meta={"theta": theta, "Theta": Theta,
                                                          "phase_convention": phase_convention})
    cTheta = MOYAL_PHASE_CONVENTIONS[phase_convention] * Theta  # complex for "imaginary"
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

    return GroupDescriptor(
        name="moyal_extended", dim=n, structure=sc,
        add=madd, inv=_minus, haar_left=_one, haar_right=_one, modular=_one,
    )


def _su2_group(lam, dim=None) -> GroupDescriptor:
    """[x^j, x^k] = i lam eps^{jk}_l x^l, dim 3."""
    lam = _finite("lambda", lam)
    _fixed_dim("su2_lambda", 3, dim)
    eps = np.zeros((3, 3, 3))
    for (j, k, l), s in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                         ((1, 0, 2), -1), ((2, 1, 0), -1), ((0, 2, 1), -1)):
        eps[j, k, l] = s
    C = 1j * lam * eps
    sc = StructureConstants("su2_lambda", 3, C, meta={"lam": lam})

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
    )


def _commutative_group(dim) -> GroupDescriptor:
    dim = 4 if dim is None else int(dim)  # C = 0 in any dim
    C = np.zeros((dim, dim, dim), dtype=complex)
    sc = StructureConstants("commutative", dim, C)
    return GroupDescriptor(
        name="commutative", dim=dim, structure=sc,
        add=lambda p, q: np.asarray(p) + np.asarray(q),
        inv=_minus,
        haar_left=_one, haar_right=_one, modular=_one,
    )


def group_preset(name: str, *, kappa=1.0, theta=1.0, rho=1.0, lam=1.0, d=1,
                 dim=None, phase_convention="weyl") -> GroupDescriptor:
    """Build the momentum group of a named space-time preset, structure constants included.

    Each preset reads only its own parameters; a bad one, or an unknown name, is a ValueError.
    """
    if name == "kappa_minkowski":
        return _kappa_group(kappa, d, dim)
    if name == "rho_minkowski":
        return _rho_group(rho, dim)
    if name == "moyal_extended":
        return _moyal_group(theta, dim, phase_convention)
    if name == "su2_lambda":
        return _su2_group(lam, dim)
    if name == "commutative":
        return _commutative_group(dim)
    raise ValueError(f"unknown group preset {name!r}")


# ---------------------------------------------------------------------------
# batched composition: the descriptor's law on stacks of momenta

# Rows per block of add_batch: a law's column temporaries for 8192
# rows (64 KB each) stay in a 2 MB L2 cache instead of streaming memory.
BLOCK_ROWS = 8192


def add_batch(g: GroupDescriptor, P, Q) -> np.ndarray:
    """Row-wise p ⊞ q for arrays of momenta, shape (n, dim), BLOCK_ROWS rows at a time.

    Every law acts row by row, and its dtype follows its inputs' alone, so
    each block's rows come out bit for bit as in one call; the blocks only
    keep the law's column temporaries in cache.
    """
    P, Q = np.asarray(P), np.asarray(Q)
    if P.ndim != 2 or P.shape[1] != g.dim or P.shape != Q.shape:
        raise DimensionMismatch(f"{g.name}: needs matching (n, {g.dim}) arrays")
    n = len(P)
    if n <= BLOCK_ROWS:
        return g.add(P, Q)
    first = g.add(P[:BLOCK_ROWS], Q[:BLOCK_ROWS])
    out = np.empty((n,) + first.shape[1:], first.dtype)
    out[:BLOCK_ROWS] = first
    for start in range(BLOCK_ROWS, n, BLOCK_ROWS):
        out[start:start + BLOCK_ROWS] = g.add(P[start:start + BLOCK_ROWS],
                                              Q[start:start + BLOCK_ROWS])
    return out


# ---------------------------------------------------------------------------
# Haar invariance (pointwise Jacobian form)

def real_values(x, what: str) -> np.ndarray:
    """x as a float array; a nonzero imaginary part is a ValueError, never dropped.

    The message says "not finite" when x holds a NaN or inf (a NaN imaginary part
    is nonzero), else "complex"; what names the value, e.g. "group add: the result".
    """
    x = np.asarray(x)
    if np.iscomplexobj(x) and np.any(x.imag):
        why = "complex" if np.isfinite(x).all() else "not finite"
        raise ValueError(f"{what} is {why} for these inputs")
    return np.real(x).astype(float)


def _central_rows(f, x, h):
    """Row j is (f(x + h e_j) - f(x - h e_j)) / 2h: the transposed Jacobian of f at each x.

    f gets all 2 dim stencil points in one call, as an array of shape
    (..., 2, dim, dim): [..., 0, j] is x + h e_j and [..., 1, j] is x - h e_j.
    Where f is inf on both sides the row reads NaN, without a warning.
    """
    step = h * np.eye(x.shape[-1])
    vals = f(x[..., None, None, :] + np.stack((step, -step)))
    with np.errstate(invalid="ignore"):
        return (vals[..., 0, :, :] - vals[..., 1, :, :]) / (2 * h)


def _fd_jacobian_det(f, x):
    """|det df/dx| at each momentum of x by central differences, step h = JACOBIAN_STEP.

    ValueError when f has a nonzero imaginary part at a stencil point: the
    real part alone is not the law, so its Jacobian would be a wrong answer.
    """
    rows = _central_rows(lambda y: real_values(f(y), "the group law"),
                         np.asarray(x, float), JACOBIAN_STEP)
    # the transposed Jacobian has the same determinant; a NaN law gives a NaN
    # determinant, which fails its check, without a warning
    with np.errstate(invalid="ignore"):
        return np.abs(np.linalg.det(rows))


def haar_invariance_check(g: GroupDescriptor, q, p, side="left"):
    """Pointwise Jacobian residual of Haar invariance, relative to 1 + |w(p)|.

    left : |w(p) - w(q [+] p) * |det d(q [+] p)/dp|| / (1 + |w(p)|)
    right: |w(p) - w(p [+] q) * |det d(p [+] q)/dp|| / (1 + |w(p)|)
    The Jacobian determinant is always that of the law, by central
    differences (_fd_jacobian_det), so a wrong law or a wrong weight shows.
    p and q are momenta or (n, dim) rows; the residual has one entry per row.
    A corrupted density is probed on `dataclasses.replace(g, haar_left=...)`.
    A law that is complex at the stencil points raises ValueError.
    """
    g.check_dim(p, q)
    p, q = np.broadcast_arrays(np.asarray(p, float), np.asarray(q, float))
    qs = q[..., None, None, :]  # q against the stencil points of _fd_jacobian_det
    if side == "left":
        w = g.haar_left
        shifted = g.add(q, p)
        det = _fd_jacobian_det(lambda x: g.add(np.broadcast_to(qs, x.shape), x), p)
    elif side == "right":
        w = g.haar_right
        shifted = g.add(p, q)
        det = _fd_jacobian_det(lambda x: g.add(x, np.broadcast_to(qs, x.shape)), p)
    else:
        raise ValueError("side must be 'left' or 'right'")
    wp = w(p)
    return np.abs(wp - w(shifted) * det) / (1.0 + np.abs(wp))


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


def delta_solve_nonplanar(g: GroupDescriptor, p, q, k0: float = 0.0) -> DeltaSolveResult:
    """Solve p [+] k [+] q [-] k = 0 for the spatial part of k at fixed k0."""
    g.check_dim(p, q)
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    n = g.dim
    if g.name == "kappa_minkowski":
        kappa = g.meta["kappa"]
        if abs(p[0] + q[0]) > NEWTON_TOL:
            return DeltaSolveResult(False, None, abs(p[0] + q[0]),
                                    "energy component p0+q0 is constant in k and nonzero")
        denom = 1.0 - math.exp(-p[0] / kappa)
        k = np.zeros(n)
        k[0] = k0
        degenerate = abs(denom) < 1e-14  # p0 = 0: the residual does not depend on k
        if not degenerate:
            k[1:] = (p[1:] + math.exp(-(p[0] + k0) / kappa) * q[1:]) / denom
        res = float(np.max(np.abs(nonplanar_residual(g, p, q, k))))
        if degenerate and res >= NEWTON_TOL:
            return DeltaSolveResult(False, None, res,
                                    "p0=0 makes the spatial residual k-independent and nonzero")
        return DeltaSolveResult(res < NEWTON_TOL, k, res, "degenerate p0=0, residual already zero"
                                if degenerate else "closed form")

    # general path: damped Newton on the spatial components at fixed k0
    def resid(kspat):
        """The real residual at each spatial part in kspat, shape (..., n - 1)."""
        k = np.concatenate((np.full(kspat.shape[:-1] + (1,), k0), kspat), axis=-1)
        P, Q = np.broadcast_to(p, k.shape), np.broadcast_to(q, k.shape)
        return np.real(nonplanar_residual(g, P, Q, k))

    r0 = resid(np.zeros(n - 1))
    if abs(r0[0]) > NEWTON_TOL and g.name in ("rho_minkowski", "commutative"):
        return DeltaSolveResult(False, None, abs(r0[0]),
                                "energy component is constant in k and nonzero")
    kspat = np.zeros(n - 1)
    for _ in range(NEWTON_MAX_ITER):
        r = resid(kspat)
        if np.max(np.abs(r)) < NEWTON_TOL:
            k = np.concatenate(([k0], kspat))
            return DeltaSolveResult(True, k, float(np.max(np.abs(r))), "newton")
        J = _central_rows(resid, kspat, NEWTON_STEP).T  # all 2 (n - 1) points in one call
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


def _bracket(C: np.ndarray):
    """The bracket [u, v]_r = sum_mn u_m v_n C^{mn}_r of (..., dim) rows, as a function.

    Sums over the nonzero entries of C alone: a three-operand einsum visits
    every (m, n, r) for every row, about 10x slower on the su2 constants.
    """
    C = np.asarray(C, dtype=complex)
    terms = [(m, n, r, C[m, n, r]) for m, n, r in zip(*np.nonzero(C))]

    def bracket(u, v):
        out = np.zeros(np.broadcast_shapes(u.shape, v.shape), complex)
        for m, n, r, c in terms:
            out[..., r] += c * u[..., m] * v[..., n]
        return out

    return bracket


def bch_compose(C: np.ndarray, p, q, order: int = 8):
    """p [+] q from the structure constants alone, via the truncated BCH series.

    Composes exp(i p.x) exp(i q.x) in the Lie algebra [x^m, x^n] = C^{mn}_r x^r
    using the Bernoulli-number recursion for the graded pieces z_n; this is
    the symmetric (sum-type) wave-packet ordering.  p and q are (..., dim)
    arrays, and the result is complex whatever they hold: for pure-imaginary
    structure constants its imaginary parts are exactly 0.
    """
    bracket = _bracket(C)
    A = 1j * np.asarray(p, dtype=complex)
    B = 1j * np.asarray(q, dtype=complex)
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
    return sum(z[1:]) / 1j


def group_from_structure(sc: StructureConstants) -> GroupDescriptor:
    """Generic group law from structure constants via bch_compose at its default order 8.

    Its Haar densities and modular function are 1, which needs a unimodular
    structure: tr ad x^n = sum_m C^{nm}_m = 0 for every n.  On any other one
    each of them raises ValueError, since Delta(exp X) = e^{tr ad X} != 1.
    """
    trace = np.einsum("nmm->n", sc.C)
    bad = np.flatnonzero(trace)

    def refused(*_):
        n = int(bad[0])
        raise ValueError(f"structure {sc.name!r} is not unimodular (tr ad x^{n} = "
                         f"{complex(trace[n]):g}): its Haar weights and modular function "
                         f"are not 1, and no other is implemented")
    weight = refused if len(bad) else _one
    return GroupDescriptor(
        name=f"bch:{sc.name}", dim=sc.dim, structure=sc,
        add=lambda p, q: bch_compose(sc.C, p, q), inv=_minus,
        haar_left=weight, haar_right=weight, modular=weight,
    )
