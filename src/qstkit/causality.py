"""Discretized kappa-Minkowski causality toy model (1+1 dimensions).

States live on a p0 grid; the coordinate operators are x0 = -i d/dp0 and
x1 = a e^{-p0/kappa}.  The module checks the Lorentzian-triple axioms for
the fundamental symmetry and the Dirac block operator, evaluates the
causal-cone quadratic form for linear candidate functions f = alpha x0 +
beta x1 on a seeded family of Gaussian states, and computes the
speed-of-light-analogue margin between two states.  The operators and the
axioms take the a = 1 branch: the a = -1 Dirac operator is the a = 1 one
with its spinor components swapped, and the swap commutes with the
fundamental symmetry.  The cone form takes either branch.

Every operator is applied matrix-free to an (n, ...) array of states: the
derivative by FFT or by shifted slices, the multiplication operators as
vectors, and the cone form through its separable rank-one expansion.  No
path builds an n x n array.  Each seeded family is drawn in one `uniform`
call and built in one broadcast `gaussian_state` call, and the cone form
and the spin action are `np.einsum` contractions: nothing here calls
(threaded) BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-10


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class GridSpec:
    n: int
    window: float  # p0 in [-W, W)
    scheme: str = "spectral"  # or "central"

    def __post_init__(self):
        if self.n < 16:
            raise GridError("need at least 16 grid points")
        if self.scheme not in ("central", "spectral"):
            raise GridError(f"unknown derivative scheme {self.scheme!r}")

    @property
    def h(self):
        return 2 * self.window / self.n

    def points(self):
        return -self.window + self.h * np.arange(self.n)

    def validate_kappa(self, kappa: float):
        if self.window < 10.0 / kappa:
            raise GridError("window must cover at least 10/kappa")
        if self.scheme == "spectral" and self.h > kappa / 2:
            raise GridError("grid too coarse for e^{-p0/kappa}: spectral aliasing")


def _derivative(grid: GridSpec, f):
    """d/dp0 along axis 0 of an (n, ...) array; the grid operator is exactly antisymmetric.

    central: truncated (Dirichlet) central differences.  spectral: the DFT
    derivative with the Nyquist mode zeroed, so the operator stays real.
    """
    f = np.asarray(f)
    if grid.scheme == "central":
        c = 1.0 / (2 * grid.h)
        out = np.zeros(f.shape, dtype=np.result_type(f, float))
        out[:-1] = f[1:] * c
        out[1:] -= f[:-1] * c
        return out
    k = 2 * math.pi * np.fft.fftfreq(grid.n, d=grid.h)
    if grid.n % 2 == 0:
        k[grid.n // 2] = 0.0
    k = k.reshape((-1,) + (1,) * (f.ndim - 1))
    out = np.fft.ifft(1j * k * np.fft.fft(f, axis=0), axis=0)
    return out.real if np.isrealobj(f) else out


def build_operators(grid: GridSpec, kappa: float) -> dict:
    """x0 = -i d/dp0 (Hermitian on the grid) and x1 = e^{-p0/kappa}, branch a = 1.

    "X0" is a function applying x0 to an (n, ...) array; "X1" is the diagonal
    of x1 as a vector.  Either one is an `op` for `expectation`.
    """
    grid.validate_kappa(kappa)
    p = grid.points()
    return {"X0": lambda f: -1j * _derivative(grid, f), "X1": np.exp(-p / kappa), "p": p}


def normalize(psi, grid: GridSpec):
    """psi scaled to |psi|^2 h = 1 along its last axis."""
    psi = np.asarray(psi, dtype=complex)
    nrm = np.sqrt(np.sum(np.abs(psi) ** 2, axis=-1, keepdims=True) * grid.h)
    if not np.all(nrm):
        raise ValueError("zero state")
    return psi / nrm


def check_normalized(psi, grid: GridSpec):
    nrm = float(np.sum(np.abs(psi) ** 2) * grid.h)
    if abs(nrm - 1.0) > NORM_TOL:
        raise ValueError(f"state not normalized: |psi|^2 h = {nrm}")


def expectation(op, psi, grid: GridSpec) -> complex:
    """<psi, op psi> h for an operator given as a function of the state or as its diagonal."""
    op_psi = op(psi) if callable(op) else op * psi
    return complex(np.vdot(psi, op_psi) * grid.h)


def gaussian_state(grid: GridSpec, center, width):
    """Normalized e^{-(p0 - center)^2 / 4 width^2} on the grid.

    Scalar parameters give one (n,) state.  Parameters of shape (m,) give
    an (n, m) family whose column j equals the scalar call on the j-th
    values bit for bit: the family is built as (m, n) rows and normalized
    along the contiguous axis, as a single state is, then transposed.
    """
    p = grid.points()
    center, width = (np.asarray(x, dtype=float)[..., None] for x in (center, width))
    # float_power calls libm pow, as a Python float's ** does; an array's
    # ** 2 squares, which differs in the last bit for about 1 width in 1300
    psi = np.exp(-((p - center) ** 2) / (4 * np.float_power(width, 2))).astype(complex)
    return normalize(psi, grid).T


# ---------------------------------------------------------------------------
# Lorentzian-triple data and axioms

GAMMA0 = np.array([[0, 1j], [1j, 0]])  # the fundamental symmetry is I = i gamma^0


def _dirac_apply(grid: GridSpec, kappa: float, phi, adjoint: bool = False):
    """D phi, or D^dagger phi, for D = [[0, X-],[X+, 0]] on a (2, n, m) spinor x state array.

    X+- = X0 +- X1 are anti-self-adjoint deformed derivations:
    X0 = i kappa(1 - e^{-p0/kappa}) (diagonal, exactly anti-Hermitian; its
    commutative limit is i p0, the Fourier side of d/dx0) and
    X1 = J d/dp0 + J'/2 with J = dp0/dx1 = -kappa e^{p0/kappa}, the
    symmetrized grid realization of d/dx1 through x1 = e^{-p0/kappa}.
    The anti-Hermiticity defect of X1 is the discretization error
    J' - [D, J], which decays at the derivative-scheme order.  The adjoint
    uses (d/dp0)^T = -d/dp0: X0^dagger = conj(X0), X1^dagger = -d/dp0 J + J'/2.
    """
    p = grid.points()[:, None]
    x0 = 1j * kappa * (1.0 - np.exp(-p / kappa))
    J = -kappa * np.exp(p / kappa)
    half = 0.5 * (J / kappa)  # J'/2, since J' = J/kappa
    if adjoint:
        x0, s = x0.conj(), 1
        x1 = lambda f: half * f - _derivative(grid, J * f)
    else:
        s = -1
        x1 = lambda f: J * _derivative(grid, f) + half * f
    return np.stack([x0 * phi[1] + s * x1(phi[1]), x0 * phi[0] - s * x1(phi[0])])


def lorentzian_axiom_check(grid: GridSpec, kappa: float, seed: int = 0) -> dict:
    """I^2 = 1 and I^dagger = I exactly; Krein residual ||(D^dag I + I D) Psi||.

    The residual is measured on interior Gaussian states (spinor x grid), so
    boundary rows of the truncated derivative do not mask the interior
    scheme-order behaviour.  All states go through D, D^dagger and I at
    once as one (2, n, 2m) array; I acts on the spinor axis.
    """
    Imat = 1j * GAMMA0
    i_sq = float(np.max(np.abs(Imat @ Imat - np.eye(2))))
    i_herm = float(np.max(np.abs(Imat.conj().T - Imat)))

    grid.validate_kappa(kappa)
    # one (center, width) row per state, drawn in the order of a per-state loop
    c, w = np.random.default_rng(seed).uniform([-grid.window / 4, 0.5],
                                                [grid.window / 4, 1.0], size=(8, 2)).T
    psi = gaussian_state(grid, c, w)
    m = psi.shape[1]
    phi = np.zeros((2, grid.n, 2 * m), dtype=complex)
    phi[0, :, :m] = psi  # (1, 0) x psi
    phi[1, :, m:] = psi  # (0, 1) x psi

    def spin(x):  # einsum runs numpy's own loops; tensordot would call threaded zgemm
        return np.einsum("ij,j...->i...", Imat, x)

    res = (_dirac_apply(grid, kappa, spin(phi), adjoint=True)
           + spin(_dirac_apply(grid, kappa, phi)))
    worst = float(np.max(np.linalg.norm(res, axis=(0, 1)))) * math.sqrt(grid.h)
    return {"I_squared_residual": i_sq, "I_hermiticity_residual": i_herm,
            "krein_residual": worst}


# ---------------------------------------------------------------------------
# causal cone for linear candidates f = alpha x0 + beta x1

def _cone_form(grid: GridSpec, kappa: float, a: int, alpha: float, beta: float,
               branch: int, psi):
    """Re<psi, K psi> h^2 for each column of the (n, m) array psi.

    K_ij = i(1 - A_i B_j)(alpha(p_j - p_i) + C_i) with A = e^{p/kappa},
    B = e^{-p/kappa} and C = beta a B +- beta: the sign-ambiguous
    spatial-derivative part +-beta sits inside the oscillatory factor.
    Expanded, K/i = sum_t u_t v_t^T over four rank-one terms, so
    <psi, K psi> = i sum_t (u_t^T conj psi)(v_t^T psi).  The u_t are real,
    so u_t^T conj psi = conj(u_t^T psi): the eight real vectors are
    contracted at once with the (re, im) columns of psi.view(float).
    `np.einsum` without `optimize` runs numpy's own loops, never BLAS,
    whose second thread would busy-wait after so small a product.
    """
    p = grid.points()
    A, B = np.exp(p / kappa), np.exp(-p / kappa)
    C = beta * a * B + branch * beta
    one = np.ones_like(p)
    UV = np.stack([one, C - alpha * p, -alpha * A, A * (alpha * p - C),  # u_t
                   alpha * p, one, B * p, B])  # v_t
    x = np.ascontiguousarray(psi).view(float)  # (n, 2m): re, im interleaved
    r = np.einsum("tj,jk->tk", UV, x).view(complex)  # u_t^T psi, v_t^T psi
    q = np.sum(r[:4].conj() * r[4:], axis=0)
    return -q.imag * grid.h ** 2  # Re(i q)


def cone_sweep(grid: GridSpec, kappa: float, a: int, alpha: float, betas,
               n_states: int = 200, seed: int = 0) -> list:
    """The `cone_condition` dict of each beta in `betas`, on one seeded Gaussian family.

    The family does not depend on beta, so it is drawn and built once, and
    only `_cone_form` runs per (beta, branch).
    """
    if a not in (1, -1):
        raise ValueError("only the a = +/-1 representation branches are implemented")
    grid.validate_kappa(kappa)
    # one (center, width) row per state, drawn in the order of a per-state loop
    c, w = np.random.default_rng(seed).uniform([-grid.window / 2, 0.5], [grid.window / 2, 2.0],
                                                size=(n_states, 2)).T
    psi = gaussian_state(grid, c, w)
    out = []
    for beta in betas:
        # + 0.0 turns the -0.0 of a real family into 0.0
        margins = {branch: float(np.min(_cone_form(grid, kappa, a, alpha, beta, branch, psi))) + 0.0
                   for branch in (+1, -1)}
        margin = min(margins.values())
        out.append({"margin": margin, "branch_margins": margins, "passed": margin >= -1e-8})
    return out


def cone_condition(grid: GridSpec, kappa: float, a: int, alpha: float, beta: float,
                   n_states: int = 200, seed: int = 0) -> dict:
    """min over a seeded Gaussian family of Re<psi, K psi>, per +- branch.

    PASS iff both branch margins are >= -1e-8.  The family varies center
    and width only, so its states are real, and Re<psi, K psi> is exactly 0
    for a real state and any real kernel K/i: the margin reads 0.0 whatever
    alpha, beta and kappa, and its PASS shows nothing.  States displaced by
    e^{i t p0} (the phased family of tests/causality_oracle.py) are not
    real: at kappa = 1 on the n = 256 suite grid their margins are -3e4 to
    -1e5, depending on the seed, for every beta in [-1, 1], so the form
    fails even at beta = 0.
    """
    return cone_sweep(grid, kappa, a, alpha, (beta,), n_states, seed)[0]


def sll_margin(psi1, psi2, grid: GridSpec, kappa: float) -> float:
    """(<psi2|x0 psi2> - <psi1|x0 psi1>) - |<psi2|x1 psi2> - <psi1|x1 psi1>|, branch a = 1."""
    check_normalized(psi1, grid)
    check_normalized(psi2, grid)
    ops = build_operators(grid, kappa)
    dx0 = np.real(expectation(ops["X0"], psi2, grid) - expectation(ops["X0"], psi1, grid))
    dx1 = np.real(expectation(ops["X1"], psi2, grid) - expectation(ops["X1"], psi1, grid))
    return float(dx0 - abs(dx1))
