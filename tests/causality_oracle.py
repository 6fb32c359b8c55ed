"""Dense reference for the matrix-free causality model (tests only).

These builders form the operators of `qstkit.causality` as explicit n x n
and 2n x 2n matrices, as the model was first written.  They cost O(n^2)
memory and up to O(n^3) time, so the tests use them for n <= MAX_N only.
"""

import math

import numpy as np

from qstkit import causality as C

MAX_N = 1024


def _small(grid):
    if grid.n > MAX_N:
        raise ValueError(f"the dense oracle is for n <= {MAX_N}")


def derivative_matrix(grid):
    """Antisymmetric derivative matrix d/dp0 (so -i D is Hermitian)."""
    _small(grid)
    n, h = grid.n, grid.h
    if grid.scheme == "central":
        # truncated (Dirichlet) central differences: exactly antisymmetric
        D = np.zeros((n, n))
        for i in range(n - 1):
            D[i, i + 1] = 1.0 / (2 * h)
            D[i + 1, i] = -1.0 / (2 * h)
        return D
    # spectral differentiation via the DFT, Nyquist mode zeroed
    k = 2 * math.pi * np.fft.fftfreq(n, d=h)
    if n % 2 == 0:
        k[n // 2] = 0.0
    F = np.fft.fft(np.eye(n), axis=0)
    return np.real(np.fft.ifft(1j * k[:, None] * F, axis=0))


def build_operators(grid, kappa, a=1):
    """x0 = -i D (Hermitian on the grid) and x1 = a diag(e^{-p0/kappa}) as matrices."""
    if a not in (1, -1):
        raise ValueError("only the a = +/-1 representation branches are implemented")
    grid.validate_kappa(kappa)
    p = grid.points()
    D = derivative_matrix(grid)
    return {"X0": -1j * D, "X1": a * np.diag(np.exp(-p / kappa)), "p": p, "D": D}


def expectation(op, psi, grid):
    return complex(np.vdot(psi, op @ psi) * grid.h)


def dirac_operator(grid, kappa, a=1):
    """D = [[0, X-],[X+, 0]] with X0 = i kappa(1 - e^{-p0/kappa}), X1 = J d/dp0 + J'/2."""
    ops = build_operators(grid, kappa, a)
    p, D = ops["p"], ops["D"]
    n = grid.n
    X0 = 1j * kappa * np.diag(1.0 - np.exp(-p / kappa))
    J = -(kappa / a) * np.exp(p / kappa)
    X1 = np.diag(J) @ D + 0.5 * np.diag(J / kappa)  # J' = J/kappa
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, n:] = X0 - X1
    out[n:, :n] = X0 + X1
    return out


def gaussian_state(grid, center, width, phase_t=0.0):
    """One normalized Gaussian from Python-float parameters, as the model first built it."""
    p = grid.points()
    psi = np.exp(-((p - center) ** 2) / (4 * width ** 2)).astype(complex)
    if phase_t:
        psi = psi * np.exp(1j * phase_t * p)
    return psi / math.sqrt(float(np.sum(np.abs(psi) ** 2) * grid.h))


def axiom_family(grid, seed=0):
    """The 8 states `lorentzian_axiom_check` draws from `seed`, one at a time."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(8):
        c = rng.uniform(-grid.window / 4, grid.window / 4)
        w = rng.uniform(0.5, 1.0)
        states.append(gaussian_state(grid, c, w))
    return states


def cone_family(grid, n_states=200, seed=0, phases=False):
    """The (n, n_states) family `cone_condition` draws from `seed`, one state at a time."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n_states):
        c = rng.uniform(-grid.window / 2, grid.window / 2)
        w = rng.uniform(0.5, 2.0)
        t = rng.uniform(-2.0, 2.0) if phases else 0.0
        states.append(gaussian_state(grid, c, w, t))
    return np.column_stack(states)


def krein_residual(grid, kappa, a=1, state_family=None, seed=0):
    """max over e_s x psi of ||(D^dag I + I D)(e_s x psi)|| sqrt(h), with the family
    `lorentzian_axiom_check` draws from `seed` when none is given."""
    Dop = dirac_operator(grid, kappa, a)
    I_big = np.kron(1j * C.GAMMA0, np.eye(grid.n))
    if state_family is None:
        state_family = axiom_family(grid, seed)
    big = np.column_stack([np.kron(spinor, psi) for psi in state_family
                           for spinor in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))])
    res = Dop.conj().T @ (I_big @ big) + I_big @ (Dop @ big)
    return float(np.max(np.linalg.norm(res, axis=0))) * math.sqrt(grid.h)


def cone_kernel(grid, kappa, a, alpha, beta, branch):
    """K_ij = i(1 - e^{-(p_j - p_i)/kappa})(alpha(p_j - p_i) + beta a e^{-p_i/kappa} +- beta)."""
    _small(grid)
    p = grid.points()
    u = p[None, :] - p[:, None]
    return 1j * (1.0 - np.exp(-u / kappa)) * (
        alpha * u + beta * a * np.exp(-p[:, None] / kappa) + branch * beta
    )


def cone_branch_margins(grid, kappa, a, alpha, beta, n_states=200, seed=0, phases=False):
    """{+1, -1} -> min Re<psi, K psi> h^2 over the family `cone_condition` draws."""
    psi = cone_family(grid, n_states, seed, phases)
    out = {}
    for branch in (+1, -1):
        K = cone_kernel(grid, kappa, a, alpha, beta, branch)
        out[branch] = float(np.min(np.real(np.sum(psi.conj() * (K @ psi), axis=0)))) * grid.h ** 2
    return out
