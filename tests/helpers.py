"""Shared constructions for the test suite.

The two-level operators are rebuilt here from their defining formulas,
independently of the package, so tests compare two separately written
routes. Random valid frames are direct sums of 2x2 angle blocks (plus a
1x1 identity block for odd dimensions) conjugated by a random real
orthogonal matrix, which preserves every frame axiom. The one-point RK4
loop is kept as the reference the stacked integrator must reproduce bit
for bit.
"""

import logging
import math

import numpy as np

from ptdyn import linalg
from ptdyn.dynamics import STEP_NORM_WARN, SUBSTEP_DENSITY, Equation, IntegrationAbort

reference_logger = logging.getLogger("rk4_reference")


def two_level_matrices(s: float, a: float):
    """H, C, P of the 2x2 model, straight from the defining formulas."""
    H = np.array([[s * np.exp(1j * a), s], [s, s * np.exp(-1j * a)]], dtype=complex)
    C = (1.0 / np.cos(a)) * np.array(
        [[1j * np.sin(a), 1.0], [1.0, -1j * np.sin(a)]], dtype=complex
    )
    P = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return H, C, P


def random_orthogonal(rng, dim: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.normal(size=(dim, dim)))
    return Q * np.sign(np.diag(R))


def random_frame_matrices(rng, dim: int):
    """(C, P, K) of a random valid frame of the given dimension."""
    blocks_c, blocks_p = [], []
    remaining = dim
    while remaining >= 2:
        a = rng.uniform(-1.0, 1.0) * (np.pi / 3) * 0.98
        _, C2, P2 = two_level_matrices(1.0, a)
        blocks_c.append(C2)
        blocks_p.append(P2)
        remaining -= 2
    if remaining == 1:
        blocks_c.append(np.eye(1, dtype=complex))
        blocks_p.append(np.eye(1, dtype=complex))

    def direct_sum(blocks):
        total = sum(b.shape[0] for b in blocks)
        M = np.zeros((total, total), dtype=complex)
        off = 0
        for b in blocks:
            n = b.shape[0]
            M[off:off + n, off:off + n] = b
            off += n
        return M

    C = direct_sum(blocks_c)
    P = direct_sum(blocks_p)
    Q = random_orthogonal(rng, dim).astype(complex)
    return Q @ C @ Q.T, Q @ P @ Q.T, np.eye(dim, dtype=complex)


def rotating_hermitian_family(omega: float, dim: int = 2, seed: int = 7):
    """H(t) = R(w t) D R(-w t): constant spectrum, rotating eigenvectors.

    Real symmetric at every t (so PT-symmetric for P = K = I), with a
    genuinely nonzero eigenvector velocity; under a constant metric the
    cross-level solvability condition fails for omega != 0.
    """
    rng = np.random.default_rng(seed)
    D = np.diag(np.arange(dim, dtype=float))
    # random fixed antisymmetric generator for the rotation
    X = rng.normal(size=(dim, dim))
    A = X - X.T

    def H_of_t(t):
        from scipy.linalg import expm
        R = expm(omega * t * A)
        return (R @ D @ R.T).astype(complex)

    def Hdot_of_t(t):
        from scipy.linalg import expm
        R = expm(omega * t * A)
        M = R @ D @ R.T
        G = omega * A
        return (G @ M - M @ G).astype(complex)

    return H_of_t, Hdot_of_t


def reference_generator(problem, t):
    """The generator at one time, evaluated as the one-point integrator did."""
    H = problem.hamiltonian(t)
    if problem.equation is Equation.SCHRODINGER:
        return H
    if problem.equation is Equation.AUGMENTED:
        return H + 1j * problem.correction(t)
    C = problem.frame_family.c_at(t)
    Cdot = problem.frame_family.cdot_at(t)
    return H - 0.5j * problem.hbar * (C @ Cdot)


def reference_rk4_run(problem, y0):
    """Fixed-step RK4 with the generator re-evaluated at every stage.

    A verbatim copy of the one-point loop the stacked integrator replaced;
    returns (values at grid points, substeps per interval).
    """
    hbar = problem.hbar
    grid = problem.grid
    y = y0.astype(complex)
    values = [y]
    substeps_used = []

    def f(t, v):
        return (-1j / hbar) * (reference_generator(problem, t) @ v)

    for k in range(grid.size - 1):
        t0, t1 = grid[k], grid[k + 1]
        dt = t1 - t0
        gnorm = linalg.operator_norm(reference_generator(problem, t0))
        if problem.substeps is not None:
            nsub = problem.substeps
        else:
            nsub = max(1, int(math.ceil(SUBSTEP_DENSITY * gnorm * dt)))
        h = dt / nsub
        if gnorm * h > STEP_NORM_WARN:
            reference_logger.warning(
                "coarse step at t=%g: ||generator||*h = %.3g > %.2g",
                t0, gnorm * h, STEP_NORM_WARN,
            )
        substeps_used.append(nsub)

        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(nsub):
                t = t0 + j * h
                k1 = f(t, y)
                k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
                k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
                k4 = f(t + h, y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise IntegrationAbort(
                f"state became non-finite between t={t0} and t={t1}", last_good_t=t0
            )
        values.append(y)
    return values, substeps_used
