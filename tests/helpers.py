"""Shared constructions for the test suite.

The two-level operators and their closed-form eigendata are rebuilt here
from their defining formulas, independently of the package, so tests compare
two separately written routes. Random valid frames are direct sums of 2x2 angle blocks (plus a
1x1 identity block for odd dimensions) conjugated by a random real
orthogonal matrix, which preserves every frame axiom. The one-point RK4
loop, eigensolver, eigenframe loop, operator-phase loop and derivative
stencil are kept as the references the stacked code must reproduce (bit for
bit, except the operator phase, to 1e-12).
"""

import logging
import math

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import linear_sum_assignment

from ptdyn import linalg
from ptdyn.adiabatic import BrokenSymmetryError, EigenFrame, LevelTrackingError
from ptdyn.dynamics import (MAX_SUBSTEPS, STEP_NORM_WARN, SUBSTEP_DENSITY, Equation,
                             IntegrationAbort)
from ptdyn.frames import FrameFamily, SymmetryReport
from ptdyn.linalg import AntilinearOperator, ConvergenceError, OperatorFamily, as_operator

reference_logger = logging.getLogger("rk4_reference")


def two_level_matrices(s: float, a: float):
    """H, C, P of the 2x2 model, straight from the defining formulas."""
    H = np.array([[s * np.exp(1j * a), s], [s, s * np.exp(-1j * a)]], dtype=complex)
    C = (1.0 / np.cos(a)) * np.array(
        [[1j * np.sin(a), 1.0], [1.0, -1j * np.sin(a)]], dtype=complex
    )
    P = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return H, C, P


def two_level_energies(s: float, a: float) -> np.ndarray:
    """Eigenvalues of the two-level H, ascending for s > 0: (0, 2 s cos a)."""
    return np.array([0.0, 2.0 * s * math.cos(a)])


def two_level_eigenvector(level: int, a: float, metric: bool = True) -> np.ndarray:
    """Eigenvector of the two-level H for eigenvalue :func:`two_level_energies`[level].

    The unit-2-norm form is (1/sqrt 2)(e^{-+ i a/2}, -+ e^{+- i a/2}); its
    squared frame norm is cos a, so ``metric`` divides by sqrt(cos a) to make
    the pair orthonormal in the frame inner product.
    """
    e = np.exp(0.5j * a)
    v = np.array([np.conj(e), -e] if level == 0 else [e, np.conj(e)]) / math.sqrt(2.0)
    return v / math.sqrt(math.cos(a)) if metric else v


def two_level_bound_oracle(alpha_start: float, alpha_stop: float, nodes: int = 20) -> float:
    """The adiabatic bound V of level 0 of the two-level model, for a monotone alpha(t)
    from ``alpha_start`` to ``alpha_stop``, by a ``nodes``-point Gauss-Legendre rule in alpha.

    PC, C, dC/dalpha and the frame-normalised eigenvector v depend on t only through
    alpha, so V = int g(alpha) |dalpha|, whatever s, the duration or the grid, with
    g = sqrt(lambda_max(PC)) (||dv_PT|| + 1/2 ||C dC v||). dv_PT = dv - i Im<v|PC dv> v
    is the parallel-transport derivative, lambda_max(PC) = (1 + |sin a|)/cos a, and
    dC/dalpha = tan(a) C + i diag(1, -1); every derivative is taken in closed form.
    """
    def g(a):
        _, C, P = two_level_matrices(1.0, a)
        v = two_level_eigenvector(0, a)
        half = np.exp(0.5j * a)
        du = -0.5j * np.array([np.conj(half), half]) / math.sqrt(2.0)  # d/da of the unit-norm form
        dv = 0.5 * math.tan(a) * v + du / math.sqrt(math.cos(a))
        dv_pt = dv - 1j * np.vdot(v, P @ C @ dv).imag * v
        dC = math.tan(a) * C + 1j * np.diag([1.0, -1.0])
        drag = 0.5 * np.linalg.norm(C @ dC @ v)
        return math.sqrt((1.0 + abs(math.sin(a))) / math.cos(a)) * (np.linalg.norm(dv_pt) + drag)

    x, w = np.polynomial.legendre.leggauss(nodes)
    mid, half_width = 0.5 * (alpha_start + alpha_stop), 0.5 * abs(alpha_stop - alpha_start)
    return float(sum(wk * g(mid + half_width * xk) for xk, wk in zip(x, w)) * half_width)


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

    C = direct_sum(blocks_c)
    P = direct_sum(blocks_p)
    Q = random_orthogonal(rng, dim).astype(complex)
    return Q @ C @ Q.T, Q @ P @ Q.T, np.eye(dim, dtype=complex)


def unbroken_model_matrices(rng, dim: int):
    """(H, C, P, K): a random frame as in :func:`random_frame_matrices`, and an H that is
    PT-symmetric, metric-Hermitian and unbroken with a spectrum of distinct levels.

    H is the two-level Hamiltonian of each block's angle (strength in [0.5, 1.5],
    shifted by 4 per block), conjugated by the frame's orthogonal matrix.
    """
    blocks_h, blocks_c, blocks_p = [], [], []
    for j in range(dim // 2):
        a = rng.uniform(-1.0, 1.0) * (np.pi / 3) * 0.98
        H2, C2, P2 = two_level_matrices(rng.uniform(0.5, 1.5), a)
        blocks_h.append(H2 + 4.0 * j * np.eye(2))
        blocks_c.append(C2)
        blocks_p.append(P2)
    if dim % 2:
        blocks_h.append(np.full((1, 1), -4.0, dtype=complex))
        blocks_c.append(np.eye(1, dtype=complex))
        blocks_p.append(np.eye(1, dtype=complex))
    Q = random_orthogonal(rng, dim).astype(complex)
    H, C, P = (Q @ direct_sum(b) @ Q.T for b in (blocks_h, blocks_c, blocks_p))
    return H, C, P, np.eye(dim, dtype=complex)


def direct_sum(blocks):
    """Block-diagonal complex matrix of square ``blocks``."""
    total = sum(b.shape[0] for b in blocks)
    M = np.zeros((total, total), dtype=complex)
    off = 0
    for b in blocks:
        n = b.shape[0]
        M[off:off + n, off:off + n] = b
        off += n
    return M


def jumping_block_model(seed: int, dim: int):
    """(H family, frame family) on [0, 1] whose 2x2 frame angles swing in one grid step.

    C(t) = Q diag(C2(alpha_i(t))) Q^T (plus a 1x1 identity block for odd
    dimensions), each alpha_i moving linearly between two draws in
    +-0.98 pi/3, and H(t) = C(t) P S with S random Hermitian, so H(t) is
    metric-Hermitian with real spectrum. On the two-point grid [0, 1] the
    metric can change by more than the eigenframe's label matching resolves.
    """
    rng = np.random.default_rng(seed)
    start, stop = (rng.uniform(-1.0, 1.0, dim // 2) * (np.pi / 3) * 0.98 for _ in range(2))
    Q = random_orthogonal(rng, dim).astype(complex)
    Y = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    odd = [np.eye(1, dtype=complex)] * (dim % 2)
    P = Q @ direct_sum([two_level_matrices(1.0, 0.0)[2]] * (dim // 2) + odd) @ Q.T
    PS = P @ (Y + Y.conj().T)

    def c_of_t(t):
        blocks = [two_level_matrices(1.0, a)[1] for a in start + t * (stop - start)]
        return Q @ direct_sum(blocks + odd) @ Q.T

    family = FrameFamily(OperatorFamily(0.0, 1.0, c_of_t), P,
                         AntilinearOperator.conjugation(dim))
    return OperatorFamily(0.0, 1.0, lambda t: c_of_t(t) @ PS), family


def rotating_frame_model(seed: int, dim: int, omega: float = 1.0, analytic: bool = False):
    """(H family, frame family) on [0, 1] of a random frame turned by a rotation commuting with P.

    C(t) = R C0 R^T and H(t) = R C0 P S0 R^T with R = exp(omega t A), A real
    antisymmetric and AP = PA, and S0 random Hermitian. Every C(t) is a
    valid frame, and H(t) is metric-Hermitian with the fixed real spectrum
    of C0 P S0 and eigenvectors that turn with R. With ``analytic`` the C
    family has its derivative omega (A C - C A); else dC/dt is differenced.
    """
    from scipy.linalg import expm

    rng = np.random.default_rng(seed)
    C0, P, K = random_frame_matrices(rng, dim)
    X = rng.normal(size=(dim, dim))
    A = X - X.T
    A = A + P.real @ A @ P.real
    Y = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    H0 = C0 @ P @ (Y + Y.conj().T)

    def turned(M):
        def evaluate(t):
            R = expm(omega * t * A)
            return R @ M @ R.T
        return evaluate

    c_of_t = turned(C0)
    c_dot = (lambda t: omega * (A @ c_of_t(t) - c_of_t(t) @ A)) if analytic else None
    family = FrameFamily(OperatorFamily(0.0, 1.0, c_of_t, c_dot), P, AntilinearOperator(K))
    return OperatorFamily(0.0, 1.0, turned(H0)), family


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def rotating_drive_oracle(omega: float, delta: float = 1.0, g: float = 0.6, alpha: float = 0.4,
                          t_end: float = 10.0):
    """A rotating drive under a constant frame, with its closed-form state and fidelity loss.

    The frame is the two-level C(alpha) with P = sigma_x and T = conjugation, and
    rho = (PC)^(1/2), from eigh, maps it to the Hermitian picture. There the drive is
    h(t) = (delta/2) sigma_z + (g/2)(cos(wt) sigma_x + sin(wt) sigma_y), and
    H(t) = rho^-1 h(t) rho is a vectorized family on [0, t_end]. With C constant the compensated
    equation is the Schrodinger equation, and in the frame turning with e^{-i w t sigma_z/2}
    the drive is the constant h_R = ((delta - w)/2) sigma_z + (g/2) sigma_x, so at hbar = 1

        psi(t) = rho^-1 e^{-i w t sigma_z/2} e^{-i h_R t} rho psi(0),

    and the loss against level 0 is 1 - |<u_0(t)|rho psi(t)>|, u_0(t) the lower eigenvector
    of h(t). Returns (H family, frame family, state, loss): state(times, psi0) is the (n, 2)
    exact trajectory from psi0, and loss(times, psi0) its loss.
    """
    _, C, P = two_level_matrices(1.0, alpha)
    w, V = np.linalg.eigh(P @ C)
    rho, rho_inv = (V * np.sqrt(w)) @ V.conj().T, (V / np.sqrt(w)) @ V.conj().T

    def h(t):
        wt = omega * np.asarray(t, dtype=float)[..., None, None]
        return 0.5 * delta * SIGMA_Z + 0.5 * g * (np.cos(wt) * SIGMA_X + np.sin(wt) * SIGMA_Y)

    hamiltonian = OperatorFamily(0.0, t_end, lambda t: rho_inv @ h(t) @ rho, vectorized=True)
    frame = FrameFamily(OperatorFamily.constant(C), P, AntilinearOperator.conjugation(2))
    e, U = np.linalg.eigh(0.5 * (delta - omega) * SIGMA_Z + 0.5 * g * SIGMA_X)  # h_R

    def state(times, psi0):
        times = np.asarray(times, dtype=float)
        chi = (np.exp(-1j * np.outer(times, e)) * (U.conj().T @ rho @ psi0)) @ U.T
        return (chi * np.exp(-0.5j * omega * np.outer(times, [1.0, -1.0]))) @ rho_inv.T

    def loss(times, psi0):
        u0 = np.linalg.eigh(h(times))[1][..., 0]
        return 1.0 - np.abs(np.vecdot(u0, state(times, psi0) @ rho.T))

    return hamiltonian, frame, state, loss


def same_bits(a, b) -> bool:
    """Whether two arrays hold the same floats bit for bit (signed zeros included)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


# A matrix whose [-1, 0] entry equals one of these marks makes scripted_eig
# return wrong eigenvectors (so the residual check fails) or raise as LAPACK
# does when it does not converge.
RESIDUAL_MARK = 0.125
LAPACK_MARK = 0.375


def scripted_eig(real_eig):
    """A stand-in for np.linalg.eig that fails on marked matrices, one matrix or a stack."""
    def eig(X):
        X = np.asarray(X)
        if np.any(X[..., -1, 0] == LAPACK_MARK):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        w, v = real_eig(X)
        wrong = (X[..., -1, 0] == RESIDUAL_MARK)[..., None, None]
        return w, np.where(wrong, v[..., ::-1], v)
    return eig


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
    C = problem.frame_family.c_family(t)
    Cdot, _ = reference_derivative_stencil(problem.frame_family.c_family, t)
    return H - 0.5j * problem.hbar * (C @ Cdot)


def reference_derivative_stencil(F, t):
    """The one-point derivative of an operator family: (value, whether one-sided).

    A copy of the stencil the stacked ``family_derivatives`` replaced, at its
    step h = 1e-5 * max(1, |t|).
    """
    if F.derivative is not None:
        return as_operator(F.derivative(t), f"family derivative at t={t}"), False
    h = 1e-5 * max(1.0, abs(t))
    lo, hi = F.t_start, F.t_end
    if t - h >= lo and t + h <= hi:
        return (F(t + h) - F(t - h)) / (2.0 * h), False
    if t + 2 * h <= hi:
        return (-3.0 * F(t) + 4.0 * F(t + h) - F(t + 2 * h)) / (2.0 * h), True
    if t - 2 * h >= lo:
        return (3.0 * F(t) - 4.0 * F(t - h) + F(t - 2 * h)) / (2.0 * h), True
    raise ValueError(f"domain [{lo}, {hi}] too small for step h={h} at t={t}")


def pair_product(g, v) -> np.ndarray:
    """A 2x2 matrix times a 2-vector as the integrator defines the product:
    p = g00*v0 + g01*v1, q = g10*v0 + g11*v1 in Python complex arithmetic,
    each product and sum rounded on its own."""
    (g00, g01), (g10, g11) = np.asarray(g, dtype=complex).tolist()
    v0, v1 = np.asarray(v, dtype=complex).tolist()
    return np.array([g00 * v0 + g01 * v1, g10 * v0 + g11 * v1])


def reference_rk4_run(problem, y0):
    """Fixed-step RK4 with the generator re-evaluated at every stage.

    A copy of the one-point loop the stacked integrator replaced, with its
    automatic count and coarse-step warning scaled by 1/hbar and the count
    capped at ``MAX_SUBSTEPS``, and a 2-vector's products taken by :func:`pair_product`;
    returns (values at grid points, substeps per interval).
    Substep j of an interval [t0, t1] split n ways starts at t0 + j*h and ends
    where substep j + 1 starts, at t0 + (j + 1)*h, or at t1 for the last one.
    """
    hbar = problem.hbar
    grid = problem.grid
    y = y0.astype(complex)
    values = [y]
    substeps_used = []

    def f(t, v):
        G = reference_generator(problem, t)
        return (-1j / hbar) * (pair_product(G, v) if v.shape == (2,) else G @ v)

    for k in range(grid.size - 1):
        t0, t1 = grid[k], grid[k + 1]
        dt = t1 - t0
        gnorm = linalg.operator_norm(reference_generator(problem, t0))
        if problem.substeps is not None:
            nsub = problem.substeps
        else:
            count = np.ceil(SUBSTEP_DENSITY * gnorm * dt / hbar)
            if not count <= MAX_SUBSTEPS:
                raise IntegrationAbort(f"substep count {count:.3g} exceeds {MAX_SUBSTEPS:.0e} "
                                       f"between t={t0} and t={t1}", last_good_t=t0)
            nsub = max(1, int(count))
        h = dt / nsub
        if gnorm * h / hbar > STEP_NORM_WARN:
            reference_logger.warning(
                "coarse step at t=%g: ||generator||*h/hbar = %.3g > %.2g",
                t0, gnorm * h / hbar, STEP_NORM_WARN,
            )
        substeps_used.append(nsub)

        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(nsub):
                t = t0 + j * h
                end = t0 + (j + 1) * h if j + 1 < nsub else t1
                k1 = f(t, y)
                k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
                k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
                k4 = f(end, y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise IntegrationAbort(
                f"state became non-finite between t={t0} and t={t1}", last_good_t=t0
            )
        values.append(y)
    return values, substeps_used


def _reference_eigenpairs_2x2(M):
    """Closed-form eigenpairs of a 2x2 matrix via the quadratic formula, on M scaled by the
    power of two 2**-e that brings its largest real or imaginary part into [1/2, 1)."""
    if M[0, 1] == 0 and M[1, 0] == 0:
        return np.array([M[0, 0], M[1, 1]]), np.eye(2, dtype=complex)
    e = int(np.frexp(np.abs(M.view(float)).max())[1])
    a, b, c, d = (_reference_ldexp(z, -e) for z in M.ravel())
    mean = 0.5 * (a + d)
    disc = np.sqrt(0.25 * (a - d) ** 2 + b * c + 0j)
    lams = np.array([mean - disc, mean + disc])
    vecs = np.empty((2, 2), dtype=complex)
    for i, lam in enumerate(lams):
        # Two candidate null vectors of (M - lam I); take the better conditioned.
        cand1 = np.array([b, lam - a])
        cand2 = np.array([lam - d, c])
        cand = cand1 if np.linalg.norm(cand1) >= np.linalg.norm(cand2) else cand2
        vecs[:, i] = cand / np.linalg.norm(cand)
    with np.errstate(over="ignore"):  # an eigenvalue past the largest float is inf
        return np.array([_reference_ldexp(z, e) for z in lams]), vecs


def _reference_ldexp(z, e):
    return np.complex128(complex(np.ldexp(z.real, e), np.ldexp(z.imag, e)))


def _reference_phase_gauge(v):
    """Rotate so the first largest-modulus component is real and positive."""
    i = int(np.argmax(np.abs(v)))
    pivot = v[i]
    if pivot == 0.0:
        return v
    return v * (np.conj(pivot) / abs(pivot))


def reference_eigenpairs(M, tol=linalg.DEFAULT_EIGEN_TOL):
    """The one-point eigensolver, a verbatim copy of the code the stacked kernel replaced."""
    A = as_operator(M)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if A.shape[0] == 2:
        lams, vecs = _reference_eigenpairs_2x2(A)
    else:
        try:
            lams, vecs = np.linalg.eig(A)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"eigendecomposition failed for matrix:\n{A}") from exc

    order = np.lexsort((lams.imag, lams.real))
    scale = linalg.operator_norm(A)
    out = []
    for idx in order:
        lam = complex(lams[idx])
        v = vecs[:, idx]
        v = _reference_phase_gauge(v / np.linalg.norm(v))
        resid = float(np.linalg.norm(A @ v - lam * v))
        if not resid <= tol * max(scale, 1e-300):  # a NaN residual fails
            raise ConvergenceError(
                f"eigenpair residual {resid:.3e} exceeds {tol:.1e}*||M|| for matrix:\n{A}"
            )
        out.append((lam, v))
    return out


def _reference_norm(A) -> float:
    return float(np.linalg.norm(A, 2))


def reference_frame_residuals(C, P, K):
    """The residuals :func:`validate_frames` records, one ``np.linalg.norm(A, 2)`` per matrix."""
    eye = np.eye(P.shape[0])
    metric = P @ C
    metric_h = metric.conj().T
    return {
        "P^2 = I": _reference_norm(P @ P - eye),
        "T^2 = I": _reference_norm(K @ np.conj(K) - eye),
        "PT = TP": _reference_norm(P @ K - K @ np.conj(P)),
        "C^2 = I": _reference_norm(C @ C - eye),
        "CPT = TPC": _reference_norm(C @ P @ K - K @ np.conj(P) @ np.conj(C)),
        "metric Hermitian": _reference_norm(metric - metric_h),
        "metric min eigenvalue": float(np.linalg.eigvalsh(0.5 * (metric + metric_h))[0]),
    }


def reference_symmetry_report(frame, H, tol):
    """The one-point symmetry classification, one ``np.linalg.norm(A, 2)`` per matrix, with
    :func:`reference_eigenpairs` and the eigenvalue clusters' PT-invariance tested per vector."""
    H = as_operator(H)
    pt_map = frame.p @ frame.t.conj_matrix
    metric = frame.metric
    nH = _reference_norm(H)
    pt_residual = _reference_norm(H @ pt_map - pt_map @ np.conj(H))
    cpt_residual = _reference_norm(H.conj().T @ metric - metric @ H)
    vec_tol = tol * max(1.0, _reference_norm(pt_map))
    pairs = reference_eigenpairs(H, tol=max(tol, linalg.DEFAULT_EIGEN_TOL))
    lams = np.array([lam for lam, _ in pairs])
    pt_symmetric = pt_residual <= tol * max(nH, 1e-300)
    unbroken = pt_symmetric
    # clusters: runs of eigenvalues each within tol*max(||H||, 1) of the one before
    start = 0
    for i in range(1, len(pairs) + 1):
        if i < len(pairs) and abs(lams[i] - lams[i - 1]) <= tol * max(nH, 1.0):
            continue
        vecs = np.array([v for _, v in pairs[start:i]])
        if i - start == 1:
            image = pt_map @ np.conj(vecs[0])
            mu = np.vdot(vecs[0], image)
            if np.linalg.norm(image - mu * vecs[0]) > vec_tol or abs(abs(mu) - 1.0) > tol * 10:
                unbroken = False
        else:
            Q, _ = np.linalg.qr(vecs.T)
            for q in Q.T:
                w = pt_map @ np.conj(q)
                if np.linalg.norm(w - Q @ Q.conj().T @ w) > vec_tol:
                    unbroken = False
        start = i
    return SymmetryReport(
        pt_symmetric=pt_symmetric,
        cpt_hermitian=cpt_residual <= tol * max(nH * _reference_norm(metric), 1e-300),
        unbroken=unbroken,
        eigen_realness=float(np.abs(lams.imag).max()),
        pt_residual=pt_residual,
        cpt_residual=cpt_residual,
    )


def best_overlap_match(overlap, threshold):
    """Each label's new eigenvector of largest |overlap| (columns are labels), and which
    labels are lost: their best overlap is below ``threshold`` or another label shares it."""
    perm = np.argmax(overlap, axis=0)
    chosen = overlap[perm, np.arange(perm.size)]
    return perm, (chosen < threshold) | (np.bincount(perm, minlength=perm.size)[perm] > 1)


def assignment_match(overlap, threshold):
    """The maximum-overlap assignment, the matching rule before :func:`best_overlap_match`;
    a label is lost when its assigned overlap is below ``threshold``."""
    rows, cols = linear_sum_assignment(-overlap)
    perm = np.empty(overlap.shape[1], dtype=int)
    for i, j in zip(rows, cols):
        perm[j] = i
    return perm, overlap[perm, np.arange(perm.size)] < threshold


def reference_build_eigenframe(hamiltonian, frame_family, grid, realness_tol=1e-10,
                               ortho_tol=1e-10, overlap_threshold=0.9, match=best_overlap_match):
    """The eigenframe one grid point at a time, with the label matching rule ``match``
    (``assignment_match`` gives the old rule): labels matched on the raw eigenvectors'
    overlap moduli, and each label's phase the running sum of its raw overlaps' arguments."""
    fg = frame_family.on_grid(grid)
    grid = fg.times
    n_t = grid.size
    dim = frame_family.dim
    energies = np.empty((n_t, dim))
    states = np.empty((n_t, dim, dim), dtype=complex)
    min_overlap = 1.0

    for k, t in enumerate(grid):
        H = hamiltonian(t)
        metric = fg.metric[k]
        try:
            pairs = reference_eigenpairs(H)
        except ConvergenceError as exc:
            raise ConvergenceError(f"eigenframe at t={t}: {exc}", k) from exc
        scale = max(1.0, linalg.operator_norm(H))
        lams = np.array([lam for lam, _ in pairs])
        if np.max(np.abs(lams.imag)) > realness_tol * scale:
            raise BrokenSymmetryError(
                f"broken PT symmetry at t={t}: eigenvalue {lams[np.argmax(np.abs(lams.imag))]} "
                f"has |Im| > {realness_tol:.1e}*scale"
            )
        vecs = np.array([v for _, v in pairs])  # rows are eigenvectors
        # unit frame norm (the metric is positive definite, so this is always defined)
        for n in range(dim):
            nrm2 = np.vdot(vecs[n], metric @ vecs[n]).real
            vecs[n] = vecs[n] / np.sqrt(nrm2)

        if k == 0:
            energies[0] = lams.real
            states[0] = vecs
            perm, theta = np.arange(dim), np.zeros(dim)
        else:
            # overlap[i, j] = (new_i | raw vector of label j at t_{k-1}) at the current time
            overlap = np.array([[np.vdot(v, metric @ p) for p in prev] for v in vecs])
            perm, lost = match(np.abs(overlap), overlap_threshold)  # perm[label] = new index
            chosen = np.abs(overlap[perm, np.arange(dim)])
            min_overlap = min(min_overlap, float(chosen.min()))
            if np.any(lost):
                low = chosen < overlap_threshold
                bad, twins = np.nonzero(low)[0].tolist(), np.nonzero(lost & ~low)[0].tolist()
                reasons = []
                if bad:
                    reasons.append(f"levels {bad} have overlap {chosen[bad]} < {overlap_threshold}")
                if twins:
                    reasons.append(f"levels {twins} share an eigenvector with another level")
                raise LevelTrackingError(
                    f"level continuity lost between t={grid[k-1]} and t={t}: " + "; ".join(reasons)
                )
            # each label's phase turns by the argument of its raw overlap
            theta = theta + np.angle(overlap[perm, np.arange(dim)])
            states[k] = vecs[perm] * np.exp(1j * theta)[:, None]
            energies[k] = lams.real[perm]
        prev = vecs[perm]

        gram = np.array([[np.vdot(u, metric @ v) for v in states[k]] for u in states[k]])
        ortho_resid = float(np.max(np.abs(gram - np.eye(dim))))
        if ortho_resid > ortho_tol:
            raise LevelTrackingError(
                f"eigenvectors at t={t} are not orthonormal in the frame inner product "
                f"(residual {ortho_resid:.3e}); levels may be colliding"
            )

    return EigenFrame(
        times=grid,
        energies=energies,
        states=states,
        metrics=fg.metric,
        diagnostics={"min_overlap": min_overlap},
    )


def reference_operator_phase(hamiltonian, frame_family, eframe, level, hbar=1.0):
    """The one-point operator-phase loop the stacked version replaced."""
    n_t = eframe.times.size
    dim = eframe.dim
    eye = np.eye(dim)
    fg = frame_family.on_grid(eframe.times)
    integrand = np.empty((n_t, dim, dim), dtype=complex)
    hams = []
    for k, t in enumerate(eframe.times):
        H = hamiltonian(t)
        hams.append(H)
        integrand[k] = (H - eframe.energies[k, level] * eye) / hbar + 0.5j * (fg.c[k] @ fg.cdot[k])
    A = cumulative_trapezoid(integrand, eframe.times, axis=0, initial=0.0)
    comm = np.array([
        linalg.operator_norm(A[k] @ hams[k] - hams[k] @ A[k]) for k in range(n_t)
    ])
    return A, comm
