"""Instantaneous eigenframes and the adiabatic approximation bound.

An eigenframe tracks the spectral data of H(t) over a time grid: real
eigenvalues, eigenvectors normalized to unit frame norm, each label
continued by the new eigenvector of largest overlap with it, and phases
chosen for continuity. On top of it sit the dynamical phase of a level, the
cross-level coupling residual that controls exact solvability, the
operator-valued phase with its commutator diagnostic, the adiabatic bound

    V(T) = int_0^T ||(PC)^(1/2)|| (||dpsi_m/dt|| + 1/2 ||C Cdot psi_m||) dt,

and the fidelity loss 1 - |(psi_m(t)|phi(t))_t| of an integrated state
against the tracked level. When V(T) < eps the loss stays below eps.

All time integrals are composite trapezoid on the grid; eigenvector time
derivatives are second-order finite differences on the same grid.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linalg
from .dynamics import Trajectory
from .frames import FrameFamily
from .linalg import OperatorFamily

__all__ = [
    "BrokenSymmetryError",
    "LevelTrackingError",
    "EigenFrame",
    "AdiabaticReport",
    "build_eigenframe",
    "dynamical_phase",
    "level_coupling_residual",
    "operator_phase",
    "adiabatic_bound",
    "adiabatic_bound_profile",
    "fidelity_loss",
    "gauge_fix",
    "build_report",
]

logger = logging.getLogger(__name__)

DEFAULT_REALNESS_TOL = 1e-10
DEFAULT_ORTHO_TOL = 1e-10
OVERLAP_THRESHOLD = 0.9


class BrokenSymmetryError(ValueError):
    """An eigenvalue acquired an imaginary part beyond tolerance."""


class LevelTrackingError(RuntimeError):
    """Level labels could not be continued between adjacent grid points."""


@dataclass(frozen=True)
class EigenFrame:
    """Tracked spectral data of an operator family on a time grid.

    ``states[k, n]`` is the n-th eigenvector at ``times[k]``, unit-normalized
    and orthogonal in the frame inner product at that time. It is the raw
    eigenvector times e^{i theta}, theta the running sum of the arguments of
    the level's raw overlaps with its previous point, so its overlap with
    ``states[k - 1, n]`` is real positive. ``metrics`` is the frame grid's
    read-only PC(t_k) stack, shared, not copied.
    """

    times: np.ndarray     # (n_t,)
    energies: np.ndarray  # (n_t, dim) real
    states: np.ndarray    # (n_t, dim, dim) complex
    metrics: np.ndarray   # (n_t, dim, dim) complex
    diagnostics: dict = field(repr=False, default_factory=dict)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def state_derivatives(self, level: int) -> np.ndarray:
        """d/dt of the tracked level's eigenvector, second-order differences."""
        order = 2 if self.times.size >= 3 else 1
        return np.gradient(self.states[:, level, :], self.times, axis=0, edge_order=order)


def build_eigenframe(
    hamiltonian: OperatorFamily,
    frame_family: FrameFamily,
    grid,
    realness_tol: float = DEFAULT_REALNESS_TOL,
    *, _scan=None,
) -> EigenFrame:
    """Track the instantaneous eigenframe of H(t) along the grid.

    At each point the eigenpairs are computed, checked for real eigenvalues
    (a complex one beyond ``realness_tol`` means broken PT symmetry at that
    time), rescaled to unit frame norm and matched to the previous point's
    labels by the overlaps r = (v_i(t_k)|v_j(t_{k-1})) of these raw
    eigenvectors. Each label takes the new eigenvector of largest |r|; a
    label whose best overlap is below ``OVERLAP_THRESHOLD`` or that shares
    its pick with another label aborts the run, naming the lost levels
    (level crossings are out of scope and must fail loudly). A successful
    match takes each column's largest overlap, so it is the maximum-overlap
    assignment. Each label's state is its raw eigenvector times e^{i theta},
    with theta = 0 at the first point and theta_k = theta_{k-1} + arg r_k
    for the label's matched overlap r_k, so its overlap with the previous
    state is real positive. Orthonormality of the resulting basis in the
    frame inner product is verified to ``DEFAULT_ORTHO_TOL`` at every point.

    All of it runs in one walk over stacks of grid points
    (``linalg.STACK_ENTRIES`` matrix entries at a time); the label map, the
    last raw point and the phases carry across stacks. A failure raises the
    error of the earliest failing point and, at that point, of the first
    failing step in the order above (evaluating H comes first).

    H is the family's kept grid stack (:meth:`OperatorFamily.on_grid`), cut
    to each stack. If that stack raises a ValueError, H is taken on the
    times before the one its ``index`` names (``linalg._stacks``), and the
    walk raises it there; any other exception propagates at once. ``_scan``,
    the frame grid's symmetry scan of that H stack (``FrameGrid._scan``),
    hands over its eigenpairs: their residuals are checked at the
    eigenframe's tolerance, and no eigenproblem is solved again.
    """
    fg = frame_family.on_grid(grid)
    grid = fg.times
    n_t = grid.size
    dim = frame_family.dim
    # unevaluated: the error of H at grid[len(hams)], when H stops short of the grid
    (hams,), _, _, unevaluated = linalg._stacks(grid, [hamiltonian], on_grid=True)
    hams = hams if len(hams) else np.empty((0, dim, dim), dtype=complex)
    energies = np.empty((n_t, dim))
    states = np.empty((n_t, dim, dim), dtype=complex)
    min_overlap = 1.0
    # at the last point matched: the label -> raw pair index map, the raw pairs, the phases
    labels, last, theta = np.arange(dim), None, np.zeros((1, dim))
    step = max(1, linalg.STACK_ENTRIES // (dim * dim))
    for lo in range(0, n_t, step):
        part = slice(lo, lo + step)
        pairs = None if _scan is None else (_scan.lams[part], _scan.vecs[part], _scan.resid[part])
        lams, vecs, failure = _real_spectra(hams[part], grid[part], lo, realness_tol, pairs)
        if failure is None and len(lams) < len(grid[part]):  # H stops short in this stack
            failure = unevaluated
        # Each check runs on the points before the earliest failure found so
        # far; that failure is raised once the earlier points have passed.
        n = lams.shape[0]
        metrics = fg.metric[lo:lo + n]
        # unit frame norm (the metric is positive definite, so this is always defined)
        nrm2 = np.vecdot(vecs, np.matmul(metrics[:, None], vecs[..., None])[..., 0]).real
        vecs = vecs / np.sqrt(nrm2)[..., None]
        k = 1 if lo == 0 and n else 0  # the first point matched; point 0 has no predecessor
        if k:
            energies[0], states[0] = lams[0].real, vecs[0]
        # overlap[j, i, p]: (raw pair i at point j | raw pair p at the point before)
        prev = np.concatenate((last if lo else vecs[:1], vecs[:-1]))[k:]
        kets = np.matmul(metrics[k:, None], prev[..., None])[..., 0]  # PC(t_j) v_p(t_{j-1})
        overlap = np.vecdot(vecs[k:, :, None], kets[:, None])
        moduli = np.abs(overlap)
        picks = moduli.argmax(axis=1)  # picks[j, p]: the new pair of largest overlap with pair p
        best = np.take_along_axis(moduli, picks[:, None], axis=1)[:, 0]
        lost = (best < OVERLAP_THRESHOLD).any(axis=1)
        lost |= (np.sort(picks, axis=1) != np.arange(dim)).any(axis=1)  # a shared pick
        m = int(np.argmax(np.append(lost, True)))  # points matched before the first lost one
        min_overlap = float(np.fmin.reduce(best[:m].min(axis=1), initial=min_overlap))
        maps = np.empty((m + 1, dim), dtype=int)  # maps[j + 1]: label -> pair index at point k + j
        maps[:] = labels  # a label map changes only where a point's picks do
        for j in np.flatnonzero((picks[:m] != np.arange(dim)).any(axis=1)):
            maps[j + 1:] = picks[j, maps[j]]
        rows = np.arange(m)[:, None]
        energies[lo + k:lo + k + m] = lams.real[k + rows, maps[1:]]
        turns = np.angle(overlap[rows, maps[1:], maps[:-1]])  # arg r of each label's match
        theta = np.cumsum(np.concatenate((theta[-1:], turns)), axis=0)
        states[lo + k:lo + k + m] = vecs[k + rows, maps[1:]] * np.exp(1j * theta[1:])[..., None]
        if k + m < n:
            failure = LevelTrackingError(
                f"level continuity lost between t={grid[lo + k + m - 1]} and t={grid[lo + k + m]}: "
                + _lost_levels(best[m, maps[m]], picks[m, maps[m]]))
            n = k + m
        labels, last = maps[m], vecs[n - 1:n]

        kets = np.matmul(metrics[:n, None], states[lo:lo + n, ..., None])[..., 0]
        gram = np.vecdot(states[lo:lo + n, :, None], kets[:, None]) - np.eye(dim)
        ortho_resid = np.abs(gram).max(axis=(1, 2))
        skewed = np.nonzero(ortho_resid > DEFAULT_ORTHO_TOL)[0]
        if skewed.size:
            k = lo + skewed[0]
            raise LevelTrackingError(
                f"eigenvectors at t={grid[k]} are not orthonormal in the frame inner product "
                f"(residual {ortho_resid[k - lo]:.3e}); levels may be colliding"
            )
        if failure is not None:
            raise failure
    return EigenFrame(
        times=grid,
        energies=energies,
        states=states,
        metrics=fg.metric,
        diagnostics={"min_overlap": min_overlap},
    )


def _lost_levels(chosen: np.ndarray, perm: np.ndarray) -> str:
    """Why labels were lost: a best overlap below the threshold, or a pick another label shares."""
    low = chosen < OVERLAP_THRESHOLD
    shared = (np.bincount(perm, minlength=perm.size)[perm] > 1) & ~low
    reasons = []
    if low.any():
        bad = np.nonzero(low)[0].tolist()
        reasons.append(f"levels {bad} have overlap {chosen[bad]} < {OVERLAP_THRESHOLD}")
    if shared.any():
        twins = np.nonzero(shared)[0].tolist()
        reasons.append(f"levels {twins} share an eigenvector with another level")
    return "; ".join(reasons)


def _real_spectra(H: np.ndarray, grid: np.ndarray, start: int, realness_tol: float,
                  pairs: Optional[tuple] = None
                  ) -> tuple[np.ndarray, np.ndarray, Optional[Exception]]:
    """Sorted eigenpairs of H(t) on the first len(H) grid times, up to the first point that fails.

    Returns (values, row eigenvectors, failure): the pairs of the points
    before the earliest failure of the eigensolve and its residual check at
    ``linalg.DEFAULT_EIGEN_TOL``, or of the realness check (in that order at
    one point), and that failure, or None. ``pairs``, when given, are
    the values, vectors and residuals ``linalg._solved_pairs`` gives for H,
    taken instead of solving. The residuals are checked here against the
    norms of H, and the realness check takes the same norms, on the points
    before the failure only. An eigensolve's
    :class:`~ptdyn.linalg.ConvergenceError` is prefixed with
    ``eigenframe at t=…`` and carries the grid position, ``start`` being that
    of ``grid[0]``.
    """
    failure = unsolved = None
    tol = linalg.DEFAULT_EIGEN_TOL
    if pairs is None:
        try:
            pairs = linalg._solved_pairs(H, tol)
        except linalg.ConvergenceError as exc:  # LAPACK's, after the points before it passed
            unsolved = exc
            pairs = linalg._solved_pairs(H[:exc.index], tol)
    lams, vecs, resid = pairs
    n = len(lams)
    norms = linalg._Norms((H[:n],), (False,))
    try:
        linalg._check_pairs(H[:n], resid, tol, norms)
    except linalg.ConvergenceError as exc:
        unsolved, n = exc, exc.index
    if unsolved is not None:
        failure = linalg.ConvergenceError(f"eigenframe at t={grid[n]}: {unsolved}", start + n)
        failure.__cause__ = unsolved
    imag = np.abs(lams.imag)
    worst = imag.max(axis=1)
    # the scale is max(1, ||H||), ||H|| as the residual check took it; a point past the
    # failure passes, so that its norm is not taken
    past = np.arange(len(worst)) >= n
    real = norms.decide(lambda nH: past | (worst <= realness_tol * np.maximum(1.0, nH)), 0)
    broken = np.flatnonzero(~real)  # a NaN |Im| fails
    if broken.size:
        n = int(broken[0])
        failure = BrokenSymmetryError(
            f"broken PT symmetry at t={grid[n]}: eigenvalue {lams[n, np.argmax(imag[n])]} "
            f"has |Im| > {realness_tol:.1e}*scale"
        )
    return lams[:n], vecs[:n], failure


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of ``y`` over ``x`` along axis 0, from 0: the float
    expression of ``scipy.integrate.cumulative_trapezoid(y, x, axis=0, initial=0)``."""
    d = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    return np.concatenate((np.zeros_like(y[:1]), np.cumsum(d * (y[1:] + y[:-1]) / 2.0, axis=0)))


def _connection(eframe: EigenFrame, bra_level: int, ket_level: int) -> np.ndarray:
    """Series <psi_bra(t)| PC(t) dpsi_ket/dt (t)> over the grid."""
    dket = eframe.state_derivatives(ket_level)
    bra = eframe.states[:, bra_level, :]
    return np.einsum("ki,kij,kj->k", bra.conj(), eframe.metrics, dket)


def dynamical_phase(eframe: EigenFrame, level: int, hbar: float = 1.0) -> np.ndarray:
    """Phase theta(t) accumulated by a tracked level.

    theta(t) = -int_0^t (E_m(s)/hbar + Im <psi_m|PC dpsi_m/ds>) ds, by
    composite trapezoid; theta at the first grid point is 0.
    """
    integrand = eframe.energies[:, level] / hbar + np.imag(_connection(eframe, level, level))
    return -_cumulative_trapezoid(integrand, eframe.times)


def level_coupling_residual(
    eframe: EigenFrame, frame_family: FrameFamily, n: int, m: int
) -> np.ndarray:
    """Per-grid-point residual of the cross-level solvability condition.

    For n != m, an eigenstate-with-phase solves the compensated equation
    exactly only when <psi_n|PC dpsi_m/dt> = -1/2 <psi_n|P Cdot psi_m>;
    this returns |LHS - RHS| along the grid.
    """
    if n == m:
        raise ValueError("coupling residual is defined for distinct levels (n != m)")
    return _couplings(eframe, frame_family, m)[:, n]


def _couplings(eframe: EigenFrame, frame_family: FrameFamily, m: int) -> np.ndarray:
    """:func:`level_coupling_residual` of every level n against m: column n of one product."""
    bras, fg = eframe.states.conj(), frame_family.on_grid(eframe.times)
    lhs = np.einsum("kni,kij,kj->kn", bras, eframe.metrics, eframe.state_derivatives(m))
    pcdot_m = np.einsum("ij,kjl,kl->ki", fg.p, fg.cdot, eframe.states[:, m])
    return np.abs(lhs + 0.5 * np.einsum("kni,ki->kn", bras, pcdot_m))


def operator_phase(
    hamiltonian: OperatorFamily,
    frame_family: FrameFamily,
    eframe: EigenFrame,
    level: int,
    hbar: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Operator-valued phase A(t) for a level, plus commutator diagnostics.

    A(t) = int_0^t ((H(s) - E_m(s) I)/hbar + (i/2) C(s) Cdot(s)) ds by
    cumulative trapezoid, A(0) = 0. Returns (A series, ||[A(t), H(t)]||
    series); the rotation exp(iA) maps level-m solutions of the plain
    Schrodinger equation to solutions of the compensated equation exactly
    when the commutator vanishes.
    """
    fg = frame_family.on_grid(eframe.times)
    H = hamiltonian.on_grid(fg.times)
    E = eframe.energies[:, level, None, None] * np.eye(eframe.dim)
    integrand = (H - E) / hbar + 0.5j * (fg.c @ fg.cdot)
    A = _cumulative_trapezoid(integrand, eframe.times)
    comm = linalg.operator_norms(A @ H - H @ A)
    return A, comm


def adiabatic_bound_profile(
    eframe: EigenFrame, frame_family: FrameFamily, level: int
) -> np.ndarray:
    """Running value of the adiabatic bound integral V(t) along the grid.

    Integrand: ||(PC)^(1/2)|| * (||dpsi_m/dt|| + 1/2 ||C Cdot psi_m||), with
    the vector norms taken in the plain Euclidean norm, and
    ||(PC)^(1/2)|| = sqrt(lambda_max(PC)). Nonnegative integrand, so the
    profile is nondecreasing.
    """
    fg = frame_family.on_grid(eframe.times)
    dpsi = eframe.state_derivatives(level)
    prefactor = np.sqrt(fg.metric_eigenvalues[:, -1])
    drag_vec = np.einsum("kij,kjl,kl->ki", fg.c, fg.cdot, eframe.states[:, level])
    drag = 0.5 * np.linalg.norm(drag_vec, axis=1)
    integrand = prefactor * (np.linalg.norm(dpsi, axis=1) + drag)
    return _cumulative_trapezoid(integrand, eframe.times)


def adiabatic_bound(eframe: EigenFrame, frame_family: FrameFamily, level: int) -> float:
    """V(T): the adiabatic bound integral over the whole grid."""
    return float(adiabatic_bound_profile(eframe, frame_family, level)[-1])


def fidelity_loss(trajectory: Trajectory, eframe: EigenFrame, level: int) -> np.ndarray:
    """1 - |(psi_m(t)|phi(t))_t| per grid point, in [0, 1].

    The trajectory must live on the eigenframe's grid and should start in
    the tracked level's (unit frame norm) eigenvector for the loss to start
    at zero.
    """
    if trajectory.times.shape != eframe.times.shape or not np.allclose(
        trajectory.times, eframe.times
    ):
        raise ValueError("trajectory and eigenframe are on different grids")
    overlaps = np.einsum(
        "ki,kij,kj->k", eframe.states[:, level, :].conj(), eframe.metrics, trajectory.states
    )
    return np.maximum(1.0 - np.abs(overlaps), 0.0)


def gauge_fix(eframe: EigenFrame, frame_family: FrameFamily) -> EigenFrame:
    """Rephase every level so its metric connection vanishes.

    Requires a constant C over the grid. Each level is multiplied by
    exp(-i int_0^t Im <psi_n|PC dpsi_n/ds> ds), after which
    <psi_n|PC dpsi_n/dt> = 0 pointwise (parallel-transport gauge) up to
    the differencing error of the grid.
    """
    c = frame_family.on_grid(eframe.times).c
    c_scale = max(1.0, linalg.operator_norm(c[0]))
    if np.any(linalg.operator_norms(c[1:] - c[0]) > 1e-12 * c_scale):
        raise ValueError("gauge fixing requires a constant C over the grid")
    states = eframe.states.copy()
    for n in range(eframe.dim):
        conn = np.imag(_connection(eframe, n, n))
        phase = _cumulative_trapezoid(conn, eframe.times)
        states[:, n, :] = states[:, n, :] * np.exp(-1j * phase)[:, None]
    return EigenFrame(
        times=eframe.times,
        energies=eframe.energies,
        states=states,
        metrics=eframe.metrics,
        diagnostics=dict(eframe.diagnostics, gauge="parallel-transport"),
    )


@dataclass(frozen=True)
class AdiabaticReport:
    """Summary of an adiabatic run for one tracked level.

    ``bound_satisfied`` is the implication check: whenever the computed
    bound V(T) is below epsilon, the maximum fidelity loss must be too.
    """

    bound: float
    epsilon: float
    max_fidelity_loss: float
    bound_satisfied: bool
    theta: np.ndarray
    fidelity: np.ndarray
    coupling_residual: np.ndarray
    bound_profile: np.ndarray


def build_report(
    eframe: EigenFrame,
    frame_family: FrameFamily,
    trajectory: Trajectory,
    level: int,
    epsilon: float,
    hbar: float = 1.0,
) -> AdiabaticReport:
    """Assemble the per-level adiabatic report for an integrated run."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon out of (0,1)")
    profile = adiabatic_bound_profile(eframe, frame_family, level)
    loss = fidelity_loss(trajectory, eframe, level)
    theta = dynamical_phase(eframe, level, hbar=hbar)
    # the largest residual over the levels n != level; 0 when there is no other level
    coupling = np.delete(_couplings(eframe, frame_family, level), level, axis=1).max(
        axis=1, initial=0.0)
    bound = float(profile[-1])
    max_loss = float(np.max(loss))
    satisfied = (bound >= epsilon) or (max_loss < epsilon)
    return AdiabaticReport(
        bound=bound,
        epsilon=epsilon,
        max_fidelity_loss=max_loss,
        bound_satisfied=satisfied,
        theta=theta,
        fidelity=loss,
        coupling_residual=coupling,
        bound_profile=profile,
    )
