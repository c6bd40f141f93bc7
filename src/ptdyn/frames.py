"""CPT frames: validated (C, P, T) triples and the inner product they induce.

A PT pair needs P^2 = T^2 = I and PT = TP, with T antilinear. Adding C with
C^2 = I, CPT = TPC and a positive-definite PC turns the triple into a frame
whose metric PC defines the physical inner product (x|y) = <x|PC y>.
Operators are then classified against that structure: PT-symmetric,
Hermitian with respect to the metric, and unbroken (real spectrum with
PT-invariant eigenspaces).
"""

from __future__ import annotations

import logging
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import linalg
from .linalg import (AntilinearOperator, ConvergenceError, OperatorFamily, as_grid, as_operator,
                     as_state, operator_norms)

__all__ = [
    "FrameAxiomError",
    "CPTFrame",
    "FrameFamily",
    "FrameGrid",
    "validate_frames",
    "cpt_inner",
    "cpt_norm",
    "cpt_adjoint",
    "SymmetryReport",
    "symmetry_report",
    "norm_equivalence_bounds",
]

logger = logging.getLogger(__name__)

DEFAULT_FRAME_TOL = 1e-10


class FrameAxiomError(ValueError):
    """A frame axiom failed validation; names the axiom and its residual."""

    def __init__(self, axiom: str, detail: str):
        self.axiom = axiom
        super().__init__(f"frame axiom '{axiom}' violated: {detail}")


@dataclass(frozen=True)
class CPTFrame:
    """Validated (C, P, T) triple with its metric PC and the spectrum of PC.

    Construct via :func:`validate_frames`. ``residuals`` records the
    per-axiom validation residual norms. Under the axioms the metric's
    inverse is CP, so no inverse is stored.
    """

    c: np.ndarray
    p: np.ndarray
    t: AntilinearOperator
    metric: np.ndarray
    metric_eigenvalues: np.ndarray
    residuals: dict = field(repr=False)
    tol: float = DEFAULT_FRAME_TOL
    # Set by the frame check for symmetry_report: the exact ||PC|| and the P/T part of the
    # check (_PT). A frame built otherwise, or by dataclasses.replace, has neither.
    _metric_norm: Optional[float] = field(default=None, init=False, repr=False, compare=False)
    _pt: Optional[_PT] = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.p.shape[0]


def _check(residuals: dict, axiom: str, resid: float, scale: float, tol: float):
    residuals[axiom] = resid
    if not resid <= tol * max(scale, 1.0):  # a NaN residual fails
        raise FrameAxiomError(axiom, f"residual {resid:.3e} (tolerance {tol:.1e}, scale {scale:.3g})")


# The P/T part of a frame check (see _pt_axioms): its residuals, ||P|| and ||K||, and what the
# C-dependent checks and symmetry_report take from it: I, K conj(P), the PT map PK and max|(PK)_ij|.
_PT = namedtuple("_PT", "residuals p_norm k_norm eye k_conj_p pt_map pt_max")


def _pt_axioms(P: np.ndarray, K: np.ndarray, tol: float) -> _PT:
    """Check the axioms without C (P^2 = I, T^2 = I, PT = TP)."""
    eye = np.eye(P.shape[0])
    nP, nK = float(operator_norms(P)), float(operator_norms(K))
    pt_map, k_conj_p = P @ K, K @ np.conj(P)
    residuals: dict = {}
    _check(residuals, "P^2 = I", float(operator_norms(P @ P - eye)), nP * nP, tol)
    _check(residuals, "T^2 = I", float(operator_norms(K @ np.conj(K) - eye)), nK * nK, tol)
    _check(residuals, "PT = TP", float(operator_norms(pt_map - k_conj_p)), nP * nK, tol)
    return _PT(residuals, nP, nK, eye, k_conj_p, pt_map, float(np.abs(pt_map).max()))


_C_AXIOMS = ("C^2 = I", "CPT = TPC", "metric Hermitian")


def _c_axioms(C: np.ndarray, P: np.ndarray, K: np.ndarray, pt: _PT, tol: float, times=None,
              start: int = 0):
    """Check the C-dependent axioms on a stack C of shape (n, d, d), given ``pt = _pt_axioms(P, K)``.

    Returns (residuals, metric, eigenvalues): per-point residual arrays keyed
    by axiom, the metric stack PC and its ascending eigenvalues. The first
    failing point raises :class:`FrameAxiomError` naming the first axiom it
    fails, in :func:`validate_frames` order, and ``times[k]`` when given. The
    residuals are exact SVD norms, in one SVD with the norms of every non-finite
    C or PC; its failure at point k raises :class:`ConvergenceError` naming
    point ``start + k``. The scales ||C|| and ||PC|| are decided from their
    bounds (see ``linalg._Norms``), and taken exactly where those leave a check
    open or a failure prints them.
    """
    nP, nK = pt.p_norm, pt.k_norm
    n = C.shape[0]
    metric = P @ C
    metric_h = metric.conj().swapaxes(-1, -2)
    norms = linalg._Norms(
        (C, metric, C @ C - pt.eye, C @ P @ K - pt.k_conj_p @ np.conj(C), metric - metric_h),
        (False, False, True, True, True), start)
    resids = norms.lo[2 * n:].reshape(3, n)  # exact
    eigs = np.linalg.eigvalsh(0.5 * (metric + metric_h))

    def scales(nC, nM):  # in _C_AXIOMS order
        return np.array((nC * nC, nC * nP * nK, nM))

    def failures(nC, nM):  # points first; written so that a NaN residual or eigenvalue fails
        return ~np.concatenate((resids <= tol * np.maximum(scales(nC, nM), 1.0),
                                [eigs[:, 0] > tol * nM])).T

    failed = norms.decide(failures, 0, 1)
    bad = failed.any(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        i = int(np.argmax(failed[k]))
        at = np.arange(n) == k
        nC, nM = norms.exact(0, at)[k], norms.exact(1, at)[k]
        if i == len(_C_AXIOMS):
            axiom = "metric positive definite"
            detail = f"minimum eigenvalue of PC is {eigs[k, 0]:.3e} (metric norm {nM:.3g})"
        else:
            axiom = _C_AXIOMS[i]
            scale = scales(nC, nM)[i]
            detail = f"residual {resids[i, k]:.3e} (tolerance {tol:.1e}, scale {scale:.3g})"
        raise FrameAxiomError(axiom, detail if times is None else f"{detail} at t={times[k]}")
    return dict(zip(_C_AXIOMS, resids)), metric, eigs


def validate_frames(C, P, T: AntilinearOperator, tol: float = DEFAULT_FRAME_TOL) -> CPTFrame:
    """Check every frame axiom and return the validated frame.

    Axioms checked, each with its own named :class:`FrameAxiomError`:
    P^2 = I, T^2 = I, PT = TP, C^2 = I, CPT = TPC, metric Hermitian,
    metric positive definite. Residuals are kept on the returned frame.
    This is the one-point case of :meth:`FrameFamily.on_grid`.
    """
    return _validated(C, P, T, tol)


def _validated(C, P, T: AntilinearOperator, tol: float, pt: Optional[_PT] = None) -> CPTFrame:
    """:func:`validate_frames`, with the P/T axioms taken from ``pt`` when given (see :func:`_pt_axioms`).

    The one-point case of :func:`_c_axioms`, on Python floats: one SVD (of C, PC and the
    three residuals, exact) and one ``eigvalsh``, then the same checks in the same order.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    C = as_operator(C, "C")
    P = as_operator(P, "P")
    K = T.conj_matrix
    n = P.shape[0]
    if C.shape[0] != n or K.shape[0] != n:
        raise ValueError(f"dimension mismatch: C {C.shape}, P {P.shape}, T {K.shape}")
    pt = pt or _pt_axioms(P, K, tol)
    metric = P @ C
    metric_h = metric.conj().T
    nC, nM, *resids = linalg._svd_norms(np.stack(
        (C, metric, C @ C - pt.eye, C @ P @ K - pt.k_conj_p @ np.conj(C), metric - metric_h))
    ).tolist()
    eigs = np.linalg.eigvalsh(0.5 * (metric + metric_h))
    residuals = dict(pt.residuals)
    for axiom, resid, scale in zip(_C_AXIOMS, resids, (nC * nC, nC * pt.p_norm * pt.k_norm, nM)):
        _check(residuals, axiom, resid, scale, tol)
    min_eig = float(eigs[0])
    if not min_eig > tol * nM:  # a NaN eigenvalue or norm fails
        raise FrameAxiomError("metric positive definite",
                              f"minimum eigenvalue of PC is {min_eig:.3e} (metric norm {nM:.3g})")
    residuals["metric min eigenvalue"] = min_eig
    frame = CPTFrame(c=C, p=P, t=T, metric=metric, metric_eigenvalues=eigs, residuals=residuals,
                     tol=tol)
    object.__setattr__(frame, "_metric_norm", nM)
    object.__setattr__(frame, "_pt", pt)
    return frame


def cpt_inner(frame: CPTFrame, x, y) -> complex:
    """Frame inner product (x|y) = <x|PC y>, conjugate-linear in x."""
    x = as_state(x)
    y = as_state(y)
    if x.shape[0] != frame.dim or y.shape[0] != frame.dim:
        raise ValueError(f"vector dims {x.shape[0]}, {y.shape[0]} do not match frame dim {frame.dim}")
    return complex(np.vdot(x, frame.metric @ y))


def cpt_norm(frame: CPTFrame, x) -> float:
    """Norm induced by the frame inner product."""
    val = cpt_inner(frame, x, x).real
    return math.sqrt(max(val, 0.0))


def cpt_adjoint(frame: CPTFrame, A) -> np.ndarray:
    """Adjoint with respect to the frame inner product: (PC)^-1 A^dag (PC).

    Under the axioms (PC)^-1 = CP, which is what is applied.
    """
    A = as_operator(A)
    if A.shape[0] != frame.dim:
        raise ValueError(f"operator dim {A.shape[0]} does not match frame dim {frame.dim}")
    return (frame.c @ frame.p) @ A.conj().T @ frame.metric


@dataclass(frozen=True)
class SymmetryReport:
    """Symmetry classification of an operator against a frame.

    ``unbroken`` means PT-symmetric with every eigenspace invariant under
    the PT map, which forces a real spectrum; ``eigen_realness`` is the
    largest |Im| over the eigenvalues.
    """

    pt_symmetric: bool
    cpt_hermitian: bool
    unbroken: bool
    eigen_realness: float
    pt_residual: float
    cpt_residual: float


def symmetry_report(frame: CPTFrame, H, tol: float = DEFAULT_FRAME_TOL) -> SymmetryReport:
    """Classify H: PT-symmetric, metric-Hermitian, unbroken.

    PT symmetry is commutation with the antilinear PT map; metric
    Hermiticity is H^dag PC = PC H. The unbroken test asks each eigenvector
    to be mapped to a unit-modulus multiple of itself by PT; eigenvalues
    clustered within tol are treated as one eigenspace, tested for
    PT-invariance as a subspace (individual vectors are gauge-ambiguous
    there), and the fallback is logged. This is the one-point case of
    :meth:`FrameGrid.symmetry_reports`.
    """
    H = as_operator(H, "H")
    if H.shape[0] != frame.dim:
        raise ValueError(f"operator dim {H.shape[0]} does not match frame dim {frame.dim}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    # The one-point case of _classify, on Python floats. ||PC|| and the PT map PK come from
    # the frame check; ||PK|| is bracketed by max|(PK)_ij| <= ||PK|| <= ||P|| ||K|| and joins
    # the SVD only where that leaves a check open. A frame the check did not build (or
    # dataclasses.replace rebuilt) carries neither, and norms PC and PK in the SVD.
    pt, metric = frame._pt, frame.metric
    carried = pt is not None
    pt_map = pt.pt_map if carried else frame.p @ frame.t.conj_matrix
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the SVD norm below
        pt_residual = H @ pt_map - pt_map @ np.conj(H)
        cpt_residual = H.conj().T @ metric - metric @ H
    eig_tol = max(tol, linalg.DEFAULT_EIGEN_TOL)
    # The eigensolve runs before the SVD, to tell whether the PT map's norm must enter it;
    # its failure is raised after the SVD's, as the scan raises them.
    try:
        lams, vecs, resid = (x[0] for x in linalg._solved_pairs(H[None], eig_tol))
    except ConvergenceError as exc:
        unsolved = exc
    else:
        unsolved = None
        gaps = np.abs(lams[1:] - lams[:-1])
        images = np.conj(vecs) @ pt_map.T  # images[i] = PT map of eigenvector i
        mu = np.vecdot(vecs, images)
        off = linalg._vector_norms(images - mu[..., None] * vecs)
    matrices = [H, pt_residual, cpt_residual]
    if not carried:
        matrices += [metric, pt_map]
    elif unsolved is None:
        lo = pt.pt_max * (1.0 - linalg.NORM_MARGIN)
        hi = pt.p_norm * pt.k_norm * (1.0 + linalg.NORM_MARGIN)
        h_hi = H.shape[0] * float(np.abs(H).max()) * (1.0 + linalg.NORM_MARGIN)  # >= ||H||
        strays = off > tol * max(1.0, lo)  # max(1.0, NaN) is 1.0, as np.fmax
        if (strays != (off > tol * max(1.0, hi))).any() or (gaps <= tol * max(h_hi, 1.0)).any():
            matrices.append(pt_map)  # a stray is left open, or eigenvalues may cluster
    nH, pt_norm, cpt_norm, *rest = linalg._svd_norms(np.stack(matrices)).tolist()
    if unsolved is not None:
        raise unsolved
    nM = frame._metric_norm if carried else rest.pop(0)
    norm_pt = rest[0] if rest else None  # None: its bracket settled every check that takes it
    if norm_pt is not None:
        strays = off > tol * max(1.0, norm_pt)
    linalg._check_pairs(H[None], resid[None], eig_tol, np.array([nH]))
    joined = gaps <= tol * max(nH, 1.0)  # eigenvalue i + 1 is within tol of eigenvalue i
    # Outside clusters, PT must map each eigenvector to a unit-modulus multiple of itself.
    fails = strays | (np.abs(np.abs(mu) - 1.0) > tol * 10)
    if joined.any():
        fails[1:] &= ~joined
        fails[:-1] &= ~joined
    pt_symmetric = pt_norm <= tol * max(nH, 1e-300)
    unbroken = pt_symmetric and not fails.any()
    if unbroken and joined.any():
        unbroken = _clusters_invariant(lams, vecs, joined, pt_map, tol * max(1.0, norm_pt))
    return SymmetryReport(
        pt_symmetric=pt_symmetric,
        cpt_hermitian=cpt_norm <= tol * max(nH * nM, 1e-300),
        unbroken=unbroken,
        eigen_realness=float(np.abs(lams.imag).max()),
        pt_residual=pt_norm,
        cpt_residual=cpt_norm,
    )


# A stack's symmetry scan (see _classify): H and what linalg._eigenpairs gives for it, its norms
# those of H, the PT and CPT residuals (exact only where needed), metrics and PT map; verdicts.
_Scan = namedtuple("_Scan", "hams lams vecs resid norms pt_symmetric cpt_hermitian unbroken realness")


def _reports(scan: _Scan) -> list[SymmetryReport]:
    """The scan's reports, one a point, with the exact residual norms."""
    return [SymmetryReport(*row) for row in zip(
        scan.pt_symmetric.tolist(), scan.cpt_hermitian.tolist(), scan.unbroken.tolist(),
        scan.realness.tolist(), scan.norms.exact(1).tolist(), scan.norms.exact(2).tolist())]


def _classify(pt_map: np.ndarray, metrics: np.ndarray, hams: np.ndarray, tol: float) -> _Scan:
    """The symmetry scan of a stack of H against a stack of metrics PC."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the SVD norm below
        pt_residual = hams @ pt_map - pt_map @ np.conj(hams)
        cpt_residual = hams.conj().swapaxes(-1, -2) @ metrics - metrics @ hams
    norms = linalg._Norms((hams, pt_residual, cpt_residual, metrics, pt_map[None]), (False,) * 5)
    lams, vecs, resid, _ = linalg._eigenpairs(hams, max(tol, linalg.DEFAULT_EIGEN_TOL), norms)
    realness = np.abs(lams.imag).max(axis=1)
    # joined[k, i]: eigenvalue i + 1 is within tol of eigenvalue i, in one cluster with it.
    gaps = np.abs(lams[:, 1:] - lams[:, :-1])
    joined = norms.decide(lambda nH: gaps <= tol * np.maximum(nH, 1.0)[:, None], 0)
    clustered = np.zeros(lams.shape, dtype=bool)
    clustered[:, 1:] = joined
    clustered[:, :-1] |= joined
    # Outside clusters, PT must map each eigenvector to a unit-modulus multiple of itself.
    images = np.conj(vecs) @ pt_map.T  # images[k, i] = PT map of eigenvector i at point k
    mu = np.vecdot(vecs, images)
    off = linalg._vector_norms(images - mu[..., None] * vecs)
    strays = norms.decide(lambda nT: off > tol * np.fmax(1.0, nT), 4)  # fmax: max(1.0, NaN) is 1.0
    fails = ~clustered & (strays | (np.abs(np.abs(mu) - 1.0) > tol * 10))
    pt_symmetric = norms.decide(lambda nH, nR: nR <= tol * np.maximum(nH, 1e-300), 0, 1,
                                falling=(1,))
    unbroken = pt_symmetric & ~fails.any(axis=1)
    clusters = np.flatnonzero(unbroken & joined.any(axis=1))
    if clusters.size:
        vec_tol = tol * max(1.0, float(norms.exact(4)[0]))
        for k in clusters:
            unbroken[k] = _clusters_invariant(lams[k], vecs[k], joined[k], pt_map, vec_tol)
    cpt_hermitian = norms.decide(lambda nH, nM, nR: nR <= tol * np.maximum(nH * nM, 1e-300),
                                 0, 3, 2, falling=(2,))
    return _Scan(hams, lams, vecs, resid, norms, pt_symmetric, cpt_hermitian, unbroken, realness)


def _clusters_invariant(lams, vecs, joined, pt_map, vec_tol: float) -> bool:
    """Whether PT maps the eigenspace of every eigenvalue cluster (see ``joined``) into itself."""
    for group in np.split(np.arange(lams.size), np.flatnonzero(~joined) + 1):
        if group.size > 1:
            logger.info(
                "degenerate eigenvalue cluster at %s: testing PT-invariance of the eigenspace",
                complex(lams[group[0]]),
            )
            Q, _ = np.linalg.qr(vecs[group].T)
            proj = Q @ Q.conj().T
            for q in Q.T:
                w = pt_map @ np.conj(q)
                if np.linalg.norm(w - proj @ w) > vec_tol:
                    return False
    return True


def norm_equivalence_bounds(frame: CPTFrame) -> tuple[float, float]:
    """Constants (lower, upper) sandwiching the frame norm by the 2-norm.

    lower = ||CP||^(-1/2) and upper = ||PC||^(1/2); for every x,
    lower*||x|| <= ||x||_frame <= upper*||x||.
    """
    upper = math.sqrt(linalg.operator_norm(frame.metric))
    lower = 1.0 / math.sqrt(linalg.operator_norm(frame.c @ frame.p))
    return lower, upper


@dataclass(frozen=True)
class FrameFamily:
    """Frame-valued function of time: fixed P and T, time-varying C(t).

    P^2 = I, T^2 = I and PT = TP are checked once, at construction.
    :meth:`on_grid` keeps the last :class:`FrameGrid` it built, and the
    error of the last build that raised, so every stage of a run that asks
    for the same grid shares one validated pass.
    """

    c_family: OperatorFamily
    p: np.ndarray
    t: AntilinearOperator
    tol: float = DEFAULT_FRAME_TOL
    _pt: Optional[_PT] = field(default=None, init=False, repr=False, compare=False)
    _grid: Optional["FrameGrid"] = field(default=None, init=False, repr=False, compare=False)
    _failed: tuple = field(default=(), init=False, repr=False, compare=False)  # (times, error)

    def __post_init__(self):
        P, K = as_operator(self.p, "P"), self.t.conj_matrix
        if K.shape[0] != P.shape[0]:
            raise ValueError(f"dimension mismatch: P {P.shape}, T {K.shape}")
        object.__setattr__(self, "p", P)
        object.__setattr__(self, "_pt", _pt_axioms(P, K, self.tol))

    @property
    def dim(self) -> int:
        return self.p.shape[0]

    def frame_at(self, t: float) -> CPTFrame:
        """Validated frame at time t (the C-dependent axioms checked)."""
        return _validated(self.c_family(t), self.p, self.t, self.tol, self._pt)

    def on_grid(self, grid) -> "FrameGrid":
        """The family evaluated and validated at every grid time (see :class:`FrameGrid`).

        Returns the kept grid when ``grid`` equals its times, else builds
        and keeps a new one. A build that raises keeps its error for its
        grid instead, and the same grid raises that error again, with a new
        traceback: the family is not evaluated, nor its warnings logged, twice.
        """
        grid = as_grid(grid)
        if self._failed and np.array_equal(self._failed[0], grid):
            raise self._failed[1].with_traceback(None)
        kept = self._grid
        if kept is None or not np.array_equal(kept.times, grid):
            try:
                kept = FrameGrid.build(self, grid)
            except Exception as exc:
                object.__setattr__(self, "_failed", (grid.copy(), exc))
                raise
            object.__setattr__(self, "_grid", kept)
        return kept

    @classmethod
    def constant(cls, frame: CPTFrame) -> "FrameFamily":
        return cls(OperatorFamily.constant(frame.c), frame.p, frame.t, tol=frame.tol)


@dataclass(frozen=True)
class FrameGrid:
    """A frame family on a time grid, validated once, as (n_t, d, d) stacks.

    ``c``, ``cdot`` and ``metric`` hold C(t_k), dC/dt(t_k) and PC(t_k);
    ``metric_eigenvalues[k]`` is the ascending spectrum of PC(t_k).
    ``residuals`` has the largest residual of each axiom over the grid and
    the smallest metric eigenvalue, keyed as in :attr:`CPTFrame.residuals`.
    ``one_sided`` counts the points whose derivative fell back to a
    one-sided difference. The arrays are read-only: consumers share them.
    Build with :meth:`FrameFamily.on_grid`.
    """

    times: np.ndarray
    p: np.ndarray
    t: AntilinearOperator
    c: np.ndarray
    cdot: np.ndarray
    metric: np.ndarray
    metric_eigenvalues: np.ndarray
    residuals: dict = field(repr=False)
    one_sided: int = 0

    @classmethod
    def build(cls, family: FrameFamily, grid: np.ndarray) -> "FrameGrid":
        """Evaluate C and dC/dt at every grid time and check every axiom.

        C is evaluated on the whole grid first, then dC/dt, each raising at
        its earliest failing time. The C-dependent axioms are then checked in
        stacks whose SVD (five matrices a point) holds at most
        ``linalg.STACK_ENTRIES`` entries: :class:`FrameAxiomError` names the
        axiom and time of the first failure, :class:`ConvergenceError` the
        grid time and index of the first point whose SVD fails.
        """
        P, K = family.p, family.t.conj_matrix
        grid = np.array(grid, dtype=float)
        n, dim = grid.size, family.dim
        c = family.c_family.stack(grid)
        if c.shape[1:] != P.shape:
            raise ValueError(f"dimension mismatch: C {c.shape[1:]} at t={grid[0]}, P {P.shape}")
        cdot, one_sided = linalg.family_derivatives(family.c_family, grid)
        if one_sided:
            logger.warning("one-sided derivative at %d of %d grid points in [%g, %g]",
                           one_sided, n, grid[0], grid[-1])
        residuals = dict(family._pt.residuals)
        metric = np.empty_like(c)
        eigs = np.empty((n, dim))
        step = max(1, linalg.STACK_ENTRIES // (5 * dim ** 2))
        for lo in range(0, n, step):
            part = slice(lo, lo + step)
            try:
                chunk_residuals, metric[part], eigs[part] = _c_axioms(
                    c[part], P, K, family._pt, family.tol, grid[part], lo)
            except ConvergenceError as exc:
                raise ConvergenceError(f"frame check at t={grid[exc.index]}: {exc}",
                                       exc.index) from exc
            for axiom, resid in chunk_residuals.items():
                residuals[axiom] = max(residuals.get(axiom, 0.0), float(resid.max()))
        residuals["metric min eigenvalue"] = float(eigs[:, 0].min())
        for arr in (grid, c, cdot, metric, eigs):
            arr.flags.writeable = False
        return cls(times=grid, p=P, t=family.t, c=c, cdot=cdot, metric=metric,
                   metric_eigenvalues=eigs, residuals=residuals, one_sided=one_sided)

    def symmetry_reports(self, hams, tol: float = DEFAULT_FRAME_TOL) -> list[SymmetryReport]:
        """:func:`symmetry_report` at every grid time, for the stack hams[k] = H(t_k).

        A norm or eigensolve that fails raises :class:`ConvergenceError`
        naming the grid time of the failing matrix.
        """
        return self._scan(hams, tol, _reports)

    def _scan(self, hams, tol: float, then: Callable = lambda scan: scan):
        """``then`` of the :class:`_Scan` of hams[k] = H(t_k), raising as symmetry_reports."""
        hams = np.asarray(hams, dtype=complex)
        if hams.shape != self.metric.shape:
            raise ValueError(f"operator stack {hams.shape} does not match the grid {self.metric.shape}")
        try:
            return then(_classify(self.p @ self.t.conj_matrix, self.metric, hams, tol))
        except ConvergenceError as exc:
            raise ConvergenceError(f"symmetry scan at t={self.times[exc.index]}: {exc}",
                                   exc.index) from exc
