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
    """A frame axiom failed validation; names the axiom and its residual.

    ``index`` is the grid position of the failing point when a frame grid
    (:meth:`FrameFamily.on_grid`) raised the error, else None.
    """

    index: Optional[int] = None

    def __init__(self, axiom: str, detail: str):
        self.axiom = axiom
        super().__init__(f"frame axiom '{axiom}' violated: {detail}")


@dataclass(frozen=True)
class CPTFrame:
    """Validated (C, P, T) triple with its metric PC and the spectrum of PC.

    Construct via :func:`validate_frames`. :attr:`residuals` gives the
    per-axiom residual norms. Under the axioms the metric's inverse is CP,
    so no inverse is stored.
    """

    c: np.ndarray
    p: np.ndarray
    t: AntilinearOperator
    metric: np.ndarray
    metric_eigenvalues: np.ndarray
    tol: float = DEFAULT_FRAME_TOL
    # Set by the frame check: the bracket (lo, hi) of ||PC|| from PC's entries (see _brackets),
    # which symmetry_report reads, and the P/T part of the check (_PT), which it and residuals
    # read. A frame built otherwise, or by dataclasses.replace, has neither. _residuals holds
    # the residuals once taken.
    _metric_norm: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _pt: Optional[_PT] = field(default=None, init=False, repr=False, compare=False)
    _residuals: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.p.shape[0]

    @property
    def residuals(self) -> dict:
        """Per-axiom residual norms, keyed by axiom in the check's order, as exact SVD norms,
        then the least eigenvalue of PC ("metric min eigenvalue").

        Taken when first read, from the stacked check :func:`_c_axioms` of this one point
        after the frame's P/T check. A frame no check built (directly or by
        ``dataclasses.replace``) takes that P/T check from :func:`_pt_axioms` on its own P
        and T, so its residuals are those of its C, P and T, and where these fail an axiom
        the read raises that :class:`FrameAxiomError`, naming no time.
        """
        if self._residuals is None:
            pt = self._pt or _pt_axioms(self.p, self.t.conj_matrix, self.tol)
            exact, _, eigs = _c_axioms(self.c[None], self.p, self.t, pt, self.tol)
            object.__setattr__(self, "_residuals", {
                **pt.residuals, **{axiom: float(r[0]) for axiom, r in exact.items()},
                "metric min eigenvalue": float(eigs[0, 0])})
        return self._residuals


def _axiom_error(axiom: str, value: float, scale: float, tol: float, at: str = ""):
    """A failed check's error from its residual (or PC's least eigenvalue) and scale, then ``at``."""
    return FrameAxiomError(axiom, (
        f"minimum eigenvalue of PC is {value:.3e} (metric norm {scale:.3g})"
        if axiom == "metric positive definite"
        else f"residual {value:.3e} (tolerance {tol:.1e}, scale {scale:.3g})") + at)


# The P/T part of a frame check (see _pt_axioms): its residuals, ||P|| and ||K||, and what the
# C-dependent checks and the symmetry reports take from it: I, K conj(P), the PT map PK and ||PK||.
_PT = namedtuple("_PT", "residuals p_norm k_norm eye k_conj_p pt_map pt_norm")
_PT_AXIOMS = ("P^2 = I", "T^2 = I", "PT = TP")


def _pt_axioms(P: np.ndarray, K: np.ndarray, tol: float) -> _PT:
    """Check the axioms without C (P^2 = I, T^2 = I, PT = TP), with ||P||, ||K||, ||PK|| and
    the three residuals in one :func:`operator_norms`."""
    eye = np.eye(P.shape[0])
    pt_map, k_conj_p = P @ K, K @ np.conj(P)
    nP, nK, n_pt, *resids = operator_norms(np.stack(
        (P, K, pt_map, P @ P - eye, K @ np.conj(K) - eye, pt_map - k_conj_p))).tolist()
    for axiom, resid, scale in zip(_PT_AXIOMS, resids, (nP * nP, nK * nK, nP * nK)):
        if not resid <= tol * max(scale, 1.0):  # a NaN residual fails
            raise _axiom_error(axiom, resid, scale, tol)
    return _PT(dict(zip(_PT_AXIOMS, resids)), nP, nK, eye, k_conj_p, pt_map, n_pt)


_C_AXIOMS = ("C^2 = I", "CPT = TPC", "metric Hermitian")


def _c_axioms(C: np.ndarray, P: np.ndarray, T: AntilinearOperator, pt: _PT, tol: float,
              times=None, start: int = 0):
    """Check the C-dependent axioms on a stack C taken at ``times``, given ``pt = _pt_axioms(P, K)``.

    Returns (residuals, metric, eigenvalues): per-point residual arrays keyed
    by axiom, the metric stack PC and its ascending eigenvalues. The
    residuals are exact SVD norms, in one SVD with the norms of every non-finite
    C or PC; its failure at point k raises :class:`ConvergenceError` naming
    point ``start + k``. The scales ||C|| and ||PC|| are decided from their
    bounds (see ``linalg._Norms``), and taken exactly where those leave a check
    open. The first failing point k raises its first failing axiom's error
    (:func:`_axiom_error`) from these values and its exact ||C||, ||PC||, then
    `` at t=times[k]``, with ``index`` ``start + k``. Without ``times`` (the
    stack of one point :func:`_validated` checks) the error names no time and
    no ``index``.
    """
    n = C.shape[0]
    metric = P @ C
    metric_h = metric.conj().swapaxes(-1, -2)
    norms = linalg._Norms(
        (C, metric, C @ C - pt.eye, C @ P @ T.conj_matrix - pt.k_conj_p @ np.conj(C),
         metric - metric_h),
        (False, False, True, True, True), start)
    resids = norms.lo[2 * n:].reshape(3, n)  # exact
    eigs = np.linalg.eigvalsh(0.5 * (metric + metric_h))
    values = np.vstack((resids, eigs[:, 0]))  # per check: _C_AXIOMS, then positive definiteness

    def scales(nC, nM):
        return np.array((nC * nC, nC * pt.p_norm * pt.k_norm, nM, nM))

    def failures(nC, nM):  # points first; written so that a NaN residual or eigenvalue fails
        s = scales(nC, nM)
        return ~np.vstack((values[:3] <= tol * np.maximum(s[:3], 1.0), values[3] > tol * s[3])).T

    failed = norms.decide(failures, 0, 1)
    bad = failed.any(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        i = int(np.argmax(failed[k]))
        nC, nM = (norms.exact(j, np.arange(n) == k)[k] for j in (0, 1))
        error = _axiom_error((*_C_AXIOMS, "metric positive definite")[i], values[i, k],
                             scales(nC, nM)[i], tol, "" if times is None else f" at t={times[k]}")
        if times is not None:
            error.index = start + k
        raise error
    return dict(zip(_C_AXIOMS, resids)), metric, eigs


def validate_frames(C, P, T: AntilinearOperator, tol: float = DEFAULT_FRAME_TOL) -> CPTFrame:
    """Check every frame axiom and return the validated frame.

    Axioms checked, each with its own named :class:`FrameAxiomError`:
    P^2 = I, T^2 = I, PT = TP, C^2 = I, CPT = TPC, metric Hermitian,
    metric positive definite. The checks are decided from the norms' bracket
    where it settles every one of them, else by reading the frame's
    :attr:`CPTFrame.residuals`, the stacked check of :meth:`FrameFamily.on_grid`
    on this one point. A frame the bracket passed takes those exact SVD norms
    when they are first read.
    """
    return _validated(C, P, T, tol)


def _validated(C, P, T: AntilinearOperator, tol: float, pt: Optional[_PT] = None) -> CPTFrame:
    """:func:`validate_frames`, with the P/T axioms taken from ``pt`` when given (see :func:`_pt_axioms`);
    C and P must then come coerced by ``as_operator``, as a family's C(t) and P do.

    The one-point case of :func:`_c_axioms`, on Python floats. The five matrices C, PC and
    the three residuals are bounded by their :func:`_brackets` and PC's spectrum taken by one
    ``eigvalsh``. When every residual's bound passes against the least scale and PC's least
    eigenvalue exceeds tol times its largest norm, the frame passes with no SVD, and its
    residuals are normed when read. Otherwise the frame's :attr:`CPTFrame.residuals` are read
    at once: :func:`_c_axioms` checks the stack of this one point and raises where it fails.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if pt is None:
        C, P = as_operator(C, "C"), as_operator(P, "P")
    K = T.conj_matrix
    n = P.shape[0]
    if C.shape[0] != n or K.shape[0] != n:
        raise ValueError(f"dimension mismatch: C {C.shape}, P {P.shape}, T {K.shape}")
    pt = pt or _pt_axioms(P, K, tol)
    metric = P @ C
    metric_h = metric.conj().T
    eigs = np.linalg.eigvalsh(0.5 * (metric + metric_h))
    (nC, _), bracket, *resids = _brackets(np.stack(
        (C, metric, C @ C - pt.eye, C @ P @ K - pt.k_conj_p @ np.conj(C), metric - metric_h)))
    scales = nC * nC, nC * pt.p_norm * pt.k_norm, bracket[0]  # least scales of _C_AXIOMS
    frame = CPTFrame(c=C, p=P, t=T, metric=metric, metric_eigenvalues=eigs, tol=tol)
    frame.__dict__.update(_metric_norm=bracket, _pt=pt)
    # strict comparisons, so an infinite or NaN bound settles nothing
    if not (eigs[0] > tol * bracket[1]
            and all(hi < tol * max(scale, 1.0) for (_, hi), scale in zip(resids, scales))):
        frame.residuals  # the exact check decides: it raises where an axiom fails
    return frame


def _brackets(matrices: np.ndarray) -> list:
    """The bracket (lo, hi) of ||A||_2 for each matrix A of a one-point stack, as Python
    floats: max|a_ij| <= ||A||_2 <= d*max|a_ij|, widened by ``linalg.NORM_MARGIN`` as
    ``linalg._Norms`` widens it. The one-point checks' shortcuts decide from these."""
    low, high = 1.0 - linalg.NORM_MARGIN, matrices.shape[-1] * (1.0 + linalg.NORM_MARGIN)
    return [(a * low, a * high) for a in np.abs(matrices).max(axis=(1, 2)).tolist()]


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
    largest |Im| over the eigenvalues. The residuals are exact SVD norms; a
    report :func:`symmetry_report` settled takes both in one SVD when either
    is first read.
    """

    pt_symmetric: bool
    cpt_hermitian: bool
    unbroken: bool
    eigen_realness: float
    pt_residual: float
    cpt_residual: float

    def __getattr__(self, name: str):  # reached only for an attribute not set
        pending = self.__dict__.get("_residual_matrices")
        if pending is None or name not in ("pt_residual", "cpt_residual"):
            raise AttributeError(f"'SymmetryReport' object has no attribute '{name}'")
        # The matrices stay: a second thread reading at once norms them again, to the same bits.
        self.__dict__.update(zip(("pt_residual", "cpt_residual"), linalg._svd_norms(pending).tolist()))
        return self.__dict__[name]


def symmetry_report(frame: CPTFrame, H, tol: float = DEFAULT_FRAME_TOL) -> SymmetryReport:
    """Classify H: PT-symmetric, metric-Hermitian, unbroken.

    PT symmetry is commutation with the antilinear PT map; metric
    Hermiticity is H^dag PC = PC H. The unbroken test asks each eigenvector
    to be mapped to a unit-modulus multiple of itself by PT; eigenvalues
    clustered within tol are treated as one eigenspace, tested for
    PT-invariance as a subspace (individual vectors are gauge-ambiguous
    there), and the fallback is logged. This is the one-point case of
    :meth:`FrameGrid.symmetry_reports`, on Python floats, decided from the
    :func:`_brackets` of ||H|| and the two residual norms, and the frame
    check's bracket of ||PC||, where they settle every check and pass the
    eigenpairs; the residual norms are then taken when read. Otherwise (an
    open check, a bound that is not finite, or a frame no check built) the
    stacked scan :func:`_classify` of this one point gives the report.
    """
    H = as_operator(H, "H")
    if H.shape[0] != frame.dim:
        raise ValueError(f"operator dim {H.shape[0]} does not match frame dim {frame.dim}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    # The PT map PK, ||PK|| and ||PC||'s bracket come from the frame check; a frame the check
    # did not build (or dataclasses.replace rebuilt) has none, and takes the stacked scan.
    pt, metric = frame._pt, frame.metric
    pt_map = frame.p @ frame.t.conj_matrix if pt is None else pt.pt_map
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the SVD norm
        matrices = np.stack((H, H @ pt_map - pt_map @ np.conj(H), H.conj().T @ metric - metric @ H))
    bounds = _brackets(matrices)
    if pt is not None and all(math.isfinite(hi) for _, hi in bounds):
        eig_tol = max(tol, linalg.DEFAULT_EIGEN_TOL)
        lams, vecs, resid = (x[0] for x in linalg._solved_pairs(H[None], eig_tol))
        gaps, worst = np.abs(lams[1:] - lams[:-1]), float(resid.max())  # worst: NaN if one is

        def verdicts(nH, n_pt, n_cpt, nM) -> tuple:  # each rises with ||H|| and ||PC||, falls with the others
            return (n_pt <= tol * max(nH, 1e-300), n_cpt <= tol * max(nH * nM, 1e-300),
                    worst <= eig_tol * max(nH, 1e-300), *(gaps <= tol * max(nH, 1.0)).tolist())

        ((h_lo, h_hi), (p_lo, p_hi), (c_lo, c_hi)), (m_lo, m_hi) = bounds, frame._metric_norm
        settled = verdicts(h_lo, p_hi, c_hi, m_lo)
        if settled[2] and settled == verdicts(h_hi, p_lo, c_lo, m_hi):
            pt_symmetric, cpt_hermitian, _, *joined = settled
            joined = np.array(joined, dtype=bool)  # joined[i]: eigenvalue i + 1 is in i's cluster
            vec_tol = tol * max(1.0, pt.pt_norm)
            unbroken = pt_symmetric and not _fails(vecs, joined, pt_map, vec_tol, tol).any()
            if unbroken and joined.any():
                unbroken = _clusters_invariant(lams, vecs, joined, pt_map, vec_tol)
            report = object.__new__(SymmetryReport)  # the residual norms are taken when read
            report.__dict__.update(pt_symmetric=pt_symmetric, cpt_hermitian=cpt_hermitian,
                                   unbroken=unbroken, eigen_realness=float(np.abs(lams.imag).max()),
                                   _residual_matrices=matrices[1:])
            return report
    pt_norm = linalg.operator_norm(pt_map) if pt is None else pt.pt_norm
    return _reports(_classify(pt_map, pt_norm, metric[None], H[None], tol))[0]


# A stack's symmetry scan (see _classify): H's checked eigenpairs and their residuals
# (linalg._solved_pairs, then linalg._check_pairs), the _Norms of H, the PT and CPT residuals
# (exact only where needed) and the metrics; verdicts.
_Scan = namedtuple("_Scan", "lams vecs resid norms pt_symmetric cpt_hermitian unbroken realness")


def _reports(scan: _Scan) -> list[SymmetryReport]:
    """The scan's reports, one a point, with the exact residual norms."""
    return [SymmetryReport(*row) for row in zip(
        scan.pt_symmetric.tolist(), scan.cpt_hermitian.tolist(), scan.unbroken.tolist(),
        scan.realness.tolist(), scan.norms.exact(1).tolist(), scan.norms.exact(2).tolist())]


def _classify(pt_map: np.ndarray, pt_norm: float, metrics: np.ndarray, hams: np.ndarray,
              tol: float) -> _Scan:
    """The symmetry scan of a stack of H against a stack of metrics PC, given the PT map PK
    and its norm ||PK||."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the SVD norm below
        pt_residual = hams @ pt_map - pt_map @ np.conj(hams)
        cpt_residual = hams.conj().swapaxes(-1, -2) @ metrics - metrics @ hams
    norms = linalg._Norms((hams, pt_residual, cpt_residual, metrics), (False,) * 4)
    eig_tol = max(tol, linalg.DEFAULT_EIGEN_TOL)
    lams, vecs, resid = linalg._solved_pairs(hams, eig_tol)
    linalg._check_pairs(hams, resid, eig_tol, norms)
    realness = np.abs(lams.imag).max(axis=1)
    # joined[k, i]: eigenvalue i + 1 is within tol of eigenvalue i, in one cluster with it.
    gaps = np.abs(lams[:, 1:] - lams[:, :-1])
    joined = norms.decide(lambda nH: gaps <= tol * np.maximum(nH, 1.0)[:, None], 0)
    vec_tol = tol * max(1.0, pt_norm)
    pt_symmetric = norms.decide(lambda nH, nR: nR <= tol * np.maximum(nH, 1e-300), 0, 1,
                                falling=(1,))
    unbroken = pt_symmetric & ~_fails(vecs, joined, pt_map, vec_tol, tol).any(axis=1)
    clusters = np.flatnonzero(unbroken & joined.any(axis=1))
    for k in clusters:
        unbroken[k] = _clusters_invariant(lams[k], vecs[k], joined[k], pt_map, vec_tol)
    cpt_hermitian = norms.decide(lambda nH, nM, nR: nR <= tol * np.maximum(nH * nM, 1e-300),
                                 0, 3, 2, falling=(2,))
    return _Scan(lams, vecs, resid, norms, pt_symmetric, cpt_hermitian, unbroken, realness)


def _fails(vecs, joined, pt_map, vec_tol: float, tol: float) -> np.ndarray:
    """Per eigenvector (a row of vecs, of one point or a stack): outside its cluster (see
    ``joined``), PT does not map it to a unit-modulus multiple of itself."""
    images = np.conj(vecs) @ pt_map.T  # images[..., i] = PT map of eigenvector i
    mu = np.vecdot(vecs, images)
    fails = ((linalg._vector_norms(images - mu[..., None] * vecs) > vec_tol)
             | (np.abs(np.abs(mu) - 1.0) > tol * 10))
    fails[..., 1:] &= ~joined
    fails[..., :-1] &= ~joined
    return fails


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

    P^2 = I, T^2 = I and PT = TP are checked once, at construction, with the
    norms of P, K and the PT map PK, which the family's frames and grids carry.
    :meth:`on_grid` keeps the last :class:`FrameGrid` it built, so every stage
    of a run that asks for the same grid shares one validated pass.
    """

    c_family: OperatorFamily
    p: np.ndarray
    t: AntilinearOperator
    tol: float = DEFAULT_FRAME_TOL
    _pt: Optional[_PT] = field(default=None, init=False, repr=False, compare=False)
    _grid: Optional["FrameGrid"] = field(default=None, init=False, repr=False, compare=False)

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
        """Validated frame at time t: the C-dependent axioms checked as :func:`validate_frames`
        checks them, with the family's P/T check. A check its norm bounds settle takes no SVD."""
        return _validated(self.c_family(t), self.p, self.t, self.tol, self._pt)

    def on_grid(self, grid) -> "FrameGrid":
        """The family evaluated and validated at every grid time (see :class:`FrameGrid`).

        Returns the kept grid when ``grid`` equals its times, else builds
        and keeps a new one; a build that raises keeps nothing. A ValueError
        it raises (a :class:`FrameAxiomError`, or C or dC/dt failing to
        evaluate) names its grid position in ``index``.
        """
        grid = as_grid(grid)
        if self._grid is None or not np.array_equal(self._grid.times, grid):
            object.__setattr__(self, "_grid", FrameGrid.build(self, grid))
        return self._grid

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
    The grid carries its family's P/T check, whose PT map and its norm the
    symmetry scan takes. Build with :meth:`FrameFamily.on_grid`.
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
    _pt: Optional[_PT] = field(default=None, repr=False, compare=False)

    @classmethod
    def build(cls, family: FrameFamily, grid: np.ndarray) -> "FrameGrid":
        """Evaluate C and dC/dt at every grid time and check every axiom.

        C is evaluated on the whole grid first, then dC/dt (``linalg._stacks``):
        where either fails, at grid point k, the points before k are checked,
        and k's error is raised unless one of them fails first. The
        C-dependent axioms are checked in stacks whose SVD (five matrices a
        point) holds at most ``linalg.STACK_ENTRIES`` entries:
        :class:`FrameAxiomError` names the axiom and time of the first
        failure, :class:`ConvergenceError` the grid time and index of the
        first point whose SVD fails. Every ValueError raised here carries
        its grid point in ``index``.
        """
        P, c_family, dim = family.p, family.c_family, family.dim
        grid = np.array(grid, dtype=float)
        (c,), cdot, one_sided, failure = linalg._stacks(grid, [c_family], c_family)
        n = len(c)
        if n and c.shape[1:] != P.shape:  # the same shape at every point: fails at the first
            n, one_sided = 0, 0
            failure = linalg._at(0, ValueError(
                f"dimension mismatch: C {c.shape[1:]} at t={grid[0]}, P {P.shape}"))
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
                    c[part], P, family.t, family._pt, family.tol, grid[part], lo)
            except ConvergenceError as exc:
                raise ConvergenceError(f"frame check at t={grid[exc.index]}: {exc}",
                                       exc.index) from exc
            for axiom, resid in chunk_residuals.items():
                residuals[axiom] = max(residuals.get(axiom, 0.0), float(resid.max()))
        if failure is not None:
            raise failure
        residuals["metric min eigenvalue"] = float(eigs[:, 0].min())
        for arr in (grid, c, cdot, metric, eigs):
            arr.flags.writeable = False
        return cls(times=grid, p=P, t=family.t, c=c, cdot=cdot, metric=metric,
                   metric_eigenvalues=eigs, residuals=residuals, one_sided=one_sided,
                   _pt=family._pt)

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
            return then(_classify(self._pt.pt_map, self._pt.pt_norm, self.metric, hams, tol))
        except ConvergenceError as exc:
            raise ConvergenceError(f"symmetry scan at t={self.times[exc.index]}: {exc}",
                                   exc.index) from exc
