"""Dense complex linear algebra for small operators.

Everything here works on plain ``numpy`` arrays (``complex128``), kept dense
and small (dimensions up to a few dozen). Operations are pure functions; no
shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ConvergenceError",
    "NonFiniteError",
    "AntilinearOperator",
    "OperatorFamily",
    "as_operator",
    "as_state",
    "as_grid",
    "eigenpairs_stack",
    "operator_norm",
    "operator_norms",
    "family_derivatives",
]

DEFAULT_EIGEN_TOL = 1e-12
# Matrix entries per chunk (axiom check, eigenframe, RK4 block): each temporary stays <= 128 KiB.
STACK_ENTRIES = 2**13
# Relative margin of the bracket max|a_ij| <= ||A||_2 <= d*max|a_ij| (see _Norms), far
# above the rounding of LAPACK's largest singular value, seen up to 1 ulp below max|a_ij|.
NORM_MARGIN = 1e-8


class ConvergenceError(RuntimeError):
    """An iterative kernel failed to reach its tolerance.

    ``index`` is the position of the failing matrix in a stack, else None.
    """

    def __init__(self, message: str, index: Optional[int] = None):
        super().__init__(message)
        self.index = index


class NonFiniteError(ValueError):
    """A matrix, vector or family value holds a NaN or an infinity."""


def as_operator(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a square, finite complex matrix or raise ValueError."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if A.shape[0] < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    if not np.isfinite(A).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return A


def as_state(v, name: str = "vector") -> np.ndarray:
    """Coerce to a finite complex vector or raise ValueError."""
    x = np.asarray(v, dtype=complex)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return x


def as_grid(values, name: str = "grid") -> np.ndarray:
    """Coerce to a strictly increasing float array of at least two times or raise ValueError."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0):
        raise ValueError(f"{name} must be a strictly increasing array of at least two time points")
    return grid


@dataclass(frozen=True)
class AntilinearOperator:
    """Antilinear map x -> K conj(x), held as its matrix K (``conj_matrix``).

    Composing it with itself gives the linear map K conj(K); the frame check
    (``frames._pt_axioms``) forms that product and compares it against the
    identity.
    """

    conj_matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "conj_matrix", as_operator(self.conj_matrix, "conj_matrix"))

    @classmethod
    def conjugation(cls, dim: int) -> "AntilinearOperator":
        """Plain componentwise complex conjugation."""
        return cls(np.eye(dim, dtype=complex))


@dataclass(frozen=True)
class OperatorFamily:
    """Time-parametrized matrix t -> M(t) on [t_start, t_end].

    ``evaluate`` and ``derivative`` map a float t to a (d, d) array; with
    ``vectorized=True`` they also map an (n,) time array to the (n, d, d)
    stack in one call, else stacks call them once per time. ``derivative``,
    when given, must be the analytic d/dt of ``evaluate``; otherwise
    derivatives fall back to central differences (see :func:`family_derivatives`).
    :meth:`on_grid` keeps the last grid stack it built, so every stage of a
    run that asks for the same grid shares one evaluation a point. A ValueError
    leaving :meth:`stack`, :meth:`on_grid` or :func:`family_derivatives` is
    the earliest failing time's, with that time's position in ``index``.
    """

    t_start: float
    t_end: float
    evaluate: Callable[[float], np.ndarray]
    derivative: Optional[Callable[[float], np.ndarray]] = None
    vectorized: bool = field(default=False, kw_only=True)
    _grid: tuple = field(default=(), init=False, repr=False, compare=False)  # (times, stack)

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValueError(f"empty family domain [{self.t_start}, {self.t_end}]")

    def __call__(self, t: float) -> np.ndarray:
        if t < self.t_start or t > self.t_end:
            raise ValueError(f"t={t} outside family domain [{self.t_start}, {self.t_end}]")
        return as_operator(self.evaluate(t), f"family value at t={t}")

    def stack(self, times) -> np.ndarray:
        """M(t) at each of ``times`` as one (n, d, d) array, evaluated in order up to the first
        time outside the domain; raises what :meth:`__call__` raises at the earliest failing time."""
        return self._in_domain(self.evaluate, times, "family value")

    def _in_domain(self, fn: Callable, times, name: str) -> np.ndarray:
        """``_stack_of(fn, times, name)`` on the times before the first one outside the domain,
        whose ValueError is raised unless a value before it fails first."""
        times = np.asarray(times, dtype=float)
        outside = (times < self.t_start) | (times > self.t_end)
        n = int(np.argmax(outside)) if outside.any() else times.size
        out = _stack_of(fn, times[:n], name, self.vectorized)
        if n < times.size:
            raise _at(n, ValueError(f"t={times[n]} outside family domain [{self.t_start}, {self.t_end}]"))
        return out

    def on_grid(self, grid) -> np.ndarray:
        """M(t) at every grid time as one read-only (n_t, d, d) :meth:`stack`.

        Returns the kept stack when ``grid`` equals its times, else builds
        and keeps a new one; a stack that raises keeps nothing.
        """
        grid = as_grid(grid)
        if not (self._grid and np.array_equal(self._grid[0], grid)):
            times = grid.copy()
            values = self.stack(times)
            times.flags.writeable = values.flags.writeable = False
            object.__setattr__(self, "_grid", (times, values))
        return self._grid[1]

    @classmethod
    def constant(cls, M) -> "OperatorFamily":
        A = as_operator(M)
        return cls(-math.inf, math.inf, lambda t: np.broadcast_to(A, np.shape(t) + A.shape),
                   lambda t: np.zeros(np.shape(t) + A.shape, dtype=complex), vectorized=True)


def _at(index: int, error: ValueError) -> ValueError:
    """``error``, with the position of its failing time in ``index``."""
    error.index = index
    return error


def _stack_of(fn: Callable[[float], np.ndarray], times: np.ndarray, name: str,
              vectorized: bool = False) -> np.ndarray:
    """``fn(t)`` at each of ``times`` as one stack: one call ``fn(times)`` when ``vectorized`` (one
    time at a time if that raises a ValueError; else it is raised at index 0). The first value
    ``as_operator(fn(t), f"{name} at t={t}")`` would reject raises, also when ``fn`` raises later."""
    if vectorized and times.size:
        try:
            values = fn(times)
        except ValueError as exc:
            _stack_of(fn, times, name)
            raise _at(0, exc)
        return _checked(times, values, name)
    values = []
    try:
        for t in times:
            values.append(fn(t))
    except Exception as exc:
        _checked(times, values, name)
        raise _at(len(values), exc) if isinstance(exc, ValueError) else exc
    return _checked(times, values, name)


def _checked(times: np.ndarray, values: list, name: str) -> np.ndarray:
    """``values`` (taken at ``times``) as one stack, or the ValueError for the first bad one."""
    if len(values) == 0:
        return np.empty((0, 0, 0), dtype=complex)
    try:
        out = np.array(values, dtype=complex, order="C")  # whatever layout a family returns
    except ValueError:  # ragged shapes
        out = None
    if out is None or out.ndim != 3 or out.shape[1] != out.shape[2] or out.shape[1] < 1:
        # the one-point check, or a shape unlike the first value's, raises at the first bad value
        out = []
        for k, (t, v) in enumerate(zip(times, values)):
            try:
                out.append(as_operator(v, f"{name} at t={t}"))
                if out[-1].shape != out[0].shape:
                    raise ValueError(f"{name} at t={t} has shape {out[-1].shape}, expected {out[0].shape}")
            except ValueError as exc:
                raise _at(k, exc)
        out = np.array(out)
    if not np.isfinite(out).all():  # only a stack that fails is scanned matrix by matrix
        k = int(np.argmin(np.isfinite(out).all(axis=(1, 2))))
        raise _at(k, NonFiniteError(f"{name} at t={times[k]} contains non-finite entries"))
    return out


def _stacks(times: np.ndarray, families, derivative: Optional[OperatorFamily] = None,
            on_grid: bool = False) -> tuple:
    """The stacks of ``families`` at ``times`` (first as kept grid stacks with ``on_grid``), then
    ``family_derivatives(derivative, times)``, in the one-point order: each on the times before the
    earliest failure so far. Returns the stacks and derivatives there, the one-sided count, and
    the earliest failing time's ValueError (its ``index`` the time's position), or None."""
    n, failure = times.size, None

    def before_failure(evaluate: Callable, whole: Optional[Callable] = None):
        nonlocal n, failure
        while True:
            try:
                return (whole if whole and n == times.size else evaluate)(times[:n])
            except ValueError as exc:
                n, failure = exc.index, exc

    stacks = [before_failure(F.stack, on_grid and F.on_grid) for F in families]
    derivatives, one_sided = (before_failure(lambda ts: family_derivatives(derivative, ts))
                              if derivative else (None, 0))
    return [stack[:n] for stack in stacks], derivatives, one_sided, failure


def operator_norm(M) -> float:
    """Largest singular value (:func:`operator_norms` of one matrix)."""
    return float(operator_norms(as_operator(M)))


def operator_norms(X) -> np.ndarray:
    """Largest singular value of each matrix in a stack, by LAPACK's SVD (``np.linalg.norm(A, 2)``).

    An all-zero matrix gives +0.0 without an SVD. An SVD that does not
    converge raises :class:`ConvergenceError` with the position of the first
    failing matrix in ``index``, found by taking the matrices one at a time
    once the stacked SVD has failed.
    """
    X = np.asarray(X)
    return _Norms((X.reshape(-1, *X.shape[-2:]),), (True,)).lo.reshape(X.shape[:-2])


class _Norms:
    """Operator norms ||A||_2 of the matrices of stacks, as bounds ``lo <= ||A||_2 <= hi``
    that an SVD makes exact (``lo = hi``, the value :func:`operator_norms` gives).

    The bounds are max|a_ij| <= ||A||_2 <= d*max|a_ij|, widened by ``NORM_MARGIN``. Each
    |a_ij| is a hypotenuse, so no square underflows or overflows. ``exact[i]`` asks for the
    exact norms of ``stacks[i]``. Those, and the norm of every matrix whose entries are not
    all finite, come from one SVD in the order of the stacks' concatenation; an all-zero
    matrix is +0.0 without one. :meth:`decide` takes further SVDs only where the bounds
    leave a check open. Each stack holds one matrix per point start, ..., start + n - 1, and
    an SVD that fails at matrix j of the concatenation raises :class:`ConvergenceError`
    naming point start + j mod n.
    """

    def __init__(self, stacks, exact, start: int = 0):
        self._stacks, self._start, self._n, self._parts = stacks, start, len(stacks[0]), []
        end = 0
        for stack in stacks:
            self._parts.append(slice(end, end + len(stack)))
            end += len(stack)
        amax = np.concatenate([np.abs(stack).max(axis=(-2, -1)) for stack in stacks])
        with np.errstate(over="ignore"):
            bounds = np.multiply.outer(amax, (1.0 - NORM_MARGIN,
                                              stacks[0].shape[-1] * (1.0 + NORM_MARGIN)))
        self.lo, self.hi = bounds[:, 0], bounds[:, 1]
        # an SVD where max|a_ij| is above 0 in a stack asked exact, elsewhere above the
        # largest float, and where it is NaN
        above = np.full(amax.shape, np.finfo(float).max)
        for part, wanted in zip(self._parts, exact):
            if wanted:
                above[part] = 0.0
        self._make_exact(~(amax <= above))
        # the stacks asked exact take no further SVD: let them go
        self._stacks = [None if wanted else stack for stack, wanted in zip(stacks, exact)]

    def _svd(self, todo: np.ndarray) -> np.ndarray:
        """Largest singular values of the matrices in the mask ``todo``, in the order of the
        stacks' concatenation, by one LAPACK SVD (the routine ``np.linalg.norm(A, 2)`` takes).
        When it fails, the first of these matrices whose SVD fails on its own, matrix j of the
        concatenation, raises :class:`ConvergenceError` naming point start + j mod n."""
        X = np.concatenate([stack[todo[part]] for stack, part in zip(self._stacks, self._parts)
                            if stack is not None])  # only the matrices asked for are copied
        try:
            return np.linalg.svd(X, compute_uv=False).max(axis=-1)
        except np.linalg.LinAlgError:
            for j, A in zip(np.flatnonzero(todo), X):
                try:
                    np.linalg.svd(A, compute_uv=False)
                except np.linalg.LinAlgError as exc:
                    k = self._start + int(j) % self._n
                    raise ConvergenceError(f"SVD did not converge for stack matrix {k}",
                                           index=k) from exc
            raise

    def _make_exact(self, todo: np.ndarray):
        """Make the norms of the matrices in the mask ``todo`` exact."""
        if todo.any():
            self.lo[todo] = self.hi[todo] = self._svd(todo)

    def _settle(self, points: np.ndarray, *parts: int):
        """Make the norms of stacks ``parts`` exact at the points of the mask ``points``."""
        todo = np.zeros(self.lo.shape, dtype=bool)
        for i in parts:
            todo[self._parts[i]] = points
        self._make_exact(todo & (self.lo < self.hi))  # lo = hi once exact

    def exact(self, i: int, points: Optional[np.ndarray] = None) -> np.ndarray:
        """The norms of stack ``i``, exact at the points of the mask ``points`` (all if None)."""
        part = self._parts[i]
        self._settle(np.ones(part.stop - part.start, bool) if points is None else points, i)
        return self.lo[part]

    def decide(self, check: Callable[..., np.ndarray], *parts: int, falling=()) -> np.ndarray:
        """``check`` of the exact norms of stacks ``parts``, taken from the bounds wherever they
        settle it. ``check`` maps arrays of the stacks' norms to an array whose first axis runs
        over the points, and each of its values must fall with the norms of the stacks in
        ``falling`` and rise with the others, or the reverse: so where its values at the two
        opposite corners of the bounds agree, so does its value at the norms. Elsewhere those
        points' norms are made exact first."""
        with np.errstate(over="ignore", invalid="ignore"):
            value = check(*((self.hi if i in falling else self.lo)[self._parts[i]] for i in parts))
            open_ = value != check(*((self.lo if i in falling else self.hi)[self._parts[i]]
                                     for i in parts))
            if open_.any():
                self._settle(open_.reshape(len(open_), -1).any(axis=1), *parts)
                value = check(*(self.lo[self._parts[i]] for i in parts))
        return value


def _vector_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each vector along the last axis, rounded as ``np.linalg.norm(v)``."""
    return np.sqrt(np.vecdot(X.real, X.real) + np.vecdot(X.imag, X.imag))


def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise complex product, written out as numpy's scalar arithmetic evaluates it.

    numpy's vectorised complex product rounds differently on some inputs;
    this keeps every matrix of a stack bit-identical to the one-point case.
    """
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _ldexp(Z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Z * 2**e for a C-contiguous complex Z, on its real and imaginary parts (``e`` broadcast
    against Z's float view): exact where no part leaves the normal range, signed zeros kept."""
    return np.ldexp(Z.view(float), e).view(complex)


def _eigenpairs_2x2(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenpairs of a stack of 2x2 matrices via the quadratic formula.

    Returns values (n, 2) and unit row eigenvectors (n, 2, 2), unsorted. A
    diagonal matrix (b = c = 0) keeps its diagonal and the unit vectors.
    Each other matrix is scaled by the power of two 2**-e that brings its
    largest real or imaginary part into [1/2, 1) (e from ``np.frexp``)
    before the formula, and its eigenvalues scaled back by 2**e, so no
    product underflows or overflows. The scaling is exact: a matrix whose
    products stay in the normal range gets the bits of the unscaled formula.
    """
    lams = np.stack([M[:, 0, 0], M[:, 1, 1]], axis=1)
    vecs = np.zeros(M.shape, dtype=complex)
    vecs[:, 0, 0] = vecs[:, 1, 1] = 1.0
    g = np.nonzero((M[:, 0, 1] != 0) | (M[:, 1, 0] != 0))[0]
    S = M[g]
    # each matrix's largest part, reduced over the leading axis of an (8, n) copy (a reduction
    # over the short last axis of an (n, 8) array takes about 8 times as long)
    e = np.frexp(np.abs(S.view(float).reshape(len(g), 8).T.copy()).max(axis=0))[1]
    a, b, c, d = _ldexp(S, -e[:, None, None]).reshape(-1, 4).T.copy()  # contiguous rows
    mean = 0.5 * (a + d)
    disc = np.sqrt(0.25 * _cmul(a - d, a - d) + _cmul(b, c) + 0j)
    lam = np.stack([mean - disc, mean + disc], axis=1)
    # Two candidate null vectors of (M - lam I); take the better conditioned.
    cand1 = np.stack([np.broadcast_to(b[:, None], lam.shape), lam - a[:, None]], axis=-1)
    cand2 = np.stack([lam - d[:, None], np.broadcast_to(c[:, None], lam.shape)], axis=-1)
    norm1, norm2 = _vector_norms(cand1), _vector_norms(cand2)
    first = norm1 >= norm2
    lams[g] = _ldexp(lam, e[:, None])
    vecs[g] = np.where(first[..., None], cand1, cand2) / np.where(first, norm1, norm2)[..., None]
    return lams, vecs


def _phase_gauge(V: np.ndarray) -> np.ndarray:
    """Rotate each row of an (n, d, d) stack so its first largest-modulus entry is real positive."""
    rows = V.reshape(-1, V.shape[-1])
    pivot = rows[np.arange(rows.shape[0]), np.argmax(np.abs(rows), axis=-1)].reshape(*V.shape[:-1], 1)
    gauged = V * (np.conj(pivot) / np.hypot(pivot.real, pivot.imag))
    return np.where(pivot == 0.0, V, gauged)


def _eig(X: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK eigenpairs of a stack, vectors as rows.

    When the stacked solve fails, the first matrix LAPACK rejects on its
    own raises :class:`ConvergenceError`, after the checks of the matrices
    before it.
    """
    try:
        lams, vecs = np.linalg.eig(X)
    except np.linalg.LinAlgError:
        for k, A in enumerate(X):
            try:
                np.linalg.eig(A)
            except np.linalg.LinAlgError as exc:
                eigenpairs_stack(X[:k], tol)
                raise ConvergenceError(f"eigendecomposition failed for matrix:\n{A}", index=k) from exc
        raise
    return lams, vecs.swapaxes(-1, -2)


def eigenpairs_stack(X, tol: float = DEFAULT_EIGEN_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of each matrix in an (n, d, d) stack.

    Returns ``(values, vectors)`` of shapes (n, d) and (n, d, d), where
    ``vectors[k, i]`` is the eigenvector (a row) of ``values[k, i]``. Per
    matrix, pairs are sorted by (real, imaginary) part of the eigenvalue,
    have unit Euclidean norm and a deterministic phase gauge (the first
    largest-modulus component is real positive), and pass the residual
    check ``||M v - lam v|| <= tol * ||M||``. Each matrix gets the same bits
    whatever stack it is solved in.

    2x2 matrices use the closed-form quadratic elementwise; larger ones a
    stacked LAPACK solve, of the whole stack at once. The first matrix that
    fails raises :class:`ConvergenceError` with its position in ``index``.
    """
    X = np.asarray(X, dtype=complex)
    lams, vecs, resid = _solved_pairs(X, tol)
    _check_pairs(X, resid, tol, _Norms((X,), (False,)))
    return lams, vecs


def _solved_pairs(X: np.ndarray, tol: float) -> tuple:
    """The sorted, unit, phase-gauged eigenpairs of :func:`eigenpairs_stack` and their
    residuals ||M v - lam v||, before the residual check (:func:`_check_pairs`)."""
    if X.ndim != 3 or X.shape[1] != X.shape[2] or X.shape[1] < 1:
        raise ValueError(f"matrix stack must have shape (n, d, d) with d >= 1, got {X.shape}")
    if not np.isfinite(X).all():
        raise NonFiniteError("matrix stack contains non-finite entries")
    if tol <= 0:
        raise ValueError("tol must be positive")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the residual check
        lams, vecs = _eigenpairs_2x2(X) if X.shape[1] == 2 else _eig(X, tol)
        order = np.lexsort((lams.imag, lams.real), axis=-1)
        rows = np.arange(X.shape[0])[:, None]
        lams, vecs = lams[rows, order], vecs[rows, order]
        vecs = _phase_gauge(vecs / _vector_norms(vecs)[..., None])
        resid = _vector_norms(np.matmul(X[:, None], vecs[..., None])[..., 0] - lams[..., None] * vecs)
    return lams, vecs, resid


def _check_pairs(X: np.ndarray, resid: np.ndarray, tol: float, norms: _Norms):
    """Raise :class:`ConvergenceError` at the first X[k] with a residual resid[k, i] > tol*||X[k]||,
    ||X[k]|| decided from stack 0 of the check's :class:`_Norms` ``norms``."""
    # a NaN residual fails
    bad = ~norms.decide(lambda nM: resid <= tol * np.maximum(nM, 1e-300)[:, None], 0)
    if bad.any():
        k = int(np.argmax(bad.any(axis=1)))
        i = int(np.argmax(bad[k]))
        raise ConvergenceError(
            f"eigenpair residual {resid[k, i]:.3e} exceeds {tol:.1e}*||M|| for matrix:\n{X[k]}",
            index=k,
        )


def family_derivatives(F: OperatorFamily, times) -> tuple[np.ndarray, int]:
    """d/dt of an operator family at each of ``times`` (an (n, d, d) stack), and the one-sided count.

    The analytic derivative if the family has one, on the family's domain as
    :meth:`OperatorFamily.stack` takes it, else central differences with step
    h = ``1e-5 * max(1, |t|)``, one-sided near a domain edge. Evaluated as
    one stack in point-by-point order, so values and the earliest failing
    time's error are the one-point stencil's. No logging.
    """
    if F.derivative is not None:
        return F._in_domain(F.derivative, times, "family derivative"), 0
    times = np.asarray(times, dtype=float)
    h = 1e-5 * np.fmax(1.0, np.abs(times))  # fmax: a NaN t keeps h = 1e-5, as max() does
    lo, hi = F.t_start, F.t_end
    central = (times - h >= lo) & (times + h <= hi)
    forward = ~central & (times + 2 * h <= hi)
    backward = ~central & ~forward & (times - 2 * h >= lo)
    fits = central | forward | backward
    n = times.size if fits.all() else int(np.argmin(fits))
    # stencil times: (t + h, t - h) if central, else (t, t + s, t + 2s) with s = +-h
    s = np.where(forward, h, -h)
    nodes = np.stack([np.where(central, times + h, times), times + s, times + 2 * s], axis=1)
    used = np.column_stack((np.ones((times.size, 2), dtype=bool), ~central))
    try:
        values = F.stack(nodes[:n][used[:n]])
    except ValueError as exc:  # a failing stencil node names its time
        raise _at(int(np.nonzero(used[:n])[0][exc.index]), exc)
    if n < times.size:
        raise _at(n, ValueError(f"domain [{lo}, {hi}] too small for step h={h[n]} at t={times[n]}"))
    y = np.zeros(nodes.shape + values.shape[1:], dtype=complex)
    y[used] = values
    y0, y1, y2, two_h = y[:, 0], y[:, 1], y[:, 2], (2.0 * h)[:, None, None]
    out = np.empty_like(y0)
    out[central] = (y0[central] - y1[central]) / two_h[central]
    out[forward] = (-3.0 * y0[forward] + 4.0 * y1[forward] - y2[forward]) / two_h[forward]
    out[backward] = (3.0 * y0[backward] - 4.0 * y1[backward] + y2[backward]) / two_h[backward]
    return out, int(np.count_nonzero(forward | backward))
