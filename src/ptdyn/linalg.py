"""Dense complex linear algebra for small operators.

Everything here works on plain ``numpy`` arrays (``complex128``), kept dense
and small (dimensions up to a few dozen). Operations are pure functions; no
shared mutable state.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ConvergenceError",
    "AntilinearOperator",
    "OperatorFamily",
    "as_operator",
    "as_state",
    "as_grid",
    "eigenpairs",
    "hermitian_sqrt",
    "operator_norm",
    "family_derivative",
]

logger = logging.getLogger(__name__)

DEFAULT_EIGEN_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """An iterative kernel failed to reach its tolerance."""


def as_operator(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a square, finite complex matrix or raise ValueError."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if A.shape[0] < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def as_state(v, name: str = "vector") -> np.ndarray:
    """Coerce to a finite complex vector or raise ValueError."""
    x = np.asarray(v, dtype=complex)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def as_grid(values, name: str = "grid") -> np.ndarray:
    """Coerce to a strictly increasing float array of at least two times or raise ValueError."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0):
        raise ValueError(f"{name} must be a strictly increasing array of at least two time points")
    return grid


@dataclass(frozen=True)
class AntilinearOperator:
    """Antilinear map x -> K conj(x).

    Composing with itself gives the linear map K conj(K), which the frame
    validation compares against the identity.
    """

    conj_matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "conj_matrix", as_operator(self.conj_matrix, "conj_matrix"))

    @property
    def dim(self) -> int:
        return self.conj_matrix.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.conj_matrix @ np.conj(as_state(x))

    def squared(self) -> np.ndarray:
        """Matrix of the (linear) composition T∘T."""
        return self.conj_matrix @ np.conj(self.conj_matrix)

    @classmethod
    def conjugation(cls, dim: int) -> "AntilinearOperator":
        """Plain componentwise complex conjugation."""
        return cls(np.eye(dim, dtype=complex))


@dataclass(frozen=True)
class OperatorFamily:
    """Time-parametrized matrix t -> M(t) on [t_start, t_end].

    ``derivative``, when given, must be the analytic d/dt of ``evaluate``;
    otherwise derivatives fall back to central differences
    (see :func:`family_derivative`).
    """

    t_start: float
    t_end: float
    evaluate: Callable[[float], np.ndarray]
    derivative: Optional[Callable[[float], np.ndarray]] = None

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValueError(f"empty family domain [{self.t_start}, {self.t_end}]")

    def __call__(self, t: float) -> np.ndarray:
        if t < self.t_start or t > self.t_end:
            raise ValueError(f"t={t} outside family domain [{self.t_start}, {self.t_end}]")
        return as_operator(self.evaluate(t), f"family value at t={t}")

    def stack(self, times) -> np.ndarray:
        """M(t) at each of ``times`` as one (n, d, d) array.

        Calls ``evaluate`` once per time, in order, up to the first time
        outside the domain, then checks finiteness once for the stack. A
        failure raises the ValueError :meth:`__call__` raises, for the
        earliest offending time.
        """
        times = np.asarray(times, dtype=float)
        outside = (times < self.t_start) | (times > self.t_end)
        n = int(np.argmax(outside)) if outside.any() else times.size
        out = np.empty((0, 0, 0), dtype=complex)
        if n:
            values = [self.evaluate(t) for t in times[:n]]
            try:
                out = np.array(values, dtype=complex)
            except ValueError:  # ragged shapes
                out = None
            if out is None or out.ndim != 3 or out.shape[1] != out.shape[2] or out.shape[1] < 1:
                # the one-point check raises at the first value it rejects
                out = np.array([as_operator(v, f"family value at t={t}")
                                for t, v in zip(times, values)])
            bad = ~np.isfinite(out).all(axis=(1, 2))
            if bad.any():
                raise ValueError(f"family value at t={times[np.argmax(bad)]} contains non-finite entries")
        if n < times.size:
            raise ValueError(f"t={times[n]} outside family domain [{self.t_start}, {self.t_end}]")
        return out

    @classmethod
    def constant(cls, M) -> "OperatorFamily":
        A = as_operator(M)
        return cls(-math.inf, math.inf, lambda t: A, lambda t: np.zeros_like(A))


def operator_norm(M) -> float:
    """Largest singular value."""
    A = as_operator(M)
    return float(np.linalg.norm(A, 2))


def _eigenpairs_2x2(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenpairs of a 2x2 matrix via the quadratic formula."""
    a, b = M[0, 0], M[0, 1]
    c, d = M[1, 0], M[1, 1]
    if b == 0 and c == 0:
        return np.array([a, d]), np.eye(2, dtype=complex)
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
    return lams, vecs


def _phase_gauge(v: np.ndarray) -> np.ndarray:
    """Rotate so the first largest-modulus component is real and positive."""
    i = int(np.argmax(np.abs(v)))
    pivot = v[i]
    if pivot == 0.0:
        return v
    return v * (np.conj(pivot) / abs(pivot))


def eigenpairs(M, tol: float = DEFAULT_EIGEN_TOL) -> list[tuple[complex, np.ndarray]]:
    """Eigenvalue/eigenvector pairs of a square complex matrix.

    Pairs are sorted by (real, imaginary) part of the eigenvalue ascending.
    Eigenvectors have unit Euclidean norm and a deterministic phase gauge
    (the first largest-modulus component is real positive). Every pair is
    verified to satisfy ``||M v - lam v|| <= tol * ||M||``.

    2x2 inputs use the closed-form quadratic; larger ones use the LAPACK
    dense solver. A failed residual check raises :class:`ConvergenceError`.
    """
    A = as_operator(M)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if A.shape[0] == 2:
        lams, vecs = _eigenpairs_2x2(A)
    else:
        try:
            lams, vecs = np.linalg.eig(A)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"eigendecomposition failed for matrix:\n{A}") from exc

    order = np.lexsort((lams.imag, lams.real))
    scale = operator_norm(A)
    out = []
    for idx in order:
        lam = complex(lams[idx])
        v = vecs[:, idx]
        v = _phase_gauge(v / np.linalg.norm(v))
        resid = float(np.linalg.norm(A @ v - lam * v))
        if resid > tol * max(scale, 1e-300):
            raise ConvergenceError(
                f"eigenpair residual {resid:.3e} exceeds {tol:.1e}*||M|| for matrix:\n{A}"
            )
        out.append((lam, v))
    return out


def hermitian_sqrt(M, tol: float = DEFAULT_EIGEN_TOL * 10) -> np.ndarray:
    """Positive-definite square root of a Hermitian positive matrix.

    Raises ValueError if M is not Hermitian to within ``tol`` (relative) or
    has an eigenvalue at or below ``tol`` — such an M is not a valid metric.
    """
    A = as_operator(M)
    scale = operator_norm(A)
    herm_resid = float(np.linalg.norm(A - A.conj().T))
    if herm_resid > tol * max(scale, 1.0):
        raise ValueError(f"not Hermitian: ||M - M^dag|| = {herm_resid:.3e}")
    Ah = 0.5 * (A + A.conj().T)
    w, V = np.linalg.eigh(Ah)
    if np.min(w) <= tol:
        raise ValueError(
            f"not a valid metric: minimum eigenvalue {np.min(w):.3e} <= {tol:.1e}"
        )
    S = (V * np.sqrt(w)) @ V.conj().T
    return 0.5 * (S + S.conj().T)


def family_derivative(F: OperatorFamily, t: float, h: Optional[float] = None) -> np.ndarray:
    """d/dt of an operator family at t.

    Uses the analytic derivative when the family carries one; otherwise a
    central difference with step ``h`` (default ``1e-5 * max(1, |t|)``).
    Near a domain edge the stencil degrades to a one-sided second-order
    difference and the downgrade is logged.
    """
    value, one_sided = derivative_stencil(F, t, h)
    if one_sided:
        logger.warning("one-sided derivative at t=%g (domain [%g, %g])", t, F.t_start, F.t_end)
    return value


def derivative_stencil(F: OperatorFamily, t: float, h: Optional[float] = None
                       ) -> tuple[np.ndarray, bool]:
    """:func:`family_derivative` without the log line: (value, whether one-sided)."""
    if F.derivative is not None:
        return as_operator(F.derivative(t), f"family derivative at t={t}"), False
    if h is None:
        h = 1e-5 * max(1.0, abs(t))
    if h <= 0:
        raise ValueError("h must be positive")
    lo, hi = F.t_start, F.t_end
    if t - h >= lo and t + h <= hi:
        return (F(t + h) - F(t - h)) / (2.0 * h), False
    if t + 2 * h <= hi:
        return (-3.0 * F(t) + 4.0 * F(t + h) - F(t + 2 * h)) / (2.0 * h), True
    if t - 2 * h >= lo:
        return (3.0 * F(t) - 4.0 * F(t - h) + F(t - 2 * h)) / (2.0 * h), True
    raise ValueError(f"domain [{lo}, {hi}] too small for step h={h} at t={t}")
