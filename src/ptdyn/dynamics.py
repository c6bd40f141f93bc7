"""Time evolution under a time-dependent metric.

Three evolution equations are supported, differing in their generator:

* ``SCHRODINGER``   — i hbar dphi/dt = H(t) phi
* ``AUGMENTED``     — i hbar dphi/dt = (H(t) + i G(t)) phi, user-supplied G
* ``COMPENSATED``   — i hbar dphi/dt = (H(t) - (i hbar/2) C(t) Cdot(t)) phi

The compensated generator cancels the norm drift caused by a time-varying
metric, making the evolution unitary between the instantaneous inner-product
spaces. Integration is classical fixed-step fourth-order Runge-Kutta; the
trajectory records the frame norm and the drift-rate diagnostic at every
grid point.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import linalg
from .frames import FrameFamily
from .linalg import OperatorFamily, as_grid, as_state

__all__ = [
    "Equation",
    "IntegrationAbort",
    "EvolutionProblem",
    "OperatorFamily",
    "Trajectory",
    "effective_generator",
    "norm_drift_rate",
    "evolve_state",
    "evolve_propagator",
]

logger = logging.getLogger(__name__)

# Default substep count per grid interval: ceil(100 * ||generator|| * dt).
SUBSTEP_DENSITY = 100.0
# Warn when a single Runge-Kutta substep is coarser than this.
STEP_NORM_WARN = 0.5


class Equation(Enum):
    SCHRODINGER = "schrodinger"
    AUGMENTED = "augmented"
    COMPENSATED = "compensated"


class IntegrationAbort(RuntimeError):
    """State became non-finite; carries the last time that was still good."""

    def __init__(self, message: str, last_good_t: float):
        super().__init__(message)
        self.last_good_t = last_good_t


@dataclass(frozen=True)
class EvolutionProblem:
    """One evolution run: generator ingredients, grid, and initial state.

    ``correction`` is the G family of the AUGMENTED equation and must be
    present exactly for that equation. ``substeps``, when given, fixes the
    Runge-Kutta substep count per grid interval; otherwise the count scales
    with the local generator norm.
    """

    hamiltonian: OperatorFamily
    frame_family: FrameFamily
    grid: np.ndarray
    equation: Equation
    initial_state: np.ndarray
    correction: Optional[OperatorFamily] = None
    hbar: float = 1.0
    substeps: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "grid", as_grid(self.grid))
        object.__setattr__(self, "initial_state", as_state(self.initial_state, "initial_state"))
        if self.initial_state.shape[0] != self.frame_family.dim:
            raise ValueError("initial_state dimension does not match the frame")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if self.equation is Equation.AUGMENTED and self.correction is None:
            raise ValueError("AUGMENTED equation requires a correction family G")
        if self.equation is not Equation.AUGMENTED and self.correction is not None:
            raise ValueError(f"{self.equation.name} equation forbids a correction family")
        if self.substeps is not None and self.substeps < 1:
            raise ValueError("substeps must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    """Per-grid-point record of an integrated state evolution.

    ``diagnostics`` holds ``substeps`` (the RK4 substep count of each grid
    interval) and ``generator_evaluations`` (how many times the generator
    was evaluated); both are deterministic.
    """

    times: np.ndarray
    states: np.ndarray      # (n_t, dim)
    cpt_norms: np.ndarray   # (n_t,)
    drift_rates: np.ndarray  # (n_t,)
    diagnostics: dict = field(repr=False, default_factory=dict)

    @property
    def max_norm_drift(self) -> float:
        """Largest deviation of the frame norm from its initial value."""
        return float(np.max(np.abs(self.cpt_norms - self.cpt_norms[0])))


def effective_generator(problem: EvolutionProblem, t: float) -> np.ndarray:
    """The matrix on the right-hand side of i hbar dphi/dt = (...) phi.

    This is the one-point case of the stacked evaluation the integrator uses.
    """
    gens, one_sided = _generators(problem, np.array([t], dtype=float))
    if one_sided:
        logger.warning("one-sided derivative of C at t=%g", t)
    return gens[0]


def _generators(problem: EvolutionProblem, times: np.ndarray) -> tuple[np.ndarray, int]:
    """The generator at each of ``times`` as an (n, d, d) stack.

    Also returns how many dC/dt values fell back to a one-sided difference.
    Each input family is evaluated once per time (see
    :meth:`OperatorFamily.stack`); an input that fails at some time raises
    the error its one-point evaluation raises there.
    """
    H = problem.hamiltonian.stack(times)
    if problem.equation is Equation.SCHRODINGER:
        return H, 0
    if problem.equation is Equation.AUGMENTED:
        return H + 1j * problem.correction.stack(times), 0
    c_family = problem.frame_family.c_family
    C = c_family.stack(times)
    Cdot, one_sided = linalg.family_derivatives(c_family, times)
    return H - 0.5j * problem.hbar * (C @ Cdot), one_sided


def norm_drift_rate(problem: EvolutionProblem, phi: np.ndarray, t: float) -> float:
    """d/dt of the squared frame norm along a solution at (phi, t).

    For the Schrodinger equation this is <phi|P Cdot phi>; the augmented
    equation adds (2/hbar) PC G. For the compensated equation the quantity
    vanishes identically and the computed value is returned as a residual
    health check. The value is analytically real; a notable imaginary part
    is logged. This is the one-point case of the rates :func:`evolve_state`
    records.
    """
    fam = problem.frame_family
    C = fam.c_at(t)
    return float(_drift_rates(
        problem, np.array([t]), C[None], fam.cdot_at(t)[None], (fam.p @ C)[None],
        as_state(phi)[None],
    )[0])


def _drift_rates(problem: EvolutionProblem, times, c, cdot, metric, states) -> np.ndarray:
    """:func:`norm_drift_rate` at each (times[k], states[k]) from stacked C, dC/dt and PC.

    When any value has an imaginary part above 1e-10 * max(|value|, 1), the
    largest |Im| and its time are logged once.
    """
    cdot_phi = np.einsum("kij,kj->ki", cdot, states)
    op_phi = np.einsum("ij,kj->ki", problem.frame_family.p, cdot_phi)
    if problem.equation is Equation.AUGMENTED:
        g = problem.correction.stack(times)
        op_phi = op_phi + (2.0 / problem.hbar) * np.einsum(
            "kij,kj->ki", metric, np.einsum("kij,kj->ki", g, states))
    elif problem.equation is Equation.COMPENSATED:
        op_phi = op_phi - np.einsum("kij,kj->ki", metric, np.einsum("kij,kj->ki", c, cdot_phi))
    vals = np.einsum("ki,ki->k", states.conj(), op_phi)
    imag = np.abs(vals.imag)
    if np.any(imag > 1e-10 * np.maximum(np.abs(vals), 1.0)):
        k = int(np.argmax(imag))
        logger.debug("drift rate imaginary residual: max |Im| %.3e at t=%g", imag[k], times[k])
    return vals.real


def _rk4_run(problem: EvolutionProblem, y0: np.ndarray):
    """Fixed-step RK4 over the grid; returns (values at grid points, diagnostics).

    The right-hand side is y' = -(i/hbar) * generator(t) y. The substep
    count of an interval follows from the generator norm at its start.
    Each block of substeps (three (d, d) matrices each, within
    ``linalg.STACK_ENTRIES`` entries) then evaluates the generator once per
    distinct node time as one ascending stack; the nodes of a substep are
    t = t0 + j*h, t + 0.5*h and t + h, the float expressions of the
    one-point scheme. The last node's matrix is kept and reused when the
    next block or interval starts at the same time. The state arithmetic
    is the classical one-point RK4, so the values are bit-identical to
    evaluating the generator at every stage. Works unchanged for state
    vectors and for propagator matrices.

    ``diagnostics`` holds the substep count of each interval and the number
    of generator evaluations. The nodes whose dC/dt fell back to a one-sided
    difference are logged once per run, with their count.
    """
    rate = -1j / problem.hbar
    grid = problem.grid
    y = y0.astype(complex)
    values = [y]
    substeps_used = []
    evaluations = one_sided = 0
    block = max(1, linalg.STACK_ENTRIES // (3 * problem.frame_family.dim ** 2))
    kept_t, kept = math.nan, None  # the last evaluated node and its generator

    def generators_at(nodes: np.ndarray) -> np.ndarray:
        """Generators at the ascending, distinct ``nodes``, reusing the kept one."""
        nonlocal evaluations, one_sided, kept_t, kept
        reuse = nodes[0] == kept_t
        fresh = nodes[1:] if reuse else nodes
        if fresh.size:
            gens, edges = _generators(problem, fresh)
            evaluations += fresh.size
            one_sided += edges
            if reuse:
                gens = np.concatenate((kept[None], gens))
        else:
            gens = kept[None]
        kept_t, kept = nodes[-1], gens[-1]
        return gens

    for k in range(grid.size - 1):
        t0, t1 = grid[k], grid[k + 1]
        dt = t1 - t0
        gnorm = linalg.operator_norm(generators_at(grid[k:k + 1])[0])
        if problem.substeps is not None:
            nsub = problem.substeps
        else:
            nsub = max(1, int(math.ceil(SUBSTEP_DENSITY * gnorm * dt)))
        h = dt / nsub
        if gnorm * h > STEP_NORM_WARN:
            logger.warning(
                "coarse step at t=%g: ||generator||*h = %.3g > %.2g",
                t0, gnorm * h, STEP_NORM_WARN,
            )
        substeps_used.append(nsub)

        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, nsub, block):
                starts = t0 + np.arange(lo, min(lo + block, nsub)) * h
                mids = starts + 0.5 * h
                ends = starts + h
                nodes = np.unique(np.concatenate((starts, mids, ends)))
                gens = generators_at(nodes)
                for a, b, c in zip(*(np.searchsorted(nodes, x).tolist() for x in (starts, mids, ends))):
                    k1 = rate * (gens[a] @ y)
                    k2 = rate * (gens[b] @ (y + 0.5 * h * k1))
                    k3 = rate * (gens[b] @ (y + 0.5 * h * k2))
                    k4 = rate * (gens[c] @ (y + h * k3))
                    y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise IntegrationAbort(
                f"state became non-finite between t={t0} and t={t1}", last_good_t=t0
            )
        values.append(y)
    if one_sided:
        logger.warning("one-sided derivative of C at %d of %d generator nodes in [%g, %g]",
                       one_sided, evaluations, grid[0], grid[-1])
    return values, {"substeps": substeps_used, "generator_evaluations": evaluations}


def evolve_state(problem: EvolutionProblem) -> Trajectory:
    """Integrate the configured equation for the problem's initial state.

    The frame norm and the drift-rate diagnostic are recorded at every grid
    point from the frame family's validated :class:`FrameGrid`. Non-finite
    states abort with the last good time.
    """
    values, diagnostics = _rk4_run(problem, problem.initial_state)
    fg = problem.frame_family.on_grid(problem.grid)
    states = np.array(values)
    norms2 = np.einsum("ki,ki->k", states.conj(), np.einsum("kij,kj->ki", fg.metric, states)).real
    return Trajectory(
        times=problem.grid.copy(),
        states=states,
        cpt_norms=np.sqrt(np.maximum(norms2, 0.0)),
        drift_rates=_drift_rates(problem, fg.times, fg.c, fg.cdot, fg.metric, states),
        diagnostics=diagnostics,
    )


def evolve_propagator(problem: EvolutionProblem) -> list[tuple[float, np.ndarray]]:
    """Integrate the propagator: i hbar dU/dt = generator(t) U, U(0) = I.

    Only defined for the compensated equation, whose propagator is unitary
    as a map between the initial and instantaneous inner-product spaces
    (U^dag PC(t) U = PC(0)); applying it to any initial state reproduces
    :func:`evolve_state` for that state.
    """
    if problem.equation is not Equation.COMPENSATED:
        raise ValueError("propagator evolution is defined for the COMPENSATED equation")
    dim = problem.frame_family.dim
    values, _ = _rk4_run(problem, np.eye(dim, dtype=complex))
    return list(zip(problem.grid.tolist(), values))
