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

import cmath
import functools
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
    interval) and ``generator_evaluations`` (how many generators were
    formed: one a grid point and one a distinct RK4 node off the grid); both
    are deterministic.
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


def _generators(problem: EvolutionProblem, times: np.ndarray, from_grid: bool = False
                ) -> tuple[np.ndarray, int]:
    """The generator at each of ``times`` as an (n, d, d) stack.

    Also returns how many dC/dt values fell back to a one-sided difference.
    Each input family is evaluated once per time (see
    :meth:`OperatorFamily.stack`); an input that fails at some time raises
    the error its one-point evaluation raises there. With ``from_grid``,
    ``times`` is the problem's grid and the inputs are the families' kept
    grid stacks (:meth:`OperatorFamily.on_grid`, :meth:`FrameFamily.on_grid`).
    The generators are formed in chunks of ``linalg.STACK_ENTRIES`` entries,
    so no whole-stack temporary is made beside the result.
    """
    def at(family: OperatorFamily) -> np.ndarray:
        return family.on_grid(times) if from_grid else family.stack(times)

    def filled(term) -> np.ndarray:  # term(part), in chunks of at most STACK_ENTRIES entries
        out = np.empty(H.shape, dtype=complex)
        step = max(1, linalg.STACK_ENTRIES // max(H.shape[-1], 1) ** 2)
        for lo in range(0, len(H), step):
            part = slice(lo, lo + step)
            out[part] = term(part)
        return out

    H = at(problem.hamiltonian)
    if problem.equation is Equation.SCHRODINGER:
        return H, 0
    if problem.equation is Equation.AUGMENTED:
        G = at(problem.correction)
        return filled(lambda part: H[part] + 1j * G[part]), 0
    if from_grid:
        fg = problem.frame_family.on_grid(times)
        C, Cdot, one_sided = fg.c, fg.cdot, fg.one_sided
    else:
        c_family = problem.frame_family.c_family
        C = c_family.stack(times)
        Cdot, one_sided = linalg.family_derivatives(c_family, times)
    return filled(lambda part: H[part] - 0.5j * problem.hbar * (C[part] @ Cdot[part])), one_sided


def _drift_rates(problem: EvolutionProblem, times, c, cdot, metric, states) -> np.ndarray:
    """d/dt of the squared frame norm along a solution, at each (times[k], states[k]),
    from stacked C, dC/dt and PC.

    For the Schrodinger equation this is <phi|P Cdot phi>; the augmented
    equation adds (2/hbar) PC G. For the compensated equation the quantity
    vanishes identically and the computed value is a residual health check.
    The value is analytically real: when any value has an imaginary part
    above 1e-10 * max(|value|, 1), the largest |Im| and its time are logged once.
    """
    cdot_phi = np.einsum("kij,kj->ki", cdot, states)
    op_phi = np.einsum("ij,kj->ki", problem.frame_family.p, cdot_phi)
    if problem.equation is Equation.AUGMENTED:
        g = problem.correction.on_grid(times)
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


def _rk4_step(rate, ga, gb, gc, y, dh):
    """One RK4 substep of y' = rate * g(t) y, with g = ga, gb, gb, gc at its four stages."""
    k1 = rate * (ga @ y)
    k2 = rate * (gb @ (y + 0.5 * dh * k1))
    k3 = rate * (gb @ (y + 0.5 * dh * k2))
    k4 = rate * (gc @ (y + dh * k3))
    return y + (dh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_step_pair(v, rate, ga, gb, gc, y, dh):
    """:func:`_rk4_step`, bit for bit, on a 2-vector held as two Python complex numbers.

    Each stage writes its input into the scratch 2-vector ``v`` and takes the
    matrix-vector product as numpy's BLAS gemv, which ``@`` also calls. Every
    other product is one rounded real product in either arithmetic, as
    ``rate`` has a zero real part and ``dh`` is real; ``half`` is the float
    the array step forms, since ``0.5 * dh * k`` is ``(0.5 * dh) * k``.
    """
    y0, y1 = y
    half = 0.5 * dh
    v[0], v[1] = y0, y1
    p, q = ga.dot(v).tolist()
    a0, a1 = rate * p, rate * q
    v[0], v[1] = y0 + half * a0, y1 + half * a1
    p, q = gb.dot(v).tolist()
    b0, b1 = rate * p, rate * q
    v[0], v[1] = y0 + half * b0, y1 + half * b1
    p, q = gb.dot(v).tolist()
    c0, c1 = rate * p, rate * q
    v[0], v[1] = y0 + dh * c0, y1 + dh * c1
    p, q = gc.dot(v).tolist()
    d0, d1 = rate * p, rate * q
    w = dh / 6.0
    return (y0 + w * (a0 + 2.0 * b0 + 2.0 * c0 + d0), y1 + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1))


def _rk4_run(problem: EvolutionProblem, y0: np.ndarray):
    """Fixed-step RK4 over the grid; returns (values at grid points, diagnostics).

    The right-hand side is y' = -(i/hbar) * generator(t) y. The generators
    at the grid points come first, formed from the families' kept grid
    stacks (``_generators(..., from_grid=True)``), so a run that has scanned,
    validated or tracked its grid evaluates no family there again. Where a
    grid stack raises, the generators at the interval starts are evaluated
    instead, in stacks of ``linalg.STACK_ENTRIES`` entries. The starts'
    norms give the substep counts, decided from the norms' bounds where
    those give the count (an SVD runs for the rest and for the norm a
    coarse-step warning prints). The substeps are then
    taken in blocks (three (d, d) matrices each, within that bound) that
    cross interval ends. A substep's nodes are t = t0 + j*h, t + 0.5*h and
    t + h, the one-point scheme's float expressions; a block evaluates the
    generator once per distinct node that is neither one of those points
    nor the previous block's last node, as one ascending stack. The state arithmetic
    is the one-point RK4's: :func:`_rk4_step_pair` for a state vector of
    dimension 2, the array step :func:`_rk4_step` for larger states and for
    propagator matrices. So the values are bit-identical to evaluating the
    generator at every stage. At each interval end the state must be finite:
    a 2-vector stays two Python complex numbers, checked with
    ``cmath.isfinite`` (the verdict of ``np.isfinite``) and kept as a tuple;
    an array is checked with ``np.isfinite``. If a stack fails, the walk
    stops before the node that fails first on its own in the one-point
    scheme's order (an earlier non-finite state still aborts first) and
    raises its error.

    ``diagnostics`` holds the substep count of each interval and the number
    of generator evaluations. The nodes whose dC/dt fell back to a one-sided
    difference are logged once per run, with their count. The values are
    the initial array, then one array or, for a 2-vector, one tuple per
    grid point after it.
    """
    rate = -1j / problem.hbar
    grid = problem.grid
    dim = problem.frame_family.dim
    y = y0.astype(complex)
    values = [y]
    if y.shape == (2,):
        advance = functools.partial(_rk4_step_pair, np.empty(2, dtype=complex))
        finite, y = (lambda u: cmath.isfinite(u[0]) and cmath.isfinite(u[1])), y.tolist()
    else:
        advance, finite = _rk4_step, (lambda u: np.all(np.isfinite(u)))
    evaluations = one_sided = 0

    def generators(times: np.ndarray, from_grid: bool = False) -> np.ndarray:
        nonlocal evaluations, one_sided
        gens, edges = _generators(problem, times, from_grid)
        evaluations += times.size
        one_sided += edges
        return gens

    # The grid points from the kept grid stacks. If one raises, whatever it raises, the interval
    # starts a stack at a time, and from a failing stack on one at a time: that order raises the
    # error, and at the time, the one-point scheme meets first.
    starts, failure = grid[:-1], None
    try:
        G0 = generators(grid, from_grid=True)
    except Exception as exc:
        exc.__traceback__ = None  # FrameFamily.on_grid keeps the error, not the frames of this run
        parts = [np.empty((0, dim, dim), dtype=complex)]
        lo, step = 0, max(1, linalg.STACK_ENTRIES // dim ** 2)
        while lo < starts.size:
            try:
                parts.append(generators(starts[lo:lo + step]))
                lo += step
            except ValueError as exc:
                if step == 1:
                    starts, failure = starts[:lo], exc
                step = 1
        G0 = np.concatenate(parts)
    g0_times = grid[:len(G0)]  # every grid point, or the interval starts evaluated
    # Each count and warning rises with the norm, so its bounds settle it where they agree.
    norms = linalg._Norms((G0[:starts.size],), (False,))
    dt = np.diff(grid)[:starts.size]
    if problem.substeps is not None:
        nsub = np.full(starts.size, problem.substeps)
    else:
        counts = norms.decide(lambda n: np.ceil(SUBSTEP_DENSITY * n * dt), 0)
        nsub = np.maximum(1, counts).astype(int)
    h = dt / nsub
    first = np.concatenate(([0], np.cumsum(nsub)))  # first[k]: the first substep of interval k
    coarse = norms.decide(lambda n: n * h > STEP_NORM_WARN, 0)
    first_list, step_norms, coarse = first.tolist(), norms.exact(0, coarse), coarse.tolist()

    def enter(k: int):
        """Log interval k's coarse-step warning, where the one-point scheme logs it."""
        if k < len(coarse) and coarse[k]:
            logger.warning("coarse step at t=%g: ||generator||*h = %.3g > %.2g",
                           grid[k], step_norms[k] * h[k], STEP_NORM_WARN)

    block = max(1, linalg.STACK_ENTRIES // (3 * dim ** 2))
    lo, stop, k = 0, first_list[-1], 0  # the next substep, where the walk ends, its interval
    kept_t, kept = math.nan, None  # the last node evaluated and its generator
    enter(0)
    while lo < stop:
        sub = np.arange(lo, min(lo + block, stop))
        ks = np.searchsorted(first, sub, side="right") - 1
        t_a = grid[ks] + (sub - first[ks]) * h[ks]
        t_b, t_c = t_a + 0.5 * h[ks], t_a + h[ks]
        nodes = np.unique(np.concatenate((t_a, t_b, t_c)))
        known = np.isin(nodes, g0_times)
        fresh = ~known & (nodes != kept_t)
        gens = np.empty((nodes.size, dim, dim), dtype=complex)
        gens[known] = G0[np.searchsorted(g0_times, nodes[known])]
        gens[~known & ~fresh] = kept
        if fresh.any():
            try:
                gens[fresh] = generators(nodes[fresh])
            except ValueError:
                # the one-point scheme evaluates t_a, t_b, t_c of one substep before the next
                n, failure = linalg._first_error(lambda t: _generators(problem, np.array([t])),
                                                 np.stack((t_a, t_b, t_c), 1).ravel())
                if failure is None:
                    raise
                stop = lo + n // 3
                continue
        kept_t, kept, mats = nodes[-1], gens[-1], list(gens)
        index = (np.searchsorted(nodes, x).tolist() for x in (t_a, t_b, t_c))
        with np.errstate(over="ignore", invalid="ignore"):
            for j, a, b, c, dh in zip(sub.tolist(), *index, h[ks].tolist()):
                y = advance(rate, mats[a], mats[b], mats[c], y, dh)
                if j + 1 == first_list[k + 1]:
                    if not finite(y):
                        raise IntegrationAbort(f"state became non-finite between t={grid[k]} "
                                               f"and t={grid[k + 1]}", last_good_t=grid[k])
                    values.append(y)
                    k += 1
                    enter(k)
        lo += sub.size
    if failure is not None:
        raise failure
    if one_sided:
        logger.warning("one-sided derivative of C at %d of %d generator nodes in [%g, %g]",
                       one_sided, evaluations, grid[0], grid[-1])
    return values, {"substeps": nsub.tolist(), "generator_evaluations": evaluations}


def evolve_state(problem: EvolutionProblem) -> Trajectory:
    """Integrate the configured equation for the problem's initial state.

    The frame norm and the drift-rate diagnostic are recorded at every grid
    point from the frame family's validated :class:`FrameGrid`. Non-finite
    states abort with the last good time.
    """
    values, diagnostics = _rk4_run(problem, problem.initial_state)
    fg = problem.frame_family.on_grid(problem.grid)
    states = np.array(values, dtype=complex)
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
