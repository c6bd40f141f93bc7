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

import bisect
import cmath
import logging
import math
import numbers
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

# Default substep count per grid interval: ceil(100 * ||generator|| * dt / hbar).
SUBSTEP_DENSITY = 100.0
# A default count above this, or one that is not finite, aborts the run before its interval;
# a fixed count above it is refused.
MAX_SUBSTEPS = 10**7
# A scenario's grid holds at most this many points: a run keeps about 1 KiB a point at d = 2,
# so about 1 GiB.
MAX_GRID_POINTS = 10**6
# Warn when a single Runge-Kutta substep is coarser than this: ||generator|| * h / hbar.
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
    present exactly for that equation. ``hbar`` must be positive and finite.
    ``substeps``, when given, fixes the Runge-Kutta substep count per grid
    interval (an integral number in [1, ``MAX_SUBSTEPS``], not a bool, kept
    as an ``int``); otherwise the count scales with the local generator norm.
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
        if not math.isfinite(self.hbar):
            raise ValueError(f"hbar must be finite, got {self.hbar!r}")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if self.equation is Equation.AUGMENTED and self.correction is None:
            raise ValueError("AUGMENTED equation requires a correction family G")
        if self.equation is not Equation.AUGMENTED and self.correction is not None:
            raise ValueError(f"{self.equation.name} equation forbids a correction family")
        if self.substeps is not None:
            n = self.substeps  # an int beyond the float range is integral, not an OverflowError
            integral = isinstance(n, numbers.Integral) or float(n).is_integer()
            if isinstance(n, (bool, np.bool_)) or not integral:
                raise ValueError(f"substeps must be an integer, got {n!r}")
            if n < 1:
                raise ValueError("substeps must be >= 1")
            if n > MAX_SUBSTEPS:
                raise ValueError(f"substeps must be <= {MAX_SUBSTEPS:.0e}, got {n}")
            object.__setattr__(self, "substeps", int(n))


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
    gens, one_sided, failure = _generators(problem, np.array([t], dtype=float))
    if failure is not None:
        raise failure
    if one_sided:
        logger.warning("one-sided derivative of C at t=%g", t)
    return gens[0]


def _generators(problem: EvolutionProblem, times: np.ndarray, from_grid: bool = False
                ) -> tuple[np.ndarray, int, Optional[ValueError]]:
    """The generator at each of ``times`` before the earliest failure, as an (n, d, d) stack.

    Also returns how many dC/dt values fell back to a one-sided difference,
    and the failure: None, or the one-point generator's ValueError at the
    earliest failing time, with that time's position (n) in ``index``. Each
    input family is evaluated once per time (see ``linalg._stacks``). With ``from_grid``,
    ``times`` is the problem's grid and the inputs are the families' kept
    grid stacks (:meth:`OperatorFamily.on_grid`, :meth:`FrameFamily.on_grid`).
    The generators are formed in chunks of ``linalg.STACK_ENTRIES`` entries,
    so no whole-stack temporary is made beside the result.
    """
    def filled(term) -> np.ndarray:  # term(part), in chunks of at most STACK_ENTRIES entries
        out = np.empty(H.shape, dtype=complex)
        step = max(1, linalg.STACK_ENTRIES // max(H.shape[-1], 1) ** 2)
        for lo in range(0, len(H), step):
            part = slice(lo, lo + step)
            out[part] = term(part)
        return out

    compensated = problem.equation is Equation.COMPENSATED
    c_family = problem.frame_family.c_family if compensated and not from_grid else None
    families = [F for F in (problem.hamiltonian, problem.correction, c_family) if F is not None]
    (H, *rest), Cdot, one_sided, failure = linalg._stacks(times, families, c_family, from_grid)
    if problem.equation is Equation.AUGMENTED:
        gens = filled(lambda part: H[part] + 1j * rest[0][part])
    elif not compensated:
        gens = H
    else:
        if from_grid:
            fg = problem.frame_family.on_grid(times)
            rest, Cdot, one_sided = [fg.c[:len(H)]], fg.cdot[:len(H)], fg.one_sided
        gens = filled(lambda part: H[part] - 0.5j * problem.hbar * (rest[0][part] @ Cdot[part]))
    dim = problem.frame_family.dim
    return gens.reshape(-1, dim, dim), one_sided, failure


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


def _rk4_block(rate, ga, gens, hs, last, y):
    """One block of RK4 substeps of y' = rate * g(t) y.

    Substep i runs from the previous end's generator (``ga`` for the first)
    through ``gens[2*i]`` at its midpoint to ``gens[2*i + 1]`` at its end, with
    step ``hs[i]``; ``last[i]`` marks a substep that ends an interval. Returns
    the states at those interval ends, the last end generator and the final state.
    """
    ends = []
    for gb, gc, dh, end in zip(*[iter(gens)] * 2, hs, last):
        k1 = rate * (ga @ y)
        k2 = rate * (gb @ (y + 0.5 * dh * k1))
        k3 = rate * (gb @ (y + 0.5 * dh * k2))
        k4 = rate * (gc @ (y + dh * k3))
        y, ga = y + (dh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), gc
        if end:
            ends.append(y)
    return ends, ga, y


def _rk4_block_pair(rate, ga, flat, hs, last, y):
    """:func:`_rk4_block` for a 2-vector, in Python complex numbers.

    ``ga`` is the start generator's row-major 4 entries, ``flat`` the block's
    stage matrices as one list, 8 entries a substep (the midpoint's row-major 4,
    then the end's), and ``y`` and each returned state are two complex numbers.
    A substep is :func:`_rk4_block`'s with a matrix-vector product defined as
    p = g00*y0 + g01*y1, q = g10*y0 + g11*y1, each product and sum rounded on its
    own. Every other product is one rounded real product in either arithmetic,
    as ``rate`` has a zero real part and ``dh`` is real; ``half`` is the float the
    array step forms, as ``0.5 * dh * k`` is ``(0.5 * dh) * k``. A substep's first
    stage (a0, a1) is formed at the end of the substep before it, from that
    substep's end generator and state (the first from ``ga``); the block's last
    one is not used.
    """
    e00, e01, e10, e11 = ga
    y0, y1 = y
    a0, a1 = rate * (e00 * y0 + e01 * y1), rate * (e10 * y0 + e11 * y1)
    ends = []
    for m00, m01, m10, m11, e00, e01, e10, e11, dh, end in zip(*[iter(flat)] * 8, hs, last):
        half = 0.5 * dh
        u0, u1 = y0 + half * a0, y1 + half * a1
        b0, b1 = rate * (m00 * u0 + m01 * u1), rate * (m10 * u0 + m11 * u1)
        u0, u1 = y0 + half * b0, y1 + half * b1
        c0, c1 = rate * (m00 * u0 + m01 * u1), rate * (m10 * u0 + m11 * u1)
        u0, u1 = y0 + dh * c0, y1 + dh * c1
        d0, d1 = rate * (e00 * u0 + e01 * u1), rate * (e10 * u0 + e11 * u1)
        w = dh / 6.0
        y0, y1 = y0 + w * (a0 + 2.0 * b0 + 2.0 * c0 + d0), y1 + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        if end:
            ends.append((y0, y1))
        a0, a1 = rate * (e00 * y0 + e01 * y1), rate * (e10 * y0 + e11 * y1)
    return ends, (e00, e01, e10, e11), (y0, y1)


def _rk4_run(problem: EvolutionProblem, y0: np.ndarray):
    """Fixed-step RK4 over the grid; returns (values at grid points, diagnostics).

    The right-hand side is y' = -(i/hbar) * generator(t) y. The generators
    at the grid points come first, formed from the families' kept grid
    stacks (``_generators(..., from_grid=True)``), so a run that has scanned,
    validated or tracked its grid evaluates no family there again. The
    starts' norms give the substep counts, ceil(``SUBSTEP_DENSITY`` *
    ||generator|| * dt / hbar) unless ``substeps`` fixes them, and the
    coarse-step warnings, where ||generator|| * h / hbar exceeds
    ``STEP_NORM_WARN``; each is decided from the norms' bounds where those
    settle it (an SVD runs for the rest and for the norm a warning prints).
    The substeps are then taken in blocks (three (d, d) stage matrices a
    substep, within ``linalg.STACK_ENTRIES`` entries) that cross interval
    ends. Substep j of interval k runs from t = grid[k] + j*h through its
    midpoint t + 0.5*h to its end grid[k] + (j+1)*h, the next substep's
    start; the last one ends on grid[k+1] itself. A block is planned on its
    own, so the walk's memory does not grow with its substep count: the
    start, step, half step, first substep and count of each of its
    intervals (a table of the intervals, made once) are repeated over its
    substeps, and each node is formed by the one-point expression, in place. A block evaluates
    the generator at its midpoints and at the ends inside an interval, as
    one stack in ascending time order, which is the order the one-point
    scheme meets them; a substep starts from the previous end's generator,
    and an interval ends on its grid point's, copied from the grid points'
    stack. So a run forms n_t + sum(2*n_k - 1) generators. Each block is
    stepped by one call, which does the one-point RK4's arithmetic, so the
    values are bit-identical to evaluating the generator at every stage:
    :func:`_rk4_block_pair` for a state vector of dimension 2, on the
    block's stack made one flat list of Python numbers (8 a substep) by one
    ``tolist``, and :func:`_rk4_block`, on arrays with ``@``, for larger
    states and for propagator matrices. The stepper returns the states at
    the block's interval ends, and the walk takes them in order: each must
    be finite (a 2-vector stays two Python complex numbers, checked with
    ``cmath.isfinite``, the verdict of ``np.isfinite``, and kept as a tuple;
    an array with ``np.isfinite``), is kept, and enters the next interval,
    logging its coarse-step warning. A state is the one before it plus an
    increment, so a non-finite entry stays non-finite: a block's last end
    state is checked first, and the others only when it fails. A stepper
    may run past a non-finite state to its block's end; the walk raises at
    the first non-finite interval end, so no later interval's warning is
    logged.

    A failure is raised where the walk reaches it, so an earlier non-finite
    state still aborts first. Every equation's walk builds the frame grid
    first (:meth:`~ptdyn.frames.FrameFamily.on_grid`, a kept grid in a run).
    A ValueError from it, or from the generator at the first grid point,
    names its grid point k in ``index``: the walk stops at t_k. One from a
    block names its node, and the walk takes the block's substeps before the
    first that meets it, the error's ``index`` becoming that substep's
    interval start. A later grid point whose generator fails is such a node:
    the last of the interval before it, evaluated again in its block.
    An automatic count above ``MAX_SUBSTEPS``, or one that is not finite,
    stops the walk before its interval with an :class:`IntegrationAbort`
    naming it. Any other exception propagates at once.

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
    if y.shape == (2,):  # the 2-vector and each block's stage matrices as Python complex numbers
        advance, y, stages = _rk4_block_pair, y.tolist(), (lambda g: g.ravel().tolist())
        finite = (lambda u: cmath.isfinite(u[0]) and cmath.isfinite(u[1]))
    else:
        advance, finite, stages = _rk4_block, (lambda u: np.all(np.isfinite(u))), (lambda g: g)
    evaluations = one_sided = 0

    def generators(times: np.ndarray, from_grid: bool = False) -> tuple:
        nonlocal evaluations, one_sided
        gens, edges, failure = _generators(problem, times, from_grid)
        evaluations += times.size
        one_sided += edges
        return gens, failure

    # The frame grid first, then the generators at the grid points, or at the starts before the
    # frame's failure: each ValueError names its grid point in index, and the walk ends there.
    starts, failure = grid[:-1], None
    try:
        problem.frame_family.on_grid(grid)
    except ValueError as exc:
        starts, failure = starts[:exc.index], exc
    G0, exc = generators(grid, from_grid=True) if failure is None else generators(starts)
    if exc is not None and exc.index < starts.size:  # the last grid point is no start
        starts, failure = starts[:exc.index], exc
    # Each count and warning rises with the norm, so its bounds settle it where they agree.
    norms = linalg._Norms((G0[:starts.size],), (False,))
    dt = np.diff(grid)[:starts.size]
    if problem.substeps is not None:
        nsub = np.full(starts.size, problem.substeps)
    else:
        counts = norms.decide(lambda n: np.ceil(SUBSTEP_DENSITY * n * dt / problem.hbar), 0)
        huge = ~(counts <= MAX_SUBSTEPS)  # a NaN count too
        if huge.any():  # the walk ends before the first such interval, with its abort
            k = int(np.argmax(huge))
            failure = IntegrationAbort(f"substep count {counts[k]:.3g} exceeds {MAX_SUBSTEPS:.0e} "
                                       f"between t={grid[k]} and t={grid[k + 1]}", last_good_t=grid[k])
            starts, counts[k:] = starts[:k], 1  # the intervals not taken keep castable counts
        nsub = np.maximum(1, counts).astype(int)
    h = dt / nsub
    first = np.concatenate(([0], np.cumsum(nsub)))  # first[k]: the first substep of interval k
    coarse = norms.decide(lambda n: n * h / problem.hbar > STEP_NORM_WARN, 0)
    step_norms = norms.exact(0, coarse)
    due = np.flatnonzero(coarse[:starts.size])[::-1].tolist()  # the coarse intervals, next last

    def enter(k: int):
        """Log the coarse-step warnings of the intervals up to k, where the one-point scheme
        logs each: on entering its interval."""
        while due and due[-1] <= k:
            i = due.pop()
            logger.warning("coarse step at t=%g: ||generator||*h/hbar = %.3g > %.2g",
                           grid[i], step_norms[i] * h[i] / problem.hbar, STEP_NORM_WARN)

    block = max(1, linalg.STACK_ENTRIES // (3 * dim ** 2))
    # each interval's start, step, half step, first substep and count (exact as floats)
    plan = np.array([grid[:nsub.size], h, 0.5 * h, first[:-1], nsub])
    first = first.tolist()  # Python ints, for the few lookups a block makes
    # A stack's matrices as opaque items, so that a fancy index copies each matrix whole
    # rather than entry by entry (a view of a C-contiguous stack).
    item = np.dtype((np.void, dim * dim * G0.itemsize))
    grid_items = G0.reshape(-1).view(item)
    lo, stop, k = 0, first[starts.size], 0  # the next substep, the walk's end, its interval
    ga = stages(G0[0]) if stop else None  # the generator at the next substep's start
    enter(0)
    while lo < stop:  # a block: substeps lo, ..., hi - 1, of intervals k, ..., kb
        hi = min(lo + block, stop)
        kb = bisect.bisect_right(first, hi - 1, k) - 1
        counts = nsub[k:kb + 1].copy()  # the block's substeps in each of its intervals
        counts[0] -= lo - first[k]
        counts[-1] -= first[kb + 1] - hi
        t0, hk, half, s0, count = np.repeat(plan[:, k:kb + 1], counts, axis=1)
        j = np.arange(lo, hi, dtype=float)
        j -= s0  # each substep's place in its interval
        nodes = np.empty((hi - lo, 2))  # each substep's midpoint and end, in time order,
        mid, end = nodes.T  # formed in place: t0 + j*h + h/2, t0 + (j+1)*h
        np.multiply(j, hk, out=mid)
        mid += t0
        mid += half
        j += 1.0
        np.multiply(j, hk, out=end)
        end += t0
        last = j == count
        fresh = np.ones((hi - lo, 2), dtype=bool)  # all but the interval ends G0 holds
        np.logical_not(last, out=fresh[:, 1])
        last = last.tolist()
        ends = kb - k + last[-1]  # the block's interval ends, of intervals k, k + 1, ...
        if k + ends == len(G0):  # the last is the grid point G0 stopped at: evaluated again
            ends, fresh[-1, 1], end[-1] = ends - 1, True, grid[kb + 1]
        got, exc = generators(nodes[fresh])
        slots = np.empty((hi - lo, 2), dtype=item)  # the block's stages
        slots[~fresh] = grid_items[k + 1:k + 1 + ends]
        if exc is None:
            slots[fresh] = got.reshape(-1).view(item)
        else:  # the walk ends before the substep meeting the failing node
            fresh = np.flatnonzero(fresh)
            slots.reshape(-1)[fresh[:len(got)]] = got.reshape(-1).view(item)
            s = int(fresh[exc.index]) // 2
            at = bisect.bisect_right(first, lo + s) - 1  # s's interval
            failure, stop, hi, last = linalg._at(at, exc), lo + s, lo + s, last[:s]
        del got  # copied into the stages
        gens = slots.view(complex).reshape(-1, dim, dim)
        with np.errstate(over="ignore", invalid="ignore"):
            end_states, ga, y = advance(rate, ga, stages(gens), hk.tolist(), last, y)
        # The states at the block's interval ends, in the order the one-point scheme reaches
        # them. Each state is the one before it plus an increment, so an entry that is not
        # finite stays so: the last state is finite exactly when all are.
        taken = len(end_states)
        if taken and not finite(end_states[-1]):
            taken = next(i for i, u in enumerate(end_states) if not finite(u))
        values += end_states[:taken]
        k += taken
        enter(k)
        if taken < len(end_states):
            raise IntegrationAbort(f"state became non-finite between t={grid[k]} "
                                   f"and t={grid[k + 1]}", last_good_t=grid[k])
        lo = hi
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
    :func:`evolve_state` for that state. Its generator reads the frame
    grid, so the walk stops at the first grid point whose frame fails an
    axiom and raises that error, as :func:`evolve_state` does.
    """
    if problem.equation is not Equation.COMPENSATED:
        raise ValueError("propagator evolution is defined for the COMPENSATED equation")
    dim = problem.frame_family.dim
    values, _ = _rk4_run(problem, np.eye(dim, dtype=complex))
    return list(zip(problem.grid.tolist(), values))
