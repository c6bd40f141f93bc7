"""Built-in scenarios.

Every model kind is one :class:`Model` record: a Hamiltonian family and a
frame family. Two kinds are built here:

* :func:`build_two_level` — the 2x2 model with

      H(t) = [[s e^{i a}, s], [s, s e^{-i a}]],
      C(t) = (1/cos a) [[i sin a, 1], [1, -i sin a]],
      P    = [[0, 1], [1, 0]],   T = componentwise conjugation,

  where s(t) is an energy scale and a(t) an angle constrained to
  cos a(t) >= 1/2 so the metric PC stays positive definite.

* :func:`build_constant_metric` — H(t) = a(t) I + b(t) C over a fixed,
  validated frame; the metric never moves, so the plain Schrodinger
  evolution is already unitary in the frame norm.

H is built with no analytic derivative: no stage of a run reads dH/dt.
The frame family's C keeps its analytic dC/dt where there is one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .frames import CPTFrame, FrameFamily
from .linalg import AntilinearOperator, OperatorFamily, as_grid

__all__ = [
    "Model",
    "ScalarFunction",
    "two_level",
    "build_two_level",
    "build_constant_metric",
]

MIN_COS_ALPHA = 0.5

# The presets and model families are evaluated with numpy's overflow and invalid-value
# warnings off: a value that overflows is non-finite, and the family check that stacks it
# rejects it, naming its time.
_quiet = np.errstate(over="ignore", invalid="ignore")


def _broadcasting(expr: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """A preset's fn or dfn: ``expr`` of a float array, a float for a scalar time."""
    @_quiet
    def fn(t):
        value = expr(np.asarray(t, dtype=float))
        return float(value) if np.ndim(value) == 0 else value
    return fn


@dataclass(frozen=True)
class ScalarFunction:
    """Real-valued function of time with an optional analytic derivative.

    ``fn`` and ``dfn`` broadcast, as every preset does: they map a float
    time to a float and an (n,) time array to an (n,) float array in one
    call, and so does calling the function. Wrap a per-point callable ``f``
    as ``np.vectorize(f, otypes=[float])``. Calling the function rejects a
    complex-typed value.
    """

    fn: Callable[[float], float]
    dfn: Optional[Callable[[float], float]] = None

    def __call__(self, t: float) -> float:
        value = self.fn(t)
        if type(value) is float:
            return value
        if isinstance(value, complex) or np.iscomplexobj(value):
            if np.ndim(t):  # in an array call every time breaks the type rule: name the first
                t, value = np.ravel(t)[0], np.ravel(value)[0]
            raise ValueError(f"scalar function returned non-real value {value!r} at t={t}")
        return float(value) if np.ndim(value) == 0 else value

    @classmethod
    def constant(cls, value: float) -> "ScalarFunction":
        value = float(value)
        return cls(_broadcasting(lambda t: np.full(t.shape, value)),
                   _broadcasting(lambda t: np.zeros(t.shape)))

    @classmethod
    def ramp(cls, start: float, stop: float, t_start: float, t_end: float) -> "ScalarFunction":
        """Linear ramp from start to stop over [t_start, t_end], clamped outside."""
        start, stop = float(start), float(stop)
        t_start, t_end = float(t_start), float(t_end)
        if not t_start < t_end:
            raise ValueError("ramp needs t_start < t_end")
        slope = (stop - start) / (t_end - t_start)
        return cls(
            _broadcasting(lambda t: np.where(
                t <= t_start, start, np.where(t >= t_end, stop, start + slope * (t - t_start)))),
            _broadcasting(lambda t: np.where((t_start < t) & (t < t_end), slope, 0.0)),
        )

    @classmethod
    def sinusoid(cls, amplitude: float, frequency: float, phase: float = 0.0,
                 offset: float = 0.0) -> "ScalarFunction":
        """offset + amplitude * sin(frequency * t + phase)."""
        amplitude, frequency = float(amplitude), float(frequency)
        phase, offset = float(phase), float(offset)
        return cls(
            _broadcasting(lambda t: offset + amplitude * np.sin(frequency * t + phase)),
            _broadcasting(lambda t: amplitude * frequency * np.cos(frequency * t + phase)),
        )

    @classmethod
    def from_samples(cls, times: Sequence[float], values: Sequence[float]) -> "ScalarFunction":
        """Piecewise-linear interpolant with no analytic derivative.

        A model built on it differentiates its operator family by central
        differences with step h = 1e-5 * max(1, |t|). Within h of a sample
        node the stencil straddles the node, so the derivative there is a
        mean of the two segment slopes (weighted by how far the stencil
        reaches into each segment; the plain mean at the node itself)
        rather than either one-sided slope.
        """
        vs = np.asarray(values)
        if np.iscomplexobj(vs) and np.any(vs.imag != 0):
            raise ValueError("sample values must be real")
        vs = vs.real.astype(float)
        ts = as_grid(times, "sample times")
        if vs.shape != ts.shape:
            raise ValueError("times and values must have the same length")
        return cls(_broadcasting(lambda t: np.interp(t, ts, vs)))


# math.tan, not np.tan: numpy's vectorised tan rounds differently on some inputs.
_tan = np.vectorize(math.tan, otypes=[float])


def _column(x) -> np.ndarray:
    """Scalars at a float time or an array of times, shaped to scale (..., d, d) matrices."""
    return np.asarray(x)[..., None, None]


def _two_by_two(a, b, c, d) -> np.ndarray:
    """The complex matrices [[a, b], [c, d]] of broadcasting entries, as a (..., 2, 2) array."""
    out = np.empty(np.broadcast_shapes(*map(np.shape, (a, b, c, d))) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def _two_level_c(a) -> np.ndarray:
    sec, sin_a = 1.0 / np.cos(a), np.sin(a)
    return _two_by_two(sec * (1j * sin_a), sec, sec, sec * (-1j * sin_a))


@dataclass(frozen=True)
class Model:
    """A Hamiltonian family H(t) over a CPT frame family (C(t), P, T).

    Every stage of a run reads the same two families, so the frame family's
    last :class:`FrameGrid` and the Hamiltonian's last grid stack
    (:meth:`OperatorFamily.on_grid`) are shared by all of them.
    """

    hamiltonian: OperatorFamily
    frame_family: FrameFamily


def two_level(s: ScalarFunction, alpha: ScalarFunction, t_start: float, t_end: float,
              frame_tol: float = 1e-10) -> Model:
    """The 2x2 model with energy scale s(t) and mixing angle alpha(t).

    Nothing is validated here; :func:`build_two_level` adds the checks.
    """
    @_quiet
    def evaluate(t):
        s_t, a = s(t), alpha(t)
        return _two_by_two(s_t * np.exp(1j * a), s_t, s_t, s_t * np.exp(-1j * a))

    @_quiet
    def c_evaluate(t):
        return _two_level_c(alpha(t))

    c_derivative = None
    if alpha.dfn is not None:
        @_quiet
        def c_derivative(t):
            # dC/d_alpha = tan(a) C + i diag(1, -1)
            a = alpha(t)
            return _column(alpha.dfn(t)) * (
                _column(_tan(a)) * _two_level_c(a) + 1j * np.diag([1.0, -1.0])
            )

    frames = FrameFamily(
        OperatorFamily(t_start, t_end, c_evaluate, c_derivative, vectorized=True),
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        AntilinearOperator.conjugation(2),
        tol=frame_tol,
    )
    return Model(OperatorFamily(t_start, t_end, evaluate, vectorized=True), frames)


def build_two_level(s: ScalarFunction, alpha: ScalarFunction, grid,
                    frame_tol: float = 1e-10) -> Model:
    """Construct and validate the two-level model on a grid.

    Rejects a non-real s, and any grid point where cos alpha(t) < 1/2 (the
    metric would lose positive definiteness headroom), naming the offending time. The frames
    are validated at every grid point, and the :class:`FrameGrid` is kept on
    the model's frame family for the run's later stages.
    """
    grid = as_grid(grid)
    s(grid)  # raises if s is not real-valued
    cos_alpha = np.cos(alpha(grid))
    if np.any(cos_alpha < MIN_COS_ALPHA):
        k = int(np.argmax(cos_alpha < MIN_COS_ALPHA))
        raise ValueError(
            f"cos(alpha) = {float(cos_alpha[k])!r} < {MIN_COS_ALPHA} at t={grid[k]}; "
            "the angle must keep cos(alpha) >= 1/2"
        )
    model = two_level(s, alpha, float(grid[0]), float(grid[-1]), frame_tol=frame_tol)
    model.frame_family.on_grid(grid)  # raises FrameAxiomError on any violation
    return model


def build_constant_metric(a: ScalarFunction, b: ScalarFunction, frame: CPTFrame,
                          grid) -> Model:
    """Constant-frame model with H(t) = a(t) I + b(t) C (the metric never moves).

    a and b must be real-valued (ScalarFunction already enforces real
    output); the frame must be validated.
    """
    grid = as_grid(grid)
    if not isinstance(frame, CPTFrame):
        raise TypeError("frame must be a validated CPTFrame")
    for fn in (a, b):
        fn(grid)  # raises if the function is not real-valued
    eye = np.eye(frame.dim, dtype=complex)
    C = frame.c

    @_quiet
    def evaluate(t):
        return _column(a(t)) * eye + _column(b(t)) * C

    return Model(OperatorFamily(float(grid[0]), float(grid[-1]), evaluate, vectorized=True),
                 FrameFamily.constant(frame))
