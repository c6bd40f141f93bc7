"""Scenario configuration: schema, validation, JSON round-trip.

A scenario file is a single JSON document. Matrices are written row-major
with every entry a two-element ``[re, im]`` list so that inline operators
stay diff-able. Example:

    {
      "model": {"kind": "two_level",
                "s": {"kind": "constant", "value": 1.0},
                "alpha": {"kind": "ramp", "start": 0.1, "stop": 0.18}},
      "equation": "compensated",
      "hbar": 1.0,
      "grid": {"t_start": 0.0, "t_end": 1.0, "points": 201},
      "level": 0,
      "epsilon": 0.5,
      "substeps": null,
      "tolerances": {"frame": 1e-10, "symmetry": 1e-10,
                     "norm_drift": 1e-6, "realness": 1e-10}
    }

Model kinds (``MODEL_KINDS``): ``two_level`` (scalars s, alpha),
``constant_metric`` (scalars a, b; matrices C, P, K), ``inline`` (matrices
H, C, P, K); each also takes a matrix G for the augmented equation. A ramp
without explicit t_start/t_end spans the grid.

Numbers, matrix entries included, are finite JSON numbers, not strings or
booleans; ``grid.points``, ``level`` and ``substeps`` take integral values
(101.0 passes), ``grid.points`` at most ``dynamics.MAX_GRID_POINTS`` and
``substeps`` at most ``dynamics.MAX_SUBSTEPS``. Unknown keys
are rejected. A malformed field raises :class:`ConfigError` naming the dotted
field; the CLI exits 2 with ``config error: <field>: ...``.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .dynamics import MAX_GRID_POINTS, MAX_SUBSTEPS, Equation
from .models import ScalarFunction

__all__ = [
    "ConfigError",
    "GridSpec",
    "ScenarioConfig",
    "matrix_to_pairs",
    "pairs_to_matrix",
    "frame_to_dict",
    "frame_from_dict",
    "load_config",
    "save_config",
]

# Each model kind's required fields and their form; G is every kind's optional matrix.
MODEL_KINDS = {
    "two_level": {"s": "scalar", "alpha": "scalar"},
    "constant_metric": {"a": "scalar", "b": "scalar", "C": "matrix", "P": "matrix", "K": "matrix"},
    "inline": {"H": "matrix", "C": "matrix", "P": "matrix", "K": "matrix"},
}

_TOP_LEVEL_KEYS = ("model", "equation", "hbar", "grid", "level", "epsilon", "substeps",
                   "tolerances", "output")
_GRID_KEYS = ("t_start", "t_end", "points")
_INTEGRAL_FIELDS = ("grid.points", "level", "substeps")

DEFAULT_TOLERANCES = {
    "frame": 1e-10,
    "symmetry": 1e-10,
    "norm_drift": 1e-6,
    "realness": 1e-10,
}


class ConfigError(ValueError):
    """Invalid scenario configuration; message names the offending field."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


def matrix_to_pairs(M: np.ndarray) -> list:
    """Encode a complex matrix as row-major [re, im] pairs."""
    A = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in A]


def pairs_to_matrix(data, field_name: str) -> np.ndarray:
    """Decode a row-major [re, im] pair matrix, validating the shape and finiteness."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(field_name, f"not a numeric [re, im] matrix: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError(
            field_name,
            f"expected a square row-major matrix of [re, im] pairs, got shape {arr.shape}",
        )
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:  # json reads NaN and Infinity
        i, j, _ = bad[0]
        raise ConfigError(field_name, f"entry [{i}][{j}] must be finite, got {arr[i, j].tolist()}")
    return arr[..., 0] + 1j * arr[..., 1]


def frame_to_dict(frame) -> dict:
    """Frame matrices in the scenario config encoding."""
    return {
        "C": matrix_to_pairs(frame.c),
        "P": matrix_to_pairs(frame.p),
        "K": matrix_to_pairs(frame.t.conj_matrix),
    }


def frame_from_dict(data: dict, tol: float = 1e-10):
    """Re-validate a frame from its config encoding."""
    from .frames import validate_frames
    from .linalg import AntilinearOperator

    for name in ("C", "P", "K"):
        if name not in data:
            raise ConfigError(name, "missing frame matrix")
    return validate_frames(
        pairs_to_matrix(data["C"], "C"),
        pairs_to_matrix(data["P"], "P"),
        AntilinearOperator(pairs_to_matrix(data["K"], "K")),
        tol=tol,
    )


def _number(value, name: str, valid=None, bound: str = ""):
    """``value`` of the dotted field ``name`` if a finite JSON number, not a bool, integral
    for ``_INTEGRAL_FIELDS`` (returned as an int, else a float) and within ``valid``, the
    field's bound; ``bound``, formatted with the value, is the message when it is not."""
    # abs(x) <= max is False for NaN, the infinities and ints beyond the float range
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(name, f"must be a finite JSON number, got {value!r}")
    if name in _INTEGRAL_FIELDS and value != int(value):
        raise ConfigError(name, f"must be an integer, got {value!r}")
    value = int(value) if name in _INTEGRAL_FIELDS else float(value)
    if valid is not None and not valid(value):
        raise ConfigError(name, bound.format(value))
    return value


def _object(value, name: str, known, required=()) -> dict:
    """``value`` of the dotted field ``name`` ("" for the root): a JSON object
    with every ``required`` key and, unless ``known`` is None, no other key."""
    if not isinstance(value, dict):
        raise ConfigError(name or "<root>", "must be a JSON object")
    prefix = f"{name}." if name else ""
    for key in required:
        if key not in value:
            raise ConfigError(prefix + key, "missing required field")
    for key in value:
        if known is not None and key not in known:
            raise ConfigError(prefix + key, f"unknown {name or 'top-level'} field (known: {known})")
    return value


def _scalar_from_spec(spec, field_name: str, t_start: float, t_end: float) -> ScalarFunction:
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return ScalarFunction.constant(_number(spec, field_name))
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(field_name, "must be a number or an object with a 'kind'")
    kind = spec["kind"]

    def num(key, default=None):  # a missing key without a default raises KeyError
        value = spec[key] if default is None else spec.get(key, default)
        return _number(value, f"{field_name}.{key}")

    try:
        if kind == "constant":
            return ScalarFunction.constant(num("value"))
        if kind == "ramp":
            return ScalarFunction.ramp(
                num("start"), num("stop"), num("t_start", t_start), num("t_end", t_end),
            )
        if kind == "sinusoid":
            return ScalarFunction.sinusoid(
                num("amplitude"), num("frequency"), num("phase", 0.0), num("offset", 0.0),
            )
        if kind == "samples":
            times = [_number(x, f"{field_name}.times") for x in spec["times"]]
            values = [_number(x, f"{field_name}.values") for x in spec["values"]]
            return ScalarFunction.from_samples(times, values)
    except KeyError as exc:
        raise ConfigError(field_name, f"missing field {exc} for kind '{kind}'") from exc
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(field_name, str(exc)) from exc
    raise ConfigError(field_name, f"unknown scalar function kind '{kind}'")


@dataclass(frozen=True)
class GridSpec:
    t_start: float
    t_end: float
    points: int

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.points)


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: model choice, equation, grid, and run knobs (see :func:`from_dict`)."""

    model_kind: str
    model_fields: dict = field(repr=False)
    equation: Equation
    hbar: float
    grid: GridSpec
    level: int
    epsilon: float
    substeps: Optional[int]
    tolerances: dict
    out_dir: Optional[str]

    def scalar(self, name: str) -> ScalarFunction:
        return _scalar_from_spec(
            self.model_fields[name], f"model.{name}", self.grid.t_start, self.grid.t_end
        )

    def matrix(self, name: str) -> np.ndarray:
        return pairs_to_matrix(self.model_fields[name], f"model.{name}")


def from_dict(raw: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from parsed JSON."""
    raw = _object(raw, "", _TOP_LEVEL_KEYS, ("model", "grid"))
    model = _object(raw["model"], "model", None, ("kind",))
    kind = model["kind"]
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise ConfigError("model.kind",
                          f"unknown model preset '{kind}' (known: {tuple(MODEL_KINDS)})")
    fields = MODEL_KINDS[kind]
    _object(model, "model", ("kind", *fields, "G"), fields)

    grid_raw = _object(raw["grid"], "grid", _GRID_KEYS, _GRID_KEYS)
    grid = GridSpec(
        t_start=_number(grid_raw["t_start"], "grid.t_start"),
        t_end=_number(grid_raw["t_end"], "grid.t_end"),
        points=_number(grid_raw["points"], "grid.points", lambda n: 2 <= n <= MAX_GRID_POINTS,
                       f"must be in [2, {MAX_GRID_POINTS:.0e}], got {{:.10g}}"),
    )
    if not grid.t_start < grid.t_end:
        raise ConfigError("grid", f"t_start {grid.t_start} must be < t_end {grid.t_end}")

    names = [e.value for e in Equation]
    eq_name = raw.get("equation", "compensated")
    if eq_name not in names:
        raise ConfigError("equation", f"unknown equation '{eq_name}' (one of {names})")
    equation = Equation(eq_name)

    tolerances = _object(raw.get("tolerances", {}), "tolerances", tuple(DEFAULT_TOLERANCES))

    out_dir = _object(raw.get("output", {}), "output", ("dir",)).get("dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("output.dir", "must be a string path")

    model_fields = {k: v for k, v in model.items() if k != "kind"}
    cfg = ScenarioConfig(
        model_kind=kind,
        model_fields=model_fields,
        equation=equation,
        hbar=_number(raw.get("hbar", 1.0), "hbar", lambda x: x > 0, "must be positive, got {}"),
        grid=grid,
        level=_number(raw.get("level", 0), "level", lambda n: n >= 0, "must be >= 0, got {}"),
        epsilon=_number(raw.get("epsilon", 0.5), "epsilon", lambda x: 0.0 < x < 1.0,
                        "epsilon out of (0,1): {}"),
        substeps=None if raw.get("substeps") is None else _number(
            raw["substeps"], "substeps", lambda n: 1 <= n <= MAX_SUBSTEPS,
            f"must be in [1, {MAX_SUBSTEPS:.0e}], got {{:.10g}}"),
        tolerances={
            key: _number(tolerances.get(key, default), f"tolerances.{key}", lambda x: x > 0,
                         "must be positive, got {}")
            for key, default in DEFAULT_TOLERANCES.items()
        },
        out_dir=out_dir,
    )
    # Parse each model field now with the accessor its form names (G is a matrix).
    for name in model_fields:
        getattr(cfg, fields.get(name, "matrix"))(name)
    if equation is Equation.AUGMENTED and "G" not in model_fields:
        raise ConfigError("model.G", "augmented equation requires an inline G matrix")
    return cfg


def to_dict(cfg: ScenarioConfig) -> dict:
    """Serialize back to the JSON shape accepted by :func:`from_dict`."""
    model: dict = {"kind": cfg.model_kind}
    model.update(cfg.model_fields)
    out = {
        "model": model,
        "equation": cfg.equation.value,
        "hbar": cfg.hbar,
        "grid": {"t_start": cfg.grid.t_start, "t_end": cfg.grid.t_end, "points": cfg.grid.points},
        "level": cfg.level,
        "epsilon": cfg.epsilon,
        "substeps": cfg.substeps,
        "tolerances": dict(cfg.tolerances),
    }
    if cfg.out_dir is not None:
        out["output"] = {"dir": cfg.out_dir}
    return out


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError("<file>", f"no such file: {path}") from None
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError("<file>", f"{path} is not UTF-8 text (byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return from_dict(raw)


def save_config(cfg: ScenarioConfig, path) -> None:
    Path(path).write_text(json.dumps(to_dict(cfg), indent=2) + "\n")
