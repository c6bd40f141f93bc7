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

Model kinds: ``two_level`` (fields s, alpha), ``constant_metric`` (fields
a, b, C, P, K), ``inline`` (constant matrices H, C, P, K, and optionally G
for the augmented equation). A ramp without explicit t_start/t_end spans
the grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .dynamics import Equation
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

MODEL_KINDS = ("two_level", "constant_metric", "inline")

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
    """Decode a row-major [re, im] pair matrix, validating the shape."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(field_name, f"not a numeric [re, im] matrix: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError(
            field_name,
            f"expected a square row-major matrix of [re, im] pairs, got shape {arr.shape}",
        )
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


def _scalar_from_spec(spec, field_name: str, t_start: float, t_end: float) -> ScalarFunction:
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return ScalarFunction.constant(float(spec))
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(field_name, "must be a number or an object with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "constant":
            return ScalarFunction.constant(spec["value"])
        if kind == "ramp":
            return ScalarFunction.ramp(
                spec["start"], spec["stop"],
                spec.get("t_start", t_start), spec.get("t_end", t_end),
            )
        if kind == "sinusoid":
            return ScalarFunction.sinusoid(
                spec["amplitude"], spec["frequency"],
                spec.get("phase", 0.0), spec.get("offset", 0.0),
            )
        if kind == "samples":
            return ScalarFunction.from_samples(spec["times"], spec["values"])
    except KeyError as exc:
        raise ConfigError(field_name, f"missing field {exc} for kind '{kind}'") from exc
    except ValueError as exc:
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
    """Validated scenario: model choice, equation, grid, and run knobs."""

    model_kind: str
    model_fields: dict = field(repr=False)
    equation: Equation = Equation.COMPENSATED
    hbar: float = 1.0
    grid: GridSpec = GridSpec(0.0, 1.0, 101)
    level: int = 0
    epsilon: float = 0.5
    substeps: Optional[int] = None
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    out_dir: Optional[str] = None

    def scalar(self, name: str) -> ScalarFunction:
        return _scalar_from_spec(
            self.model_fields[name], f"model.{name}", self.grid.t_start, self.grid.t_end
        )

    def matrix(self, name: str) -> np.ndarray:
        return pairs_to_matrix(self.model_fields[name], f"model.{name}")


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}.{key}" if where else key, "missing required field")
    return mapping[key]


def from_dict(raw: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from parsed JSON."""
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "configuration must be a JSON object")

    model = _require(raw, "model", "")
    if not isinstance(model, dict):
        raise ConfigError("model", "must be an object")
    kind = _require(model, "kind", "model")
    if kind not in MODEL_KINDS:
        raise ConfigError("model.kind", f"unknown model preset '{kind}' (known: {MODEL_KINDS})")

    grid_raw = _require(raw, "grid", "")
    if not isinstance(grid_raw, dict):
        raise ConfigError("grid", "must be an object")
    try:
        grid = GridSpec(
            t_start=float(_require(grid_raw, "t_start", "grid")),
            t_end=float(_require(grid_raw, "t_end", "grid")),
            points=int(_require(grid_raw, "points", "grid")),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("grid", f"non-numeric grid field: {exc}") from exc
    if grid.points < 2:
        raise ConfigError("grid.points", f"must be >= 2, got {grid.points}")
    if not grid.t_start < grid.t_end:
        raise ConfigError("grid", f"t_start {grid.t_start} must be < t_end {grid.t_end}")

    eq_name = raw.get("equation", "compensated")
    try:
        equation = Equation(eq_name)
    except ValueError:
        raise ConfigError(
            "equation",
            f"unknown equation '{eq_name}' (one of {[e.value for e in Equation]})",
        ) from None

    hbar = float(raw.get("hbar", 1.0))
    if hbar <= 0:
        raise ConfigError("hbar", f"must be positive, got {hbar}")

    epsilon = float(raw.get("epsilon", 0.5))
    if not 0.0 < epsilon < 1.0:
        raise ConfigError("epsilon", f"epsilon out of (0,1): {epsilon}")

    level = int(raw.get("level", 0))
    if level < 0:
        raise ConfigError("level", f"must be >= 0, got {level}")

    substeps = raw.get("substeps")
    if substeps is not None:
        substeps = int(substeps)
        if substeps < 1:
            raise ConfigError("substeps", f"must be >= 1, got {substeps}")

    tolerances = dict(DEFAULT_TOLERANCES)
    for key, value in raw.get("tolerances", {}).items():
        if key not in DEFAULT_TOLERANCES:
            raise ConfigError(f"tolerances.{key}", "unknown tolerance name")
        value = float(value)
        if value <= 0:
            raise ConfigError(f"tolerances.{key}", f"must be positive, got {value}")
        tolerances[key] = value

    out_dir = raw.get("output", {})
    if out_dir and not isinstance(out_dir, dict):
        raise ConfigError("output", "must be an object like {\"dir\": \"path\"}")
    out_dir = out_dir.get("dir") if isinstance(out_dir, dict) else None
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("output.dir", "must be a string path")

    model_fields = {k: v for k, v in model.items() if k != "kind"}
    required = {
        "two_level": ("s", "alpha"),
        "constant_metric": ("a", "b", "C", "P", "K"),
        "inline": ("H", "C", "P", "K"),
    }[kind]
    for name in required:
        if name not in model_fields:
            raise ConfigError(f"model.{name}", f"missing required field for kind '{kind}'")

    cfg = ScenarioConfig(
        model_kind=kind,
        model_fields=model_fields,
        equation=equation,
        hbar=hbar,
        grid=grid,
        level=level,
        epsilon=epsilon,
        substeps=substeps,
        tolerances=tolerances,
        out_dir=out_dir,
    )
    # Force early validation of scalar specs and matrix shapes.
    for name in required:
        if name in ("s", "alpha", "a", "b"):
            cfg.scalar(name)
        else:
            cfg.matrix(name)
    if "G" in model_fields:
        cfg.matrix("G")
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
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError("<file>", f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return from_dict(raw)


def save_config(cfg: ScenarioConfig, path) -> None:
    Path(path).write_text(json.dumps(to_dict(cfg), indent=2) + "\n")
