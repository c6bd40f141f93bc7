"""Scenario runner: load a config, integrate, analyze, persist artifacts.

``run`` writes three artifacts into the output directory:

* ``trajectory.csv``  — t, Re/Im of each state component, frame norm,
  drift rate (floats at 17 significant digits; output is bit-reproducible)
* ``adiabatic.csv``   — t, dynamical phase, fidelity loss, cross-level
  coupling residual, running bound V(t)
* ``summary.json``    — frame-axiom residuals, symmetry report, bound,
  max fidelity loss, norm drift, per-check pass/fail

Exit codes: 0 all enabled checks pass, 1 a check failed, 2 configuration
error, 3 numerical abort (message carries the last good time, or the time
of a non-finite model value or of an SVD that did not converge).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import adiabatic as adb
from . import config as cfg_mod
from . import dynamics as dyn
from . import frames as frm
from .config import ConfigError, ScenarioConfig
from .frames import FrameAxiomError
from .linalg import AntilinearOperator, ConvergenceError, NonFiniteError, OperatorFamily

__all__ = ["run_scenario", "sweep", "validate_scenario", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

NUMERIC_ERRORS = (
    dyn.IntegrationAbort,
    ConvergenceError,
    NonFiniteError,
    adb.LevelTrackingError,
    adb.BrokenSymmetryError,
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def build_model(cfg: ScenarioConfig):
    """Instantiate the configured model; config problems raise ConfigError."""
    from .models import Model, build_constant_metric, build_two_level

    grid = cfg.grid.times()
    try:
        if cfg.model_kind == "two_level":
            return build_two_level(
                cfg.scalar("s"), cfg.scalar("alpha"), grid,
                frame_tol=cfg.tolerances["frame"],
            )
        frame = frm.validate_frames(
            cfg.matrix("C"), cfg.matrix("P"),
            AntilinearOperator(cfg.matrix("K")),
            tol=cfg.tolerances["frame"],
        )
        if cfg.model_kind == "constant_metric":
            return build_constant_metric(cfg.scalar("a"), cfg.scalar("b"), frame, grid)
        H = cfg.matrix("H")
        if H.shape[0] != frame.dim:
            raise ConfigError("model.H", f"dimension {H.shape[0]} does not match frame dim {frame.dim}")
        return Model(OperatorFamily.constant(H), frm.FrameFamily.constant(frame))
    except (FrameAxiomError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("model", str(exc)) from exc


def _correction_family(cfg: ScenarioConfig, dim: int) -> Optional[OperatorFamily]:
    if cfg.equation is not dyn.Equation.AUGMENTED:
        return None
    G = cfg.matrix("G")
    if G.shape[0] != dim:
        raise ConfigError("model.G", f"dimension {G.shape[0]} does not match the model dim {dim}")
    return OperatorFamily.constant(G)


def _frame_and_symmetry(model, cfg: ScenarioConfig, grid) -> tuple[dict, dict, bool, "frm._Scan"]:
    """Frame residuals and symmetry classification over the grid, and the scan they come from.

    Building the frame grid raises on any axiom failure, so a caller that
    gets here has frames that pass.
    """
    fg = model.frame_family.on_grid(grid)
    scan = fg._scan(model.hamiltonian.on_grid(fg.times), cfg.tolerances["symmetry"])
    keys = ("pt_symmetric", "cpt_hermitian", "unbroken")
    symmetry = {key: bool(getattr(scan, key).all()) for key in keys}
    symmetry["max_eigen_imag"] = max(0.0, *scan.realness.tolist())
    return dict(fg.residuals), symmetry, all(symmetry[key] for key in keys), scan


def _norm_check_enabled(cfg: ScenarioConfig) -> bool:
    if cfg.equation is dyn.Equation.COMPENSATED:
        return True
    # The plain equation conserves the frame norm only when the metric is static (C a matrix).
    return (cfg.equation is dyn.Equation.SCHRODINGER
            and cfg_mod.MODEL_KINDS[cfg.model_kind].get("C") == "matrix")


def run_scenario(cfg: ScenarioConfig, out_dir: Optional[Path] = None) -> dict:
    """Execute a scenario and return its summary (written to disk if out_dir).

    The run builds the model, validates frames and symmetry along the grid,
    tracks the eigenframe, integrates the configured equation starting from
    the tracked level's eigenvector, and evaluates the adiabatic report.
    """
    grid = cfg.grid.times()
    model = build_model(cfg)
    family = model.frame_family
    if cfg.level >= family.dim:
        raise ConfigError("level", f"level {cfg.level} out of range for dimension {family.dim}")

    residuals, symmetry, symmetry_ok, scan = _frame_and_symmetry(model, cfg, grid)

    eframe = adb.build_eigenframe(
        model.hamiltonian, family, grid,
        realness_tol=cfg.tolerances["realness"], _scan=scan,
    )
    problem = dyn.EvolutionProblem(
        model.hamiltonian, family, grid, cfg.equation, eframe.states[0, cfg.level],
        correction=_correction_family(cfg, family.dim), hbar=cfg.hbar, substeps=cfg.substeps,
    )
    trajectory = dyn.evolve_state(problem)
    report = adb.build_report(
        eframe, family, trajectory, cfg.level, cfg.epsilon, hbar=cfg.hbar
    )

    checks = {
        "frames": True,  # _frame_and_symmetry raised otherwise
        "symmetry": symmetry_ok,
    }
    norm_drift = trajectory.max_norm_drift
    if _norm_check_enabled(cfg):
        # The bound implication presumes norm-conserving dynamics; gate both
        # checks on the same condition.
        checks["norm_conservation"] = bool(norm_drift <= cfg.tolerances["norm_drift"])
        checks["adiabatic_bound"] = report.bound_satisfied

    summary = {
        "frame_residuals": residuals,
        "symmetry": symmetry,
        "adiabatic": {
            "bound": report.bound,
            "epsilon": report.epsilon,
            "max_fidelity_loss": report.max_fidelity_loss,
            "bound_satisfied": report.bound_satisfied,
        },
        "norm_drift": norm_drift,
        "checks": checks,
        "exit_status": EXIT_OK if all(checks.values()) else EXIT_CHECK_FAILED,
    }

    if out_dir is not None:
        out_dir = _artifact_dir(out_dir)
        t = _write_trajectory_csv(out_dir / "trajectory.csv", trajectory)
        _write_adiabatic_csv(out_dir / "adiabatic.csv", t, report)
        _atomic_write(out_dir / "summary.json", json.dumps(summary, indent=2) + "\n")
    return summary


def validate_scenario(cfg: ScenarioConfig) -> dict:
    """Frame and symmetry checks only; no integration."""
    grid = cfg.grid.times()
    model = build_model(cfg)
    residuals, symmetry, symmetry_ok, _ = _frame_and_symmetry(model, cfg, grid)
    return {
        "frame_residuals": residuals,
        "symmetry": symmetry,
        "checks": {"frames": True, "symmetry": symmetry_ok},
        "exit_status": EXIT_OK if symmetry_ok else EXIT_CHECK_FAILED,
    }


def _resolve_dotted(raw: dict, path: str) -> tuple[dict, str]:
    keys = path.split(".")
    node = raw
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(path, "no such config field")
        node = node[key]
    last = keys[-1]
    if not isinstance(node, dict) or last not in node:
        raise ConfigError(path, "no such config field")
    current = node[last]
    if current is not None and (
        not isinstance(current, (int, float)) or isinstance(current, bool)
    ):
        raise ConfigError(path, "sweep axis must name a numeric field")
    return node, last


def _set_dotted(raw: dict, path: str, value: float) -> None:
    node, last = _resolve_dotted(raw, path)
    node[last] = value


def sweep(cfg: ScenarioConfig, axis: str, values: Sequence[float],
          out_dir: Optional[Path] = None) -> list[dict]:
    """Run the scenario once per axis value; failures are recorded in-row.

    Returns one row per value with the bound, max fidelity loss, whether
    the bound implication held, and the norm drift. When ``out_dir`` is
    given the table is written to ``sweep.csv`` atomically.
    """
    base = cfg_mod.to_dict(cfg)
    _resolve_dotted(base, axis)  # a bad axis fails the whole sweep up front
    rows = []
    for value in values:
        row = {"value": value, "bound": None, "max_fidelity_loss": None,
               "bound_satisfied": None, "norm_drift": None,
               "status": "ok", "error": ""}
        try:
            raw = json.loads(json.dumps(base))
            _set_dotted(raw, axis, value)
            row_cfg = cfg_mod.from_dict(raw)
            summary = run_scenario(row_cfg, out_dir=None)
            row["bound"] = summary["adiabatic"]["bound"]
            row["max_fidelity_loss"] = summary["adiabatic"]["max_fidelity_loss"]
            row["bound_satisfied"] = summary["adiabatic"]["bound_satisfied"]
            row["norm_drift"] = summary["norm_drift"]
        except (ConfigError, *NUMERIC_ERRORS) as exc:
            row["status"] = "error"
            row["error"] = str(exc)
        rows.append(row)
    if out_dir is not None:
        _write_sweep_csv(_artifact_dir(out_dir) / "sweep.csv", rows)
    return rows


def _artifact_dir(out_dir) -> Path:
    """Create the artifact directory; one that cannot be made is a configuration error."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(str(out_dir), f"cannot create the artifact directory: "
                                        f"{exc.strerror or exc}") from None
    return out_dir


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it, which a failed write
    removes; a path that cannot be written is a configuration error."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp.is_file():
            tmp.unlink()
        raise ConfigError(str(path), f"cannot write the artifact: {exc.strerror or exc}") from None


def _rows(t: list[str], *columns) -> list[str]:
    """CSV rows: each of the cells ``t``, then the row's floats of ``columns`` (arrays of one
    column or more) at 17 significant digits, as :func:`_fmt` writes them."""
    values = np.column_stack(columns)
    row = ",".join(["%s"] + ["%.17g"] * values.shape[1])
    return [row % (cell, *floats) for cell, floats in zip(t, values.tolist())]


def _write_trajectory_csv(path: Path, trajectory: dyn.Trajectory) -> list[str]:
    """Write trajectory.csv; returns its time column's cells, which adiabatic.csv shares."""
    t = list(map("{:.17g}".format, trajectory.times.tolist()))
    states = trajectory.states
    parts = np.stack((states.real, states.imag), axis=-1).reshape(len(states), -1)  # re0, im0, ...
    _atomic_write(path, "\n".join([
        "t," + "".join(f"re{i},im{i}," for i in range(states.shape[1])) + "cpt_norm,drift_rate",
        *_rows(t, parts, trajectory.cpt_norms, trajectory.drift_rates)]) + "\n")
    return t


def _write_adiabatic_csv(path: Path, t: list[str], report: adb.AdiabaticReport) -> None:
    """Write adiabatic.csv on the time column's cells ``t``, as trajectory.csv wrote them."""
    _atomic_write(path, "\n".join([
        "t,theta,fidelity_loss,coupling_residual,bound_running",
        *_rows(t, report.theta, report.fidelity, report.coupling_residual, report.bound_profile),
        f"# bound={_fmt(report.bound)} max_loss={_fmt(report.max_fidelity_loss)} "
        f"epsilon={_fmt(report.epsilon)} bound_satisfied={report.bound_satisfied}"]) + "\n")


def _write_sweep_csv(path: Path, rows: list[dict]) -> None:
    keys = ("value", "bound", "max_fidelity_loss", "bound_satisfied", "norm_drift", "status", "error")

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return str(v).lower()
        if isinstance(v, float):
            return _fmt(v)
        return str(v)

    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(keys)
    writer.writerows([cell(row[key]) for key in keys] for row in rows)
    _atomic_write(path, text.getvalue())


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    raw = cfg_mod.to_dict(cfg)
    if args.substeps is not None:
        raw["substeps"] = args.substeps
    if args.tol is not None:
        raw.setdefault("tolerances", {})
        raw["tolerances"]["frame"] = args.tol
        raw["tolerances"]["symmetry"] = args.tol
    return cfg_mod.from_dict(raw)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptdyn",
        description="Simulate PT-symmetric quantum dynamics with time-dependent metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="path to a scenario JSON file")
        p.add_argument("--out-dir", default=None,
                       help="artifact directory (default: config output.dir, then 'out')")
        p.add_argument("--substeps", type=int, default=None,
                       help="override integrator substeps per grid interval")
        p.add_argument("--tol", type=float, default=None,
                       help="override frame/symmetry validation tolerance")

    add_common(sub.add_parser("run", help="run a scenario and write artifacts"))
    sweep_p = sub.add_parser("sweep", help="re-run a scenario over an axis of values")
    add_common(sweep_p)
    sweep_p.add_argument("--axis", required=True,
                         help="dotted config field to vary, e.g. grid.t_end")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated numeric values")
    add_common(sub.add_parser("validate", help="frame and symmetry checks only"))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        cfg = cfg_mod.load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        out_dir = Path(args.out_dir or cfg.out_dir or "out")
        if args.command == "run":
            summary = run_scenario(cfg, out_dir=out_dir)
            print(json.dumps(summary["checks"]))
            return summary["exit_status"]
        if args.command == "validate":
            result = validate_scenario(cfg)
            print(json.dumps(result["checks"]))
            return result["exit_status"]
        try:
            values = [float(v) for v in args.values.split(",") if v.strip() != ""]
        except ValueError as exc:
            raise ConfigError("--values", f"non-numeric sweep value: {exc}") from None
        rows = sweep(cfg, args.axis, values, out_dir=out_dir)
        print(f"sweep complete: {len(rows)} rows "
              f"({sum(1 for r in rows if r['status'] == 'ok')} ok)")
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERIC_ERRORS as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
