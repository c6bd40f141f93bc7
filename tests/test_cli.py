import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from helpers import two_level_matrices
from ptdyn import frames, linalg
from ptdyn.adiabatic import AdiabaticReport, build_eigenframe
from ptdyn.cli import (_write_adiabatic_csv, _write_sweep_csv, _write_trajectory_csv,
                       build_model, main, run_scenario, sweep)
from ptdyn.config import ConfigError, GridSpec, from_dict, load_config, matrix_to_pairs
from ptdyn.dynamics import Trajectory
from ptdyn.frames import FrameGrid
from ptdyn.linalg import ConvergenceError


ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, raw, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw, indent=2))
    return path


def two_level_raw(points=101, t_end=1.0, epsilon=0.5, equation="compensated"):
    return {
        "model": {
            "kind": "two_level",
            "s": {"kind": "constant", "value": 1.0},
            "alpha": {"kind": "ramp", "start": 0.1, "stop": 0.18},
        },
        "equation": equation,
        "grid": {"t_start": 0.0, "t_end": t_end, "points": points},
        "level": 0,
        "epsilon": epsilon,
    }


def constant_metric_raw():
    _, C, P = two_level_matrices(1.0, math.pi / 3)
    return {
        "model": {
            "kind": "constant_metric",
            "a": {"kind": "sinusoid", "amplitude": 1.0, "frequency": 1.0},
            "b": 1.0,
            "C": matrix_to_pairs(C),
            "P": matrix_to_pairs(P),
            "K": matrix_to_pairs(np.eye(2)),
        },
        "equation": "schrodinger",
        "grid": {"t_start": 0.0, "t_end": 2.0, "points": 41},
        "substeps": 40,
    }


# -------------------------------------------------------------------- run

def test_run_two_level_scenario(tmp_path):
    cfg = from_dict(two_level_raw())
    out = tmp_path / "out"
    summary = run_scenario(cfg, out_dir=out)
    assert summary["exit_status"] == 0
    assert summary["checks"] == {
        "frames": True, "symmetry": True,
        "norm_conservation": True, "adiabatic_bound": True,
    }
    assert summary["adiabatic"]["bound"] < 0.48
    assert summary["adiabatic"]["max_fidelity_loss"] < 0.5
    assert summary["norm_drift"] <= 1e-6
    for name in ("trajectory.csv", "adiabatic.csv", "summary.json"):
        assert (out / name).exists()
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,re0,im0,re1,im1,cpt_norm,drift_rate"
    saved = json.loads((out / "summary.json").read_text())
    assert saved["checks"]["frames"] is True


# Every column sees each kind of value: -0.0, the smallest subnormal, huge, infinite,
# NaN and ordinary floats.
SPECIAL = np.array([-0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan, 0.1, 1.0 / 3.0, -2.5e-17])


def test_csv_writers_print_every_float_at_17_significant_digits(tmp_path):
    def col(j):
        return np.roll(SPECIAL, j)

    states = np.empty((SPECIAL.size, 2), dtype=complex)
    states.real = np.column_stack((col(1), col(3)))
    states.imag = np.column_stack((col(2), col(4)))
    trajectory = Trajectory(times=col(0), states=states, cpt_norms=col(5), drift_rates=col(6))
    report = AdiabaticReport(bound=0.1, epsilon=0.5, max_fidelity_loss=5e-324,
                             bound_satisfied=True, theta=col(7), fidelity=col(8),
                             coupling_residual=col(3), bound_profile=col(5))
    t = _write_trajectory_csv(tmp_path / "trajectory.csv", trajectory)
    _write_adiabatic_csv(tmp_path / "adiabatic.csv", t, report)

    def cells(*columns):
        return [",".join(format(float(x), ".17g") for x in row) for row in zip(*columns)]

    assert (tmp_path / "trajectory.csv").read_text() == "\n".join([
        "t,re0,im0,re1,im1,cpt_norm,drift_rate",
        *cells(*map(col, range(7)))]) + "\n"
    assert (tmp_path / "adiabatic.csv").read_text() == "\n".join([
        "t,theta,fidelity_loss,coupling_residual,bound_running",
        *cells(col(0), col(7), col(8), col(3), col(5)),
        "# bound=0.10000000000000001 max_loss=4.9406564584124654e-324 epsilon=0.5 "
        "bound_satisfied=True"]) + "\n"


def test_run_is_deterministic(tmp_path):
    cfg = from_dict(two_level_raw(points=51))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, out_dir=out1)
    run_scenario(cfg, out_dir=out2)
    for name in ("trajectory.csv", "adiabatic.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_constant_metric_scenario(tmp_path):
    cfg = from_dict(constant_metric_raw())
    summary = run_scenario(cfg, out_dir=tmp_path / "out")
    assert summary["exit_status"] == 0
    assert summary["checks"]["norm_conservation"] is True
    assert summary["symmetry"]["pt_symmetric"] is True
    assert summary["symmetry"]["unbroken"] is True


def test_run_inline_scenario_follows_exact_propagator(tmp_path):
    # H is constant, so the state is expm(-i H t) psi0 at every grid point
    cfg = load_config(ROOT / "scenarios" / "inline_static.json")
    summary = run_scenario(cfg, out_dir=tmp_path)
    assert summary["exit_status"] == 0
    assert summary["checks"] == {
        "frames": True, "symmetry": True,
        "norm_conservation": True, "adiabatic_bound": True,
    }
    data = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
    times, components = data[:, 0], data[:, 1:5]
    psi0 = components[0, 0::2] + 1j * components[0, 1::2]
    H = cfg.matrix("H")
    for t, row in zip(times, components):
        exact = expm(-1j * H * t) @ psi0
        assert np.max(np.abs(row[0::2] - exact.real)) <= 1e-10
        assert np.max(np.abs(row[1::2] - exact.imag)) <= 1e-10


@pytest.mark.parametrize("hbar, substeps, tol", [(1.0, 100, 1e-11), (0.01, None, 1e-8)],
                         ids=["hbar=1", "hbar=0.01-automatic-substeps"])
def test_run_constant_metric_follows_its_closed_form(tmp_path, hbar, substeps, tol):
    # H = sin(t) I + C with C^2 = I: level 0 (C psi0 = -psi0) has the energy sin(t) - 1, so
    # the state is exp(-i (1 - cos t - t) / hbar) psi0
    raw = json.loads((ROOT / "scenarios" / "constant_metric.json").read_text())
    raw["hbar"], raw["substeps"] = hbar, substeps
    assert main(["run", str(write_config(tmp_path, raw)), "--out-dir", str(tmp_path / "out")]) == 0
    data = np.loadtxt(tmp_path / "out" / "trajectory.csv", delimiter=",", skiprows=1)
    times, states = data[:, 0], data[:, 1:5:2] + 1j * data[:, 2:5:2]
    exact = np.exp(-1j * (1.0 - np.cos(times) - times) / hbar)[:, None] * states[0]
    assert np.abs(states - exact).max() <= tol


def test_constant_metric_eigenframe_energies_are_sin_t_minus_and_plus_one():
    cfg = load_config(ROOT / "scenarios" / "constant_metric.json")
    model, grid = build_model(cfg), cfg.grid.times()
    eframe = build_eigenframe(model.hamiltonian, model.frame_family, grid)
    exact = np.sin(grid)[:, None] + np.array([-1.0, 1.0])
    assert np.abs(eframe.energies - exact).max() <= 1e-12


def test_cli_run_exit_codes(tmp_path, capsys):
    path = write_config(tmp_path, two_level_raw(points=41))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0

    bad = two_level_raw()
    bad["epsilon"] = 1.5
    bad_path = write_config(tmp_path, bad, name="bad.json")
    assert main(["run", str(bad_path), "--out-dir", str(tmp_path / "out2")]) == 2
    assert "epsilon out of (0,1)" in capsys.readouterr().err


def test_cli_missing_and_invalid_files(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert main(["validate", str(broken)]) == 2


def _one_config_error(capsys, start):
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {start}") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["run", "validate"])
def test_cli_scenario_that_is_a_directory_is_a_config_error(tmp_path, capsys, command):
    assert main([command, str(tmp_path), "--out-dir", str(tmp_path / "out")]) == 2
    _one_config_error(capsys, f"<file>: cannot read {tmp_path}: ")
    assert not (tmp_path / "out").exists()


def test_cli_scenario_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(two_level_raw(points=21)).encode() + b" \xe9")
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    _one_config_error(capsys, f"<file>: {path} is not UTF-8 text")


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_output_path_that_is_a_file_is_a_config_error(tmp_path, capsys, command):
    path = write_config(tmp_path, two_level_raw(points=21))
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    args = [command, str(path), "--out-dir", str(taken)]
    if command == "sweep":
        args += ["--axis", "epsilon", "--values", "0.3,0.5"]
    assert main(args) == 2
    _one_config_error(capsys, f"{taken}: cannot create the artifact directory: ")
    assert taken.read_text() == "not a directory\n"


def test_cli_artifact_that_cannot_be_written_is_a_config_error(tmp_path):
    # summary.json is a directory: the run exits 2 with one line naming it, and leaves no
    # temporary file behind
    out_dir = tmp_path / "out"
    (out_dir / "summary.json").mkdir(parents=True)
    out = subprocess.run([sys.executable, "-m", "ptdyn.cli", "run",
                          str(ROOT / "scenarios" / "constant_metric.json"), "--out-dir", str(out_dir)],
                         capture_output=True, text=True, cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.returncode == 2
    assert out.stderr.startswith(f"config error: {out_dir / 'summary.json'}: cannot write the artifact: ")
    assert out.stderr.count("\n") == 1 and "Traceback" not in out.stderr
    assert not list(out_dir.glob("*.tmp")) and (out_dir / "summary.json").is_dir()


@pytest.mark.parametrize("command", ["run", "validate"])
def test_cli_grid_above_the_point_cap_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    def unmade(self):
        raise AssertionError("the grid was made")

    monkeypatch.setattr(GridSpec, "times", unmade)
    path = write_config(tmp_path, two_level_raw(points=10**12))
    assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 2
    _one_config_error(capsys, "grid.points: must be in [2, 1e+06], got 1e+12")
    assert not (tmp_path / "out").exists()


def test_cli_validate(tmp_path):
    path = write_config(tmp_path, two_level_raw(points=21))
    assert main(["validate", str(path)]) == 0


def test_cli_validate_rejects_bad_frame(tmp_path, capsys):
    raw = constant_metric_raw()
    raw["model"]["C"] = matrix_to_pairs(2.0 * np.eye(2))  # not an involution
    path = write_config(tmp_path, raw)
    assert main(["validate", str(path)]) == 2
    assert "C^2 = I" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "validate"])
def test_cli_metric_not_positive_definite_is_a_config_error(tmp_path, capsys, command):
    # The bundled inline scenario with C negated: -C still passes C^2 = I, CPT = TPC and a
    # Hermitian metric, but its metric -PC has the eigenvalues -(2 -+ sqrt 3)
    raw = json.loads((ROOT / "scenarios" / "inline_static.json").read_text())
    raw["model"]["C"] = [[[-re, -im] for re, im in row] for row in raw["model"]["C"]]
    args = [command, str(write_config(tmp_path, raw))]
    assert main(args + (["--out-dir", str(tmp_path / "out")] if command == "run" else [])) == 2
    assert capsys.readouterr().err == (
        "config error: model: frame axiom 'metric positive definite' violated: minimum "
        "eigenvalue of PC is -3.732e+00 (metric norm 3.73)\n")


def test_cli_numeric_abort_exit_code(tmp_path, capsys):
    # inline model, augmented equation with G = 200 I: pure exponential growth
    raw = {
        "model": {
            "kind": "inline",
            "H": matrix_to_pairs(np.zeros((2, 2))),
            "C": matrix_to_pairs(np.eye(2)),
            "P": matrix_to_pairs(np.eye(2)),
            "K": matrix_to_pairs(np.eye(2)),
            "G": matrix_to_pairs(200.0 * np.eye(2)),
        },
        "equation": "augmented",
        "grid": {"t_start": 0.0, "t_end": 10.0, "points": 21},
        "substeps": 5,
    }
    path = write_config(tmp_path, raw)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 3
    assert "numerical abort" in capsys.readouterr().err


def nonfinite_constant_metric_raw():
    """The bundled constant-metric scenario with a(t) = 1e308 sin(t) + 1e308, which overflows."""
    raw = json.loads((ROOT / "scenarios" / "constant_metric.json").read_text())
    raw["model"]["a"] = {"kind": "sinusoid", "amplitude": 1e308, "frequency": 1.0,
                         "offset": 1e308}
    return raw


def test_cli_non_finite_model_value_is_a_numerical_abort(tmp_path, capsys):
    path = write_config(tmp_path, nonfinite_constant_metric_raw())
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "numerical abort: family value at t=1.0 contains non-finite entries\n")


@pytest.mark.parametrize("command", ["run", "validate"])
def test_cli_overflowing_model_value_prints_only_the_abort(tmp_path, command):
    # a fresh interpreter, so numpy's RuntimeWarnings would reach stderr
    path = write_config(tmp_path, nonfinite_constant_metric_raw())
    out = subprocess.run([sys.executable, "-m", "ptdyn.cli", command, str(path),
                          "--out-dir", str(tmp_path / "out")],
                         capture_output=True, text=True, cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.returncode == 3
    assert out.stderr == "numerical abort: family value at t=1.0 contains non-finite entries\n"


def test_sweep_records_a_non_finite_model_value_as_an_error_row(tmp_path):
    # b = 1e308 overflows b*C at every t; b = 1 is the bundled scenario
    cfg = load_config(ROOT / "scenarios" / "constant_metric.json")
    rows = sweep(cfg, "model.b.value", [1.0, 1e308], out_dir=tmp_path)
    assert [r["status"] for r in rows] == ["ok", "error"]
    assert rows[1]["error"] == "family value at t=0.0 contains non-finite entries"
    last = (tmp_path / "sweep.csv").read_text().splitlines()[-1]
    assert last.endswith(",error,family value at t=0.0 contains non-finite entries")


def huge_amplitude_constant_metric_raw():
    """The bundled constant-metric scenario with a(t) = 1e308 sin(t): finite, but the
    symmetry scan's H^dag PC - PC H overflows to NaN, where LAPACK's SVD fails."""
    raw = json.loads((ROOT / "scenarios" / "constant_metric.json").read_text())
    raw["model"]["a"] = {"kind": "sinusoid", "amplitude": 1e308, "frequency": 1.0}
    return raw


@pytest.mark.parametrize("command", ["run", "validate"])
def test_cli_svd_failure_is_a_numerical_abort_naming_the_time(tmp_path, capsys, command):
    raw = huge_amplitude_constant_metric_raw()
    path = write_config(tmp_path, raw)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    found = re.fullmatch(r"numerical abort: symmetry scan at t=(\S+): "
                         r"SVD did not converge for stack matrix (\d+)\n", err)
    assert found, err
    grid = np.linspace(raw["grid"]["t_start"], raw["grid"]["t_end"], raw["grid"]["points"])
    assert float(found[1]) == grid[int(found[2])]


def test_cli_overflowing_symmetry_scan_prints_only_the_abort(tmp_path):
    # a fresh interpreter, so numpy's RuntimeWarnings would reach stderr
    path = write_config(tmp_path, huge_amplitude_constant_metric_raw())
    out = subprocess.run([sys.executable, "-m", "ptdyn.cli", "validate", str(path)],
                         capture_output=True, text=True, cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.returncode == 3
    assert re.fullmatch(r"numerical abort: symmetry scan at t=\S+: "
                        r"SVD did not converge for stack matrix \d+\n", out.stderr), out.stderr


def test_cli_overflowing_eigenpairs_are_a_numerical_abort(tmp_path):
    # a fresh interpreter, so numpy's RuntimeWarnings would reach stderr
    raw = json.loads((ROOT / "scenarios" / "inline_static.json").read_text())
    raw["model"]["H"] = matrix_to_pairs(1e200 * np.array([[1.0, 1.0], [1.0, -1.0]]))
    path = write_config(tmp_path, raw)
    out = subprocess.run(
        [sys.executable, "-m", "ptdyn.cli", "run", str(path), "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.returncode == 3
    assert out.stderr.startswith("numerical abort: symmetry scan at t=0.0: "
                                 "eigenpair residual nan exceeds 1.0e-10*||M|| for matrix:\n")
    assert "Warning" not in out.stderr


def test_sweep_records_an_svd_failure_as_an_error_row(tmp_path):
    cfg = load_config(ROOT / "scenarios" / "constant_metric.json")
    with np.errstate(over="ignore", invalid="ignore"):
        rows = sweep(cfg, "model.a.amplitude", [1.0, 1e308], out_dir=tmp_path)
    assert [r["status"] for r in rows] == ["ok", "error"]
    assert rows[1]["error"].startswith("symmetry scan at t=")
    assert "SVD did not converge" in rows[1]["error"]
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 3


# hbar = 1e-300 asks the ramp's first grid interval for about 1e300 automatic
# substeps, above dynamics.MAX_SUBSTEPS: the run aborts before stepping it.
TINY_HBAR_ABORT = "substep count 1e+300 exceeds 1e+07 between t=0.0 and t=0.005"


def test_cli_overflowing_state_is_a_numerical_abort(tmp_path):
    # a fresh interpreter, so numpy's RuntimeWarnings would reach stderr
    raw = json.loads((ROOT / "scenarios" / "two_level_ramp.json").read_text())
    raw["hbar"] = 1e-300
    path = write_config(tmp_path, raw)
    out = subprocess.run(
        [sys.executable, "-m", "ptdyn.cli", "run", str(path), "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.returncode == 3
    assert out.stderr == f"numerical abort: {TINY_HBAR_ABORT}\n"


def test_sweep_records_an_integration_abort_as_an_error_row(tmp_path):
    cfg = load_config(ROOT / "scenarios" / "two_level_ramp.json")
    rows = sweep(cfg, "hbar", [1.0, 1e-300], out_dir=tmp_path)
    assert [r["status"] for r in rows] == ["ok", "error"]
    assert rows[1]["error"] == TINY_HBAR_ABORT
    last = (tmp_path / "sweep.csv").read_text().splitlines()[-1]
    assert last.endswith(",error," + TINY_HBAR_ABORT)


def broken_symmetry_raw():
    """The bundled inline scenario with H = [[0.5, 1], [-1, 0.5]], whose eigenvalues are 0.5 -+ i."""
    raw = json.loads((ROOT / "scenarios" / "inline_static.json").read_text())
    raw["model"]["H"] = matrix_to_pairs(np.array([[0.5, 1.0], [-1.0, 0.5]]))
    return raw


BROKEN_SYMMETRY_ABORT = "broken PT symmetry at t=0.0: eigenvalue (0.5-1j) has |Im| > 1.0e-10*scale"


def test_cli_broken_symmetry_is_a_numerical_abort(tmp_path, capsys):
    path = write_config(tmp_path, broken_symmetry_raw())
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"numerical abort: {BROKEN_SYMMETRY_ABORT}\n"


def test_sweep_records_broken_symmetry_as_an_error_row(tmp_path):
    cfg = from_dict(broken_symmetry_raw())
    rows = sweep(cfg, "epsilon", [0.5], out_dir=tmp_path)
    assert [r["status"] for r in rows] == ["error"]
    assert rows[0]["error"] == BROKEN_SYMMETRY_ABORT
    last = (tmp_path / "sweep.csv").read_text().splitlines()[-1]
    assert last.endswith(",error," + BROKEN_SYMMETRY_ABORT)


# b(0) = 0 makes H(0) = a(0) I: every vector is an eigenvector, and the pair the
# eigensolve returns is not orthonormal in the frame inner product.
LEVEL_TRACKING_ABORT = ("eigenvectors at t=0.0 are not orthonormal in the frame inner product "
                        "(residual 8.660e-01); levels may be colliding")


def test_cli_level_collision_is_a_numerical_abort(tmp_path, capsys):
    raw = json.loads((ROOT / "scenarios" / "constant_metric.json").read_text())
    raw["model"]["b"] = {"kind": "sinusoid", "amplitude": 1.0, "frequency": 1.0}
    path = write_config(tmp_path, raw)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"numerical abort: {LEVEL_TRACKING_ABORT}\n"


def test_sweep_records_a_level_collision_as_an_error_row(tmp_path):
    cfg = load_config(ROOT / "scenarios" / "constant_metric.json")
    rows = sweep(cfg, "model.b.value", [1.0, 0.0], out_dir=tmp_path)
    assert [r["status"] for r in rows] == ["ok", "error"]
    assert rows[1]["error"] == LEVEL_TRACKING_ABORT
    last = (tmp_path / "sweep.csv").read_text().splitlines()[-1]
    assert last.endswith(",error," + LEVEL_TRACKING_ABORT)


def lost_level_raw(alpha_start, s_stop=-1.0):
    """The two-level model on the grid 0, 0.5, 1 with s ramping 1 -> s_stop and alpha
    ramping alpha_start -> 0 over [0, 0.5]. At s_stop = -1, H(0.5) = 0: the eigensolve
    returns the unit vectors there, and neither is close to a t = 0 eigenvector."""
    return {
        "model": {
            "kind": "two_level",
            "s": {"kind": "ramp", "start": 1.0, "stop": s_stop},
            "alpha": {"kind": "ramp", "start": alpha_start, "stop": 0.0, "t_end": 0.5},
        },
        "equation": "compensated",
        "grid": {"t_start": 0.0, "t_end": 1.0, "points": 3},
        "level": 0,
        "epsilon": 0.5,
    }


LOST_LEVELS = {  # alpha_start: the message of the LevelTrackingError
    -0.5: "level continuity lost between t=0.0 and t=0.5: "
          "levels [0, 1] have overlap [0.75481585 0.75481585] < 0.9",
    -1.0: "level continuity lost between t=0.0 and t=0.5: "
          "levels [0, 1] share an eigenvector with another level",
}


@pytest.mark.parametrize("alpha_start", LOST_LEVELS, ids=["low-overlap", "shared-pick"])
def test_cli_lost_level_is_a_numerical_abort(tmp_path, capsys, alpha_start):
    path = write_config(tmp_path, lost_level_raw(alpha_start))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"numerical abort: {LOST_LEVELS[alpha_start]}\n"


@pytest.mark.parametrize("alpha_start", LOST_LEVELS, ids=["low-overlap", "shared-pick"])
def test_sweep_records_a_lost_level_as_an_error_row(tmp_path, alpha_start):
    cfg = from_dict(lost_level_raw(alpha_start, s_stop=1.0))
    rows = sweep(cfg, "model.s.stop", [1.0, -1.0], out_dir=tmp_path)
    assert [r["status"] for r in rows] == ["ok", "error"]
    assert rows[1]["error"] == LOST_LEVELS[alpha_start]
    with open(tmp_path / "sweep.csv", newline="") as f:
        last = list(csv.reader(f))[-1]
    assert last[-2:] == ["error", LOST_LEVELS[alpha_start]]


def test_sweep_csv_error_cell_round_trips(tmp_path):
    error = 'frame check failed (tolerance 3.0e-16, scale 1.26): "P" drifts\nat t=0.5'
    rows = [{"value": 1.0, "bound": 0.25, "max_fidelity_loss": 1e-3, "bound_satisfied": True,
             "norm_drift": None, "status": "ok", "error": None},
            {"value": "3e-16", "bound": None, "max_fidelity_loss": None, "bound_satisfied": None,
             "norm_drift": None, "status": "error", "error": error}]
    _write_sweep_csv(tmp_path / "sweep.csv", rows)
    with open(tmp_path / "sweep.csv", newline="") as f:
        read = list(csv.DictReader(f))
    assert read[0] == {"value": "1", "bound": "0.25", "max_fidelity_loss": "0.001",
                       "bound_satisfied": "true", "norm_drift": "", "status": "ok", "error": ""}
    assert read[1]["error"] == error
    assert read[1]["status"] == "error" and read[1]["bound"] == ""


def _last_alpha_with_cos_at_least_half():
    """The largest float alpha near pi/3 with cos(alpha) >= 1/2, as the two-level model rounds it."""
    near = [math.acos(0.5)]
    for direction in (-math.inf, math.inf):
        a = near[0]
        for _ in range(4):
            a = float(np.nextafter(a, direction))
            near.append(a)
    last = max(a for a in near if np.cos(a) >= 0.5)
    assert np.cos(np.nextafter(last, math.inf)) < 0.5
    return last


def test_run_at_the_last_alpha_stop_with_cos_alpha_at_least_half(tmp_path):
    raw = json.loads((ROOT / "scenarios" / "two_level_ramp.json").read_text())
    raw["model"]["alpha"]["stop"] = _last_alpha_with_cos_at_least_half()
    out = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, raw)), "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    numbers = [summary["norm_drift"], *summary["frame_residuals"].values(),
               summary["symmetry"]["max_eigen_imag"], summary["adiabatic"]["bound"],
               summary["adiabatic"]["max_fidelity_loss"]]
    assert all(math.isfinite(x) for x in numbers)


def test_run_one_float_past_cos_alpha_of_one_half_is_a_config_error(tmp_path, capsys):
    raw = json.loads((ROOT / "scenarios" / "two_level_ramp.json").read_text())
    stop = float(np.nextafter(_last_alpha_with_cos_at_least_half(), math.inf))
    raw["model"]["alpha"]["stop"] = stop
    assert main(["run", str(write_config(tmp_path, raw)), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    # the message prints the rejected cosine itself, which reads back below 1/2
    printed = re.search(r"cos\(alpha\) = (\S+) < 0\.5 at t=1\.0; ", err)
    assert printed, err
    assert float(printed[1]) == float(np.cos(stop)) < 0.5


def test_run_near_an_exceptional_point_keeps_the_exact_propagator(tmp_path):
    # C(alpha) with cos(alpha) = 1e-3: ||C|| ~ 2e3 and PC has eigenvalues ~ 2e3 and 5e-4.
    # The Schrodinger run must stay on e^{-iHt} psi_0 within the run's norm-drift
    # tolerance in the frame norm, or fail.
    cos_a = 1e-3
    sin_a = math.sqrt(1.0 - cos_a * cos_a)
    C = np.array([[1j * sin_a, 1.0], [1.0, -1j * sin_a]]) / cos_a
    P = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    H = 0.5 * np.eye(2) + C
    raw = {"model": {"kind": "inline", "H": matrix_to_pairs(H), "C": matrix_to_pairs(C),
                     "P": matrix_to_pairs(P), "K": matrix_to_pairs(np.eye(2))},
           "equation": "schrodinger", "grid": {"t_start": 0.0, "t_end": 2.0, "points": 101},
           "level": 0, "epsilon": 0.5}
    out = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, raw)), "--out-dir", str(out)]) == 0
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    times, states = rows[:, 0], rows[:, 1:5:2] + 1j * rows[:, 2:5:2]
    exact = np.array([expm(-1j * t * H) @ states[0] for t in times])
    err = exact - states
    frame_err = np.sqrt(np.einsum("ki,ij,kj->k", err.conj(), P @ C, err).real)
    assert frame_err.max() <= 1e-6


def test_run_with_a_last_node_past_the_grid_end(tmp_path):
    # t0 + 18h + h rounds to 0.7000000000000001 on the last interval's 19 substeps, outside
    # the model's family domain; the last substep ends on the grid point 0.7 itself
    raw = json.loads((ROOT / "scenarios" / "two_level_ramp.json").read_text())
    raw["grid"] = {"t_start": 0.0, "t_end": 0.7, "points": 11}
    path = write_config(tmp_path, raw)
    assert main(["run", str(path), "--substeps", "19", "--out-dir", str(tmp_path / "out")]) == 0


# Edits of the ramp scenario (dotted key, value) and the field each error names.
MALFORMED = {
    "hbar-string": ("hbar", "abc", "hbar"),
    "epsilon-null": ("epsilon", None, "epsilon"),
    "level-string": ("level", "x", "level"),
    "substeps-string": ("substeps", "many", "substeps"),
    "tolerance-null": ("tolerances", {"frame": None}, "tolerances.frame"),
    "tolerances-list": ("tolerances", [1], "tolerances"),
    "ramp-start-null": ("model.alpha.start", None, "model.alpha.start"),
    "points-fraction": ("grid.points", 2.9, "grid.points"),
    "level-fraction": ("level", 0.7, "level"),
    "substeps-fraction": ("substeps", 2.5, "substeps"),
    "substeps-above-cap": ("substeps", 1e300, "substeps"),
    "substeps-beyond-int64": ("substeps", 20000000000000000000, "substeps"),
    "hbar-bool": ("hbar", True, "hbar"),
    "hbar-infinity": ("hbar", math.inf, "hbar"),
    "points-huge-int": ("grid.points", 10**400, "grid.points"),
    "unknown-top-level": ("epsilom", 0.01, "epsilom"),
    "unknown-grid": ("grid.pts", 3, "grid.pts"),
    "unknown-model": ("model.alfa", 0.1, "model.alfa"),
    "unknown-output": ("output", {"dri": "out"}, "output.dri"),
    "samples-times-null": ("model.alpha", {"kind": "samples", "times": [0.0, None],
                                           "values": [0.1, 0.2]}, "model.alpha.times"),
    "samples-times-number": ("model.alpha", {"kind": "samples", "times": 5,
                                             "values": [0.1]}, "model.alpha"),
}


@pytest.mark.parametrize("key, value, field", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_config_exits_2_naming_the_field(tmp_path, capsys, key, value, field):
    raw = json.loads((ROOT / "scenarios" / "two_level_ramp.json").read_text())
    *parents, last = key.split(".")
    node = raw
    for name in parents:
        node = node[name]
    node[last] = value
    with pytest.raises(ConfigError) as err:
        from_dict(raw)
    assert err.value.field == field
    path = write_config(tmp_path, raw)
    assert main(["validate", str(path)]) == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith(f"config error: {field}: ")
    assert "Traceback" not in stderr


@pytest.mark.parametrize("command", ["run", "validate"])
def test_non_finite_matrix_entry_exits_2_naming_the_field(tmp_path, capsys, command):
    raw = json.loads((ROOT / "scenarios" / "inline_static.json").read_text())
    raw["equation"] = "augmented"
    raw["model"]["G"] = [[[math.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    path = write_config(tmp_path, raw)
    assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: model.G: entry [0][0] must be finite, got [nan, 0.0]\n")
    assert not (tmp_path / "out").exists()


def test_cli_overrides(tmp_path):
    path = write_config(tmp_path, two_level_raw(points=21))
    assert main([
        "run", str(path), "--out-dir", str(tmp_path / "out"),
        "--substeps", "3", "--tol", "1e-8",
    ]) == 0


def test_run_level_out_of_range(tmp_path):
    raw = two_level_raw()
    raw["level"] = 5
    path = write_config(tmp_path, raw)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2


# ------------------------------------------------------------------- sweep

def test_sweep_empty_values(tmp_path):
    cfg = from_dict(two_level_raw(points=21))
    rows = sweep(cfg, "epsilon", [], out_dir=tmp_path)
    assert rows == []
    table = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(table) == 1  # header only
    assert table[0].startswith("value,")


def test_sweep_over_epsilon(tmp_path):
    # fixed small-angle ramp; the bound implication holds in every row
    raw = two_level_raw(points=51)
    raw["model"]["alpha"] = {"kind": "ramp", "start": 0.1, "stop": 0.108}
    cfg = from_dict(raw)
    rows = sweep(cfg, "epsilon", [0.1, 0.3, 0.5], out_dir=tmp_path)
    assert [r["status"] for r in rows] == ["ok"] * 3
    assert all(r["bound_satisfied"] for r in rows)
    assert all(r["bound"] < r["value"] for r in rows)


def test_sweep_over_total_time_keeps_angle_budget(tmp_path):
    # ramps span the grid, so sweeping t_end keeps the angle excursion fixed;
    # the trajectory follows the eigenstate at every speed here, so the loss
    # stays at integrator-noise level in all rows
    cfg = from_dict(two_level_raw(points=51))
    rows = sweep(cfg, "grid.t_end", [0.5, 2.0, 4.0], out_dir=tmp_path)
    assert [r["status"] for r in rows] == ["ok"] * 3
    bounds = [r["bound"] for r in rows]
    assert max(bounds) - min(bounds) <= 0.02 * max(bounds)
    assert all(r["max_fidelity_loss"] < 1e-6 for r in rows)


@pytest.mark.parametrize("axis, values, statuses", [
    ("epsilon", [0.5, 1.5, 0.3], ["ok", "error", "ok"]),
    # the CLI passes every value as a float: integral ones pass an integer field
    ("grid.points", [101.0, 201.0], ["ok", "ok"]),
    ("level", [0.5], ["error"]),
])
def test_sweep_records_row_failures_and_continues(tmp_path, axis, values, statuses):
    cfg = from_dict(two_level_raw(points=21))
    rows = sweep(cfg, axis, values, out_dir=tmp_path)
    assert [r["status"] for r in rows] == statuses
    for row in rows:
        assert row["error"].startswith(f"{axis}: ") == (row["status"] == "error")
    table = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(table) == len(values) + 1


def test_sweep_unknown_axis(tmp_path, capsys):
    path = write_config(tmp_path, two_level_raw(points=21))
    code = main(["sweep", str(path), "--axis", "grid.warp", "--values", "1,2",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "no such config field" in capsys.readouterr().err


def test_sweep_cli_round_trip(tmp_path):
    path = write_config(tmp_path, two_level_raw(points=21))
    code = main(["sweep", str(path), "--axis", "grid.t_end",
                 "--values", "0.5,1.0", "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "sweep.csv").exists()


def test_sweep_non_numeric_values(tmp_path, capsys):
    path = write_config(tmp_path, two_level_raw(points=21))
    assert main(["sweep", str(path), "--axis", "epsilon",
                 "--values", "a,b"]) == 2


@pytest.mark.skipif(shutil.which("ptdyn") is None, reason="console script not installed")
def test_console_script(tmp_path):
    path = write_config(tmp_path, two_level_raw(points=21))
    result = subprocess.run(["ptdyn", "validate", str(path)],
                            capture_output=True, text=True)
    assert result.returncode == 0


def test_config_output_dir_used_as_default(tmp_path, monkeypatch):
    raw = two_level_raw(points=21)
    raw["output"] = {"dir": str(tmp_path / "from_config")}
    path = write_config(tmp_path, raw)
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(path)]) == 0
    assert (tmp_path / "from_config" / "summary.json").exists()
    # an explicit flag wins over the config value
    assert main(["run", str(path), "--out-dir", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "summary.json").exists()


@pytest.mark.parametrize("scenario, validations", [
    ("two_level_ramp", 0), ("constant_metric", 1), ("inline_static", 1),
])
def test_run_builds_one_frame_grid(monkeypatch, scenario, validations):
    """One validated pass per run: every stage reads the same FrameGrid.

    The only per-frame validation left is the configured constant frame.
    """
    cfg = load_config(ROOT / "scenarios" / f"{scenario}.json")
    counts = {"grids": 0, "validations": 0}
    build, validate = FrameGrid.build.__func__, frames.validate_frames

    def counting_build(cls, family, grid):
        counts["grids"] += 1
        return build(cls, family, grid)

    def counting_validate(*args, **kwargs):
        counts["validations"] += 1
        return validate(*args, **kwargs)

    monkeypatch.setattr(FrameGrid, "build", classmethod(counting_build))
    monkeypatch.setattr(frames, "validate_frames", counting_validate)
    run_scenario(cfg)
    assert counts == {"grids": 1, "validations": validations}


def test_ramp_run_takes_an_svd_only_where_a_norm_is_reported_or_open(monkeypatch):
    # 201 points: the frame check's non-zero residuals (the others are all-zero
    # matrices), the RK4 interval starts whose substep count the bracket leaves open
    # (all 200 here, at 100 * ||G|| * dt ~ 0.5), and the family's P/T check (P, K, the
    # PT map PK and the non-zero residuals). The symmetry scan's residuals, which no
    # run reports, are decided from their bracket: taking them exactly made 605.
    # Norming every matrix took 2216, about 11 a point.
    cfg = load_config(ROOT / "scenarios" / "two_level_ramp.json")
    svd, matrices = np.linalg.svd, []

    def counting_svd(X, *args, **kwargs):
        matrices.append(math.prod(np.shape(X)[:-2]))
        return svd(X, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    run_scenario(cfg)
    assert sum(matrices) == 404


def test_run_checks_the_scans_eigenpairs_at_the_eigenframe_tolerance(monkeypatch):
    # The symmetry scan checks its eigenpair residuals at its tolerance, 1e-10 * ||H||;
    # the eigenframe at 1e-12 * ||H||. An eigenvalue moved by 1e-11 at t = 0.035 leaves
    # a residual between the two: the scan passes it, and the eigenframe aborts the run.
    cfg = load_config(ROOT / "scenarios" / "two_level_ramp.json")
    model = build_model(cfg)
    marked = model.hamiltonian.stack(np.array([0.035]))[0]
    solve = linalg._eigenpairs_2x2

    def shifted(M):
        lams, vecs = solve(M)
        return lams + 1e-11 * np.all(M == marked, axis=(1, 2))[:, None], vecs

    monkeypatch.setattr(linalg, "_eigenpairs_2x2", shifted)
    with pytest.raises(ConvergenceError,
                       match=r"^eigenframe at t=0\.035: eigenpair residual 1\.0\d\de-11 exceeds "
                             r"1\.0e-12\*\|\|M\|\| for matrix:\n") as err:
        run_scenario(cfg)
    assert err.value.index == 7


def test_frame_tolerance_sweep_pins_the_boundary():
    # The 3e-16 and 1e-16 rows sit inside the bracket of ||C||^2: only the exact norm
    # decides them.
    cfg = load_config(ROOT / "scenarios" / "two_level_ramp.json")
    rows = sweep(cfg, "tolerances.frame", [1e-10, 5e-16, 3e-16, 1e-16, 1e-17])
    failure = "model: frame axiom 'C^2 = I' violated: residual {} (tolerance {}, scale {}) at t={}"
    assert [(r["status"], r["error"]) for r in rows] == [
        ("ok", ""),
        ("ok", ""),
        ("error", failure.format("4.441e-16", "3.0e-16", "1.26", "0.20500000000000002")),
        ("error", failure.format("3.331e-16", "1.0e-16", "1.22", "0.0")),
        ("error", failure.format("3.331e-16", "1.0e-17", "1.22", "0.0")),
    ]
