"""Seeded input generators and the correctness gate."""

import json
import math

import numpy as np
import pytest
import scipy.linalg

import ptdyn
import ptdyn.dynamics
import workloads
from harness import Bench

SEEDS = range(20)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = workloads.make_inputs(workload, 7)
    assert json.dumps(a) == json.dumps(workloads.make_inputs(workload, 7))
    assert json.dumps(a) != json.dumps(workloads.make_inputs(workload, 8))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_parameters_only(workload):
    a, b = workloads.make_inputs(workload, 1), workloads.make_inputs(workload, 2)
    assert a["grid"] == b["grid"]
    assert a["grid"]["points"] == workloads.POINTS[workload]
    if workload != "drift_d8":
        assert a["substeps"] == b["substeps"]
        assert a["equation"] == b["equation"]


def test_ramp_keeps_cos_alpha_margin():
    for seed in SEEDS:
        alpha = workloads.make_inputs("ramp_2x2", seed)["model"]["alpha"]
        assert min(math.cos(alpha["start"]), math.cos(alpha["stop"])) >= 0.65


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_d8_frames_valid_and_spectrum_nondegenerate(seed):
    spec = workloads.make_inputs("drift_d8", seed)
    g = spec["grid"]
    grid = np.linspace(g["t_start"], g["t_end"], g["points"])
    ham, family = workloads.d8_families(spec)
    oracle = workloads.d8_energies(spec, grid)
    for k, t in enumerate(grid):
        family.frame_at(t)  # validate_frames raises on any axiom violation
        lams = np.linalg.eigvals(ham(t))
        assert np.max(np.abs(lams.imag)) < 1e-9
        energies = np.sort(lams.real)
        assert np.min(np.diff(energies)) > 0.5
        np.testing.assert_allclose(energies, oracle[k], atol=1e-9)


def test_d8_initial_frame_loads_through_config():
    spec = workloads.make_inputs("drift_d8", 3)
    frame = ptdyn.frame_from_dict(spec["frame"])
    assert frame.dim == 8


def _small_bench(tmp_path, workload, seed=0):
    """A Bench on the warm-up grid, so a call takes well under a second."""
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps(workloads.make_inputs(workload, seed,
                                                       points=workloads.WARMUP_POINTS)))
    loaded = (json.loads(inputs.read_text()) if workload == "drift_d8"
              else ptdyn.load_config(inputs))
    return Bench(workload, seed, str(inputs), loaded, str(tmp_path))


def _good_values(tmp_path, workload):
    bench = _small_bench(tmp_path, workload)
    bench.call()
    assert (bench.failed, bench.errors) == (0, [])
    return bench.values


def _fails(tmp_path, workload, expected):
    fresh = _small_bench(tmp_path, workload)
    fresh.call(expected=expected)
    assert fresh.attempted == 1
    return fresh.failed == 1, fresh.errors


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_gate_passes_own_result_and_fails_perturbed_reference(tmp_path, workload):
    good = _good_values(tmp_path, workload)
    for key in ("bound", "max_fidelity_loss", "norm_drift", "overlap_re", "overlap_im"):
        # far below physical change, above float reordering
        failed, errors = _fails(tmp_path, workload, dict(good, **{key: good[key] * (1 + 1e-6) + 1e-11}))
        assert failed, key
        assert key in errors[0]
    assert _fails(tmp_path, workload, dict(good, exit_status=1))[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_gate_fails_perturbed_phase(tmp_path, workload):
    good = _good_values(tmp_path, workload)
    z = complex(good["overlap_re"], good["overlap_im"]) * np.exp(1e-8j)
    failed, errors = _fails(tmp_path, workload, dict(good, overlap_re=z.real, overlap_im=z.imag))
    assert failed
    assert "overlap" in errors[0]


def _first_order_run(problem, y0):
    """A wrong integrator: one exact exponential of the generator frozen at each step's start.

    It keeps the frame norm about as well as RK4 and changes only the phase
    and the tracking error, which the fidelity loss hardly sees.
    """
    grid, y = problem.grid, y0.astype(complex)
    values, substeps = [y], []
    for t0, t1 in zip(grid[:-1], grid[1:]):
        n = problem.substeps or 1
        h = (t1 - t0) / n
        for j in range(n):
            G = ptdyn.dynamics.effective_generator(problem, t0 + j * h)
            y = scipy.linalg.expm((-1j * h / problem.hbar) * G) @ y
        values.append(y)
        substeps.append(n)
    return values, substeps


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_gate_fails_wrong_integrator(tmp_path, workload, monkeypatch):
    good = _good_values(tmp_path, workload)
    monkeypatch.setattr(ptdyn.dynamics, "_rk4_run", _first_order_run)
    failed, errors = _fails(tmp_path, workload, good)
    assert failed
    if workload == "static_rk4":
        # no stored reference needed: the closed-form trajectory catches it
        assert _fails(tmp_path, workload, None)[0]


def test_static_trajectory_matches_closed_form():
    spec = workloads.make_inputs("static_rk4", 3)
    g = spec["grid"]
    times = np.linspace(g["t_start"], g["t_end"], g["points"])
    phases = workloads.oracle_phases("static_rk4", spec, times)
    assert abs(phases[0] - 1.0) == 0.0
    # the phase derivative is -(a - b): the level-0 energy of the oracle
    energies = workloads.oracle_energies("static_rk4", spec, times)[:, 0]
    rate = np.gradient(np.unwrap(np.angle(phases)), times)
    np.testing.assert_allclose(rate[1:-1], -energies[1:-1], atol=1e-3)
    assert workloads.oracle_phases("ramp_2x2", workloads.make_inputs("ramp_2x2", 3), times) is None


def test_gate_fails_wrong_energies_and_trajectory():
    oracle = np.array([[0.0, 2.0], [0.0, 1.9]])
    values = {"bound": 0.1, "max_fidelity_loss": 0.0, "norm_drift": 0.0,
              "overlap_re": 1.0, "overlap_im": 0.0, "exit_status": 0}
    assert workloads.gate_errors(values, values, oracle, oracle) == []
    assert workloads.gate_errors(values, values, oracle + 1e-6, oracle)
    exact = np.exp(-1j * np.linspace(0.0, 1.0, 5))[:, None] * np.array([0.6, 0.8j])
    assert workloads.gate_errors(values, None, oracle, oracle, exact, exact) == []
    drifted = exact * np.exp(1e-8j * np.arange(5))[:, None]
    assert workloads.gate_errors(values, None, oracle, oracle, drifted, exact)


def test_reference_covers_seeds():
    table = json.loads(workloads.REFERENCE_PATH.read_text())
    for workload in workloads.WORKLOADS:
        assert set(table["values"][workload]) >= {str(s) for s in SEEDS}
        for values in table["values"][workload].values():
            assert set(values) == set(workloads.GATED_KEYS)
