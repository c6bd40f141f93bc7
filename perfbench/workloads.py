"""Seeded workload inputs, the pipeline each workload times, and the correctness gate.

A seed only draws physical parameters: the grid, the substep rule and the
pipeline stages are the same for every seed, so every seed does the same
amount of work.

* ``ramp_2x2``   -- the two-level model with a seeded alpha ramp at 2001
  points through ``ptdyn.cli.run_scenario``. The metric moves at every
  point; time goes to frame validation, SVD norms and the eigenframe.
* ``static_rk4`` -- the constant-metric model (Schrodinger equation, 100
  substeps per interval) at 501 points through ``run_scenario``. The frame
  never moves; about 90% of the time is the RK4 loop.
* ``drift_d8``   -- an 8x8 time-dependent metric (four two-level blocks,
  energy offsets 3j, conjugated by a seeded real orthogonal Q) at 1001
  points through the library API. Uses the LAPACK paths of ``linalg`` and
  writes no artifacts.

Scenario inputs are plain JSON written by the parent process; the worker
process loads them through ``ptdyn.config``. This module imports ``ptdyn``
only inside functions, so the parent can generate inputs without it.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

WORKLOADS = ("ramp_2x2", "static_rk4", "drift_d8")

POINTS = {"ramp_2x2": 2001, "static_rk4": 501, "drift_d8": 1001}
# Grid used by the warm-up call: same code paths, a fraction of the work.
WARMUP_POINTS = 41

D8_SUBSTEPS = 2
D8_OFFSET = 3.0
D8_BLOCKS = 4
SYMMETRY_TOL = 1e-10
NORM_DRIFT_TOL = 1e-6

# Gate tolerance: |x - ref| <= RTOL * |ref| + ATOL. Loose enough for float
# reordering (the roadmap allows 1e-12 relative for a batched rewrite), far
# below any physical change. ATOL sits above the accumulated roundoff in
# the stored values (up to ~1e-13) yet low enough that the values that are
# themselves tiny (fidelity loss and norm drift, 1e-16 to
# 1e-10; the final overlap's imaginary part on the compensated workloads)
# are still compared, not waved through.
GATE_RTOL = 1e-9
GATE_ATOL = 1e-12
# Closed-form energies versus the eigenframe's energies.
ENERGY_ATOL = 1e-9
# Closed-form static_rk4 trajectory versus the integrated one. RK4 is off by
# ~1e-14 on the full grid and ~1e-11 on the warm-up grid; a first-order step
# is off by ~1e-4.
STATE_ATOL = 1e-10

# overlap_re/overlap_im: the complex overlap (psi_level(T)| PC(T) |phi(T)) of
# the tracked eigenvector and the final state. Unlike the fidelity loss it
# keeps the phase, and it does not depend on the phase of the initial
# eigenvector (the state starts in it and the eigenframe is transported).
GATED_KEYS = ("bound", "max_fidelity_loss", "norm_drift", "overlap_re", "overlap_im",
              "exit_status")

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def _pairs(M) -> list:
    A = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in A]


def _c2(a: float) -> np.ndarray:
    return (1.0 / math.cos(a)) * np.array(
        [[1j * math.sin(a), 1.0], [1.0, -1j * math.sin(a)]], dtype=complex
    )


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def make_inputs(workload: str, seed: int, points: int | None = None) -> dict:
    """The workload's scenario as a JSON-ready dict; the same seed gives the same dict.

    ``points`` replaces the workload's grid size (the warm-up call uses
    WARMUP_POINTS); every other input is the same.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (known: {WORKLOADS})")
    rng = random.Random(f"{workload}:{seed}")
    points = POINTS[workload] if points is None else points
    if workload == "ramp_2x2":
        # |alpha| <= 0.8 keeps cos(alpha) >= 0.69, well above the model's 1/2.
        start = rng.uniform(-0.5, 0.5)
        stop = min(0.8, max(-0.8, start + rng.choice((-1, 1)) * rng.uniform(0.04, 0.3)))
        return {
            "model": {
                "kind": "two_level",
                "s": {"kind": "constant", "value": rng.uniform(0.8, 1.25)},
                "alpha": {"kind": "ramp", "start": start, "stop": stop},
            },
            "equation": "compensated",
            "hbar": 1.0,
            "grid": {"t_start": 0.0, "t_end": 1.0, "points": points},
            "level": 0,
            "epsilon": 0.5,
            "substeps": None,
            "tolerances": {"frame": 1e-10, "symmetry": SYMMETRY_TOL,
                           "norm_drift": NORM_DRIFT_TOL, "realness": 1e-10},
        }
    if workload == "static_rk4":
        angle = rng.uniform(-0.9, 0.9)
        return {
            "model": {
                "kind": "constant_metric",
                "a": {"kind": "sinusoid", "amplitude": rng.uniform(0.5, 1.5),
                      "frequency": rng.uniform(0.5, 2.0),
                      "phase": rng.uniform(0.0, 2.0 * math.pi)},
                "b": {"kind": "constant", "value": 1.0},
                "C": _pairs(_c2(angle)),
                "P": _pairs(SIGMA_X),
                "K": _pairs(np.eye(2)),
            },
            "equation": "schrodinger",
            "grid": {"t_start": 0.0, "t_end": 10.0, "points": points},
            "level": 0,
            "epsilon": 0.5,
            "substeps": 100,
            "tolerances": {"symmetry": SYMMETRY_TOL, "norm_drift": NORM_DRIFT_TOL},
        }
    blocks = []
    for _ in range(D8_BLOCKS):
        start = rng.uniform(-0.5, 0.5)
        stop = min(0.8, max(-0.8, start + rng.uniform(-0.25, 0.25)))
        blocks.append({"s": rng.uniform(0.6, 1.2), "alpha_start": start, "alpha_stop": stop})
    q_rng = np.random.default_rng(rng.getrandbits(63))
    Q, R = np.linalg.qr(q_rng.normal(size=(2 * D8_BLOCKS, 2 * D8_BLOCKS)))
    Q = Q * np.sign(np.diag(R))
    spec = {
        "grid": {"t_start": 0.0, "t_end": 1.0, "points": points},
        "blocks": blocks,
        "Q": Q.tolist(),
        "level": 0,
        "epsilon": 0.5,
    }
    C0, P, K = _d8_frame_matrices(spec, 0.0)
    spec["frame"] = {"C": _pairs(C0), "P": _pairs(P), "K": _pairs(K)}
    return spec


def write_inputs(workload: str, seed: int, path: Path) -> Path:
    path.write_text(json.dumps(make_inputs(workload, seed), indent=1) + "\n")
    return path


# ---------------------------------------------------------------- drift_d8 model

def _alpha(block: dict, t: float, t_start: float, t_end: float) -> tuple[float, float]:
    slope = (block["alpha_stop"] - block["alpha_start"]) / (t_end - t_start)
    return block["alpha_start"] + slope * (t - t_start), slope


def _d8_frame_matrices(spec: dict, t: float):
    Q = np.asarray(spec["Q"], dtype=float)
    g = spec["grid"]
    n = 2 * len(spec["blocks"])
    C = np.zeros((n, n), dtype=complex)
    P = np.zeros((n, n), dtype=complex)
    for j, block in enumerate(spec["blocks"]):
        a, _ = _alpha(block, t, g["t_start"], g["t_end"])
        C[2 * j:2 * j + 2, 2 * j:2 * j + 2] = _c2(a)
        P[2 * j:2 * j + 2, 2 * j:2 * j + 2] = SIGMA_X
    return Q @ C @ Q.T, Q @ P @ Q.T, np.eye(n, dtype=complex)


def d8_energies(spec: dict, times) -> np.ndarray:
    """Closed-form spectrum of the drift_d8 Hamiltonian, ascending, shape (n_t, 8)."""
    g = spec["grid"]
    cols = []
    for j, block in enumerate(spec["blocks"]):
        a = np.array([_alpha(block, t, g["t_start"], g["t_end"])[0] for t in times])
        cols += [np.full(a.shape, D8_OFFSET * j), D8_OFFSET * j + 2.0 * block["s"] * np.cos(a)]
    return np.sort(np.column_stack(cols), axis=1)


def d8_families(spec: dict):
    """(hamiltonian OperatorFamily, FrameFamily) of the drift_d8 model, analytic derivatives."""
    import ptdyn

    Q = np.asarray(spec["Q"], dtype=float)
    g = spec["grid"]
    t_start, t_end = g["t_start"], g["t_end"]
    blocks = spec["blocks"]
    n = 2 * len(blocks)
    zdiag = 1j * np.diag([1.0, -1.0])

    def blockwise(fn):
        def evaluate(t):
            M = np.zeros((n, n), dtype=complex)
            for j, block in enumerate(blocks):
                a, da = _alpha(block, t, t_start, t_end)
                M[2 * j:2 * j + 2, 2 * j:2 * j + 2] = fn(j, block, a, da)
            return Q @ M @ Q.T
        return evaluate

    def h(j, block, a, da):
        s, e = block["s"], np.exp(1j * a)
        return np.array([[s * e, s], [s, s / e]]) + D8_OFFSET * j * np.eye(2)

    def hdot(j, block, a, da):
        s, e = block["s"], np.exp(1j * a)
        return np.array([[1j * da * s * e, 0.0], [0.0, -1j * da * s / e]])

    def c(j, block, a, da):
        return _c2(a)

    def cdot(j, block, a, da):
        return da * (math.tan(a) * _c2(a) + zdiag)

    ham = ptdyn.OperatorFamily(t_start, t_end, blockwise(h), blockwise(hdot))
    c_family = ptdyn.OperatorFamily(t_start, t_end, blockwise(c), blockwise(cdot))
    _, P, K = _d8_frame_matrices(spec, t_start)
    family = ptdyn.FrameFamily(c_family, P, ptdyn.AntilinearOperator(K))
    return ham, family


def d8_pipeline(spec: dict):
    """run_scenario's stages for drift_d8, through the library API.

    Returns (summary, eigenframe, trajectory). The summary has the gated keys and an
    exit status computed by the same rule as ``ptdyn run``.
    """
    import ptdyn

    g = spec["grid"]
    grid = np.linspace(g["t_start"], g["t_end"], g["points"])
    ham, family = d8_families(spec)
    symmetry_ok = True
    for t in grid:
        rep = ptdyn.symmetry_report(family.frame_at(t), ham(t), tol=SYMMETRY_TOL)
        symmetry_ok &= bool(rep.pt_symmetric and rep.cpt_hermitian and rep.unbroken)
    level = spec["level"]
    eframe = ptdyn.build_eigenframe(ham, family, grid)
    problem = ptdyn.EvolutionProblem(
        hamiltonian=ham, frame_family=family, grid=grid,
        equation=ptdyn.Equation.COMPENSATED,
        initial_state=eframe.states[0, level], substeps=D8_SUBSTEPS,
    )
    trajectory = ptdyn.evolve_state(problem)
    report = ptdyn.build_report(eframe, family, trajectory, level, spec["epsilon"])
    norm_drift = trajectory.max_norm_drift
    ok = symmetry_ok and norm_drift <= NORM_DRIFT_TOL and report.bound_satisfied
    summary = {
        "adiabatic": {"bound": report.bound, "max_fidelity_loss": report.max_fidelity_loss},
        "norm_drift": norm_drift,
        "exit_status": 0 if ok else 1,
    }
    return summary, eframe, trajectory


# ---------------------------------------------------------------- correctness gate

def gated_values(summary: dict, eframe, trajectory, level: int) -> dict:
    overlap = complex(np.vdot(eframe.states[-1, level], eframe.metrics[-1] @ trajectory.states[-1]))
    return {
        "bound": float(summary["adiabatic"]["bound"]),
        "max_fidelity_loss": float(summary["adiabatic"]["max_fidelity_loss"]),
        "norm_drift": float(summary["norm_drift"]),
        "overlap_re": overlap.real,
        "overlap_im": overlap.imag,
        "exit_status": int(summary["exit_status"]),
    }


def oracle_energies(workload: str, spec: dict, times) -> np.ndarray:
    """Closed-form eigenvalues on the grid, ascending per point."""
    times = np.asarray(times, dtype=float)
    if workload == "drift_d8":
        return d8_energies(spec, times)
    model = spec["model"]
    g = spec["grid"]
    if workload == "ramp_2x2":
        s = model["s"]["value"]
        a0, a1 = model["alpha"]["start"], model["alpha"]["stop"]
        alpha = a0 + (a1 - a0) * (times - g["t_start"]) / (g["t_end"] - g["t_start"])
        return np.column_stack([np.zeros_like(times), 2.0 * s * np.cos(alpha)])
    a_spec, b = model["a"], model["b"]["value"]
    a = a_spec["amplitude"] * np.sin(a_spec["frequency"] * times + a_spec["phase"])
    return np.column_stack([a - b, a + b])  # C has eigenvalues -1 and +1


def oracle_phases(workload: str, spec: dict, times) -> np.ndarray | None:
    """Closed-form phase of the static_rk4 state on the grid; None for the others.

    H(t) = a(t) I + b C with C constant keeps the initial level-0 eigenvector
    (C psi0 = -psi0), so the exact state is exp(-i/hbar int (a - b) dt) psi0,
    with int a dt in closed form for the sinusoid.
    """
    if workload != "static_rk4":
        return None
    times = np.asarray(times, dtype=float)
    a_spec, b = spec["model"]["a"], spec["model"]["b"]["value"]
    amp, freq, phase = a_spec["amplitude"], a_spec["frequency"], a_spec["phase"]
    t0 = spec["grid"]["t_start"]
    integral = (amp / freq * (math.cos(freq * t0 + phase) - np.cos(freq * times + phase))
                - b * (times - t0))
    return np.exp(-1j / spec.get("hbar", 1.0) * integral)


def reference_errors(values: dict, expected: dict) -> list[str]:
    """Gated values that differ from ``expected`` by more than the gate tolerance."""
    return [f"{key} {values[key]!r} != reference {expected[key]!r}" for key in GATED_KEYS
            if not abs(values[key] - expected[key]) <= GATE_RTOL * abs(expected[key]) + GATE_ATOL]


def gate_errors(values: dict, expected: dict | None, energies: np.ndarray, oracle: np.ndarray,
                states: np.ndarray | None = None,
                exact_states: np.ndarray | None = None) -> list[str]:
    """Reasons a call's result is wrong; empty when it passes the gate.

    ``expected`` is the stored reference for this workload and seed, or
    None when the seed has no stored reference; the closed-form energies
    (and, where given, the closed-form trajectory), the exit status and the
    norm-drift tolerance are checked either way.
    """
    errors = []
    if values["exit_status"] != 0:
        errors.append(f"exit_status {values['exit_status']} != 0")
    if not values["norm_drift"] <= NORM_DRIFT_TOL:
        errors.append(f"norm_drift {values['norm_drift']:.3e} > {NORM_DRIFT_TOL}")
    if energies.shape != oracle.shape:
        errors.append(f"energies shape {energies.shape} != {oracle.shape}")
    else:
        err = float(np.max(np.abs(energies - oracle) / np.maximum(1.0, np.abs(oracle))))
        if not err <= ENERGY_ATOL:
            errors.append(f"energies differ from the closed form by {err:.3e}")
    if exact_states is not None:
        err = (float(np.max(np.abs(states - exact_states)))
               if states.shape == exact_states.shape else math.inf)
        if not err <= STATE_ATOL:
            errors.append(f"trajectory differs from the closed form by {err:.3e}")
    if expected is not None:
        errors += reference_errors(values, expected)
    return errors


def load_reference(workload: str, seed: int) -> dict | None:
    table = json.loads(REFERENCE_PATH.read_text())
    return table["values"].get(workload, {}).get(str(seed))
