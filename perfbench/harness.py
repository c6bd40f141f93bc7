"""Timed and traced calls of one workload's pipeline, inside the worker process."""

from __future__ import annotations

import functools
import gc
import json
import statistics
import time
from pathlib import Path

import numpy as np

import ptdyn
import ptdyn.adiabatic
import ptdyn.cli
import ptdyn.config
import ptdyn.dynamics
import workloads
from tracing import LAYERS, Tracer

MIN_CALLS = 3
CONFIG_LOADS = 5

# Machine-speed probe. On a shared VM the same call drifts by 20% over
# minutes; a fixed kernel of small-matrix numpy calls, timed before each
# call and once after the last, slows down with it. Times are reported
# scaled to the speed at which the kernel takes CAL_NOMINAL_S (its median
# on the baseline machine, see baseline.json).
CAL_ITERS = 13000
CAL_NOMINAL_S = 0.75
_CAL_RNG = np.random.default_rng(0)
_CAL_MATS = [_CAL_RNG.normal(size=(2, 2)) + 1j * _CAL_RNG.normal(size=(2, 2)) for _ in range(50)]


def calibrate() -> float:
    """Seconds for the fixed calibration kernel; never calls ptdyn."""
    eye = np.eye(2)
    start = time.perf_counter()
    for i in range(CAL_ITERS):
        M = _CAL_MATS[i % 50]
        np.linalg.norm(M, 2)
        np.linalg.eigvalsh(M + M.conj().T)
        np.linalg.inv(M @ M + 3.0 * eye)
    return time.perf_counter() - start

# Per-layer metrics of one traced call, by name. Keep in step with
# ``per_layer`` in BENCHMARK.json (a test checks it).
SPAN_METRICS = {
    "frames.validate_frames": ("calls", "calls_per_point", "s", "self_s"),
    "linalg.operator_norm": ("calls", "calls_per_point", "s"),
    "linalg.eigenpairs": ("calls", "s"),
    "linalg.hermitian_sqrt": ("calls", "s"),
    "linalg.family_derivative": ("calls", "s"),
    "frames.symmetry_report": ("calls", "s"),
    "frames.cpt_norm": ("calls",),
    "dynamics.evolve_state": ("s", "self_s"),
    "dynamics._rk4_run": ("self_s",),
    "dynamics.effective_generator": ("calls",),
    "dynamics.norm_drift_rate": ("calls",),
    "adiabatic.build_eigenframe": ("s", "self_s"),
    "adiabatic.build_report": ("s", "self_s"),
    "cli.build_model": ("s",),
    "cli._frame_and_symmetry": ("s",),
}
# Renamed in the output: private names are not part of the metric names.
ALIASES = {"dynamics._rk4_run": "dynamics.rk4", "cli._frame_and_symmetry": "cli.frame_symmetry_scan"}
GROUPS = {
    "models.build.s": {"models.build_two_level", "models.build_constant_metric"},
    "cli.artifact_write.s": {"cli._write_trajectory_csv", "cli._write_adiabatic_csv",
                             "cli._atomic_write"},
}
COUNT_KEYS = ("calls", "calls_per_point")


def per_layer_names() -> list[str]:
    names = [f"{ALIASES.get(fn, fn)}.{key}" for fn, keys in SPAN_METRICS.items() for key in keys]
    names += list(GROUPS)
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["dynamics.rk4_substeps", "cli.artifact_bytes", "config.load.s", "trace.overhead_s"]
    return names


def is_count(name: str) -> bool:
    return name.endswith(COUNT_KEYS) or name in ("dynamics.rk4_substeps", "cli.artifact_bytes")


def layer_unit(name: str) -> str:
    if name == "cli.artifact_bytes":
        return "bytes"
    if name.endswith("calls_per_point"):
        return "1/point"
    return "count" if is_count(name) else "s"


class _Capture:
    """Keeps the last eigenframe and trajectory a pipeline call produced.

    ``run_scenario`` returns only its summary; the gate needs the
    eigenframe's energies and the trace needs the trajectory's substeps.
    The hooks replace the functions in the package namespaces, so one
    instance serves the whole process (see :func:`capture`).
    """

    def __init__(self):
        self.results = {}
        for mod, name in ((ptdyn.adiabatic, "build_eigenframe"), (ptdyn.dynamics, "evolve_state")):
            original = getattr(mod, name)
            hook = self._hook(original, name)
            for ns in (ptdyn, ptdyn.adiabatic, ptdyn.dynamics, ptdyn.cli):
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, hook)

    def _hook(self, fn, name):
        @functools.wraps(fn)
        def hook(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.results[name] = out
            return out
        return hook

    def take(self):
        out = self.results
        self.results = {}
        return out["build_eigenframe"], out["evolve_state"]


@functools.cache
def capture() -> _Capture:
    return _Capture()


class Bench:
    """One workload and seed: warm-up, timed calls, traced calls, gate."""

    def __init__(self, workload: str, seed: int, inputs_path: str, loaded, work_dir: str):
        self.workload = workload
        self.seed = seed
        self.spec = json.loads(Path(inputs_path).read_text())
        self.inputs_path = inputs_path
        self.loaded = loaded
        self.expected = workloads.load_reference(workload, seed)
        self.out_dir = Path(work_dir) / "artifacts" if workload != "drift_d8" else None
        self.points = self.spec["grid"]["points"]
        self.oracles = self._oracles(self.spec)
        self.capture = capture()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.values = None

    def _oracles(self, spec):
        """Closed-form energies and static_rk4 phases on the spec's grid."""
        g = spec["grid"]
        times = np.linspace(g["t_start"], g["t_end"], g["points"])
        return (workloads.oracle_energies(self.workload, spec, times),
                workloads.oracle_phases(self.workload, spec, times))

    # ------------------------------------------------------------ one call

    def _pipeline(self, loaded, spec):
        if self.workload == "drift_d8":
            summary, eframe, trajectory = workloads.d8_pipeline(spec)
        else:
            summary = ptdyn.cli.run_scenario(loaded, out_dir=self.out_dir)
            eframe, trajectory = self.capture.take()
        return summary, eframe, trajectory

    def call(self, expected=None, warmup=False):
        """One full pipeline call plus its gate; returns (seconds, trajectory).

        ``expected`` is the stored reference, if any. A raised exception or
        a gate mismatch counts as a failed call. Timed calls must also agree
        with the first one; the warm-up call runs on its own small grid.
        """
        loaded, spec, (energies, phases) = self._warm if warmup else (
            self.loaded, self.spec, self.oracles)
        self.attempted += 1
        gc.collect()
        trajectory = None
        start = time.perf_counter()
        try:
            summary, eframe, trajectory = self._pipeline(loaded, spec)
            level = spec["level"]
            values = workloads.gated_values(summary, eframe, trajectory, level)
            exact = None if phases is None else phases[:, None] * eframe.states[0, level]
            errors = workloads.gate_errors(values, expected, eframe.energies, energies,
                                           trajectory.states, exact)
            if not (errors or warmup):
                if self.values is None:
                    self.values = values
                elif workloads.reference_errors(values, self.values):
                    errors = [f"result differs from the run's first call: {values}"]
        except Exception as exc:  # a failed call is recorded, never dropped
            errors = [f"{type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
        if errors:
            self.failed += 1
            self.errors.extend(errors[:3])
        return elapsed, trajectory

    def warmup(self):
        spec = workloads.make_inputs(self.workload, self.seed, points=workloads.WARMUP_POINTS)
        loaded = spec if self.workload == "drift_d8" else ptdyn.config.from_dict(spec)
        self._warm = (loaded, spec, self._oracles(spec))
        self.call(warmup=True)

    # ------------------------------------------------------------ a run

    def measure(self, seconds: float, trace: bool) -> dict:
        tracer = Tracer() if trace else None
        if trace:
            load_s = self._traced_config_loads(tracer)
        self.warmup()
        plain, traced, cals = [], [], []
        start = time.perf_counter()
        while True:
            if trace and len(plain) > len(traced):
                tracer.install()
                try:
                    elapsed, trajectory = self.call(expected=self.expected)
                finally:
                    tracer.remove()
                traced.append((elapsed, self._layer_metrics(tracer, trajectory)))
            else:
                cals.append(calibrate())
                plain.append(self.call(expected=self.expected)[0])
            if time.perf_counter() - start >= seconds and len(plain) + len(traced) >= MIN_CALLS:
                break
        cals.append(calibrate())
        speed = CAL_NOMINAL_S / statistics.median(cals)
        result = {
            "calls": len(plain),
            "solve_wall_s": statistics.median(plain),
            "solve_s": statistics.median(plain) * speed,
            "solve_samples": plain,
            "cal_samples": cals,
            "speed": speed,
        }
        if trace:
            layers = self._combine(traced)
            layers["config.load.s"] = load_s
            layers["trace.overhead_s"] = (
                statistics.median(t for t, _ in traced) - result["solve_wall_s"])
            result["traced_calls"] = len(traced)
            result["layers"] = {name: {"value": value, "unit": layer_unit(name)}
                                for name, value in layers.items()}
        result.update({
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors[:10],
            "reference": "stored" if self.expected is not None else "none",
        })
        return result

    def _traced_config_loads(self, tracer) -> float:
        config_fns = {name for name in tracer.names if name.startswith("config.")}
        times = []
        for _ in range(CONFIG_LOADS):
            tracer.install()
            try:
                if self.workload == "drift_d8":
                    ptdyn.config.frame_from_dict(self.spec["frame"])
                else:
                    ptdyn.config.load_config(self.inputs_path)
            finally:
                tracer.remove()
            times.append(tracer.outermost_s(config_fns))
        return statistics.median(times)

    def _layer_metrics(self, tracer, trajectory) -> dict:
        prof = tracer.profile()
        out = {}
        for fn, keys in SPAN_METRICS.items():
            entry = prof.get(fn, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in keys:
                value = entry["calls"] / self.points if key == "calls_per_point" else entry[key]
                out[f"{ALIASES.get(fn, fn)}.{key}"] = value
        for name, members in GROUPS.items():
            out[name] = tracer.outermost_s(members)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v["self_s"] for fn, v in prof.items() if fn.startswith(layer + "."))
        out["dynamics.rk4_substeps"] = (
            int(sum(trajectory.diagnostics["substeps"])) if trajectory is not None else 0)
        out["cli.artifact_bytes"] = (
            sum(p.stat().st_size for p in self.out_dir.iterdir()) if self.out_dir else 0)
        return out

    def _combine(self, traced) -> dict:
        """Counts from the first traced call (checked equal across calls), median times."""
        first = traced[0][1]
        combined = {}
        for name, value in first.items():
            if is_count(name):
                if any(m[name] != value for _, m in traced[1:]):
                    self.failed += 1
                    self.errors.append(f"count {name} differs between traced calls")
                combined[name] = value
            else:
                combined[name] = statistics.median(m[name] for _, m in traced)
        return combined
