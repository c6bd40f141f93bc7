"""Traced counts: they repeat exactly, and pinned values hold for every seed.

Each test makes full-size traced pipeline calls (several seconds each).
"""

import json
from pathlib import Path

import pytest

import ptdyn
import run
import workloads
from harness import Bench, is_count, layer_unit, per_layer_names
from tracing import Tracer

# Values measured when the benchmark was defined. A change to the package
# that moves one of them must say so; the benchmark must not be edited to match.
RK4_SUBSTEPS = {"ramp_2x2": 2000, "static_rk4": 50000, "drift_d8": 2000}


def traced_counts(work: Path, workload, seed):
    work.mkdir()
    inputs = workloads.write_inputs(workload, seed, work / "inputs.json")
    loaded = (json.loads(inputs.read_text()) if workload == "drift_d8"
              else ptdyn.load_config(inputs))
    bench = Bench(workload, seed, str(inputs), loaded, str(work))
    tracer = Tracer()
    tracer.install()
    try:
        _, trajectory = bench.call()
    finally:
        tracer.remove()
    assert bench.failed == 0, bench.errors
    metrics = bench._layer_metrics(tracer, trajectory)
    return {name: value for name, value in metrics.items() if is_count(name)}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_and_substeps_fixed(tmp_path, workload):
    first = traced_counts(tmp_path / "first", workload, 0)
    again = traced_counts(tmp_path / "again", workload, 0)
    other = traced_counts(tmp_path / "other", workload, 1)
    assert first == again
    assert first["dynamics.rk4_substeps"] == RK4_SUBSTEPS[workload]
    assert other["dynamics.rk4_substeps"] == RK4_SUBSTEPS[workload]
    if workload == "ramp_2x2":
        assert first["frames.validate_frames.calls_per_point"] == 5.0
        assert first["frames.validate_frames.calls"] == 5 * workloads.POINTS[workload]
    if workload == "drift_d8":
        assert first["cli.artifact_bytes"] == 0
    else:
        assert first["cli.artifact_bytes"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == per_layer_names()
    assert all(m["unit"] == layer_unit(m["name"]) for m in spec["per_layer"])
    assert [m["name"] for m in spec["end_to_end"]] == list(run.UNITS)
    assert all(m["unit"] == run.UNITS[m["name"]] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
