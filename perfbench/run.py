"""ptdyn benchmark: time one workload end to end, or trace it per layer.

    python3 perfbench/run.py --workload ramp_2x2 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the root of a source checkout; ptdyn is imported from ``src/``.
Each run starts its children one at a time, with BLAS pinned to one
thread: SETUP_PROBES short-lived interpreters that only import ptdyn and
load the scenario (``setup_s``), then one workload child that warms up and
times full pipeline calls for ``--seconds``. Every call is checked against
the stored reference and closed-form oracles (see workloads.py).

With ``--trace 0`` the last stdout line holds the end-to-end metrics
(solve_s, setup_s, peak_rss_mb); ``failure_rate`` is printed above it and
carried by ``attempted``/``failed``. With ``--trace 1`` it holds the
per-layer metrics of a traced run, and the full profile is written to
``perfbench/out/``. ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 3
# A child may run this long past its --seconds: start-up, the warm-up call,
# the timed call in flight when the time is up, and the last calibration.
CHILD_MARGIN_S = 120
UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class ChildFailed(RuntimeError):
    pass


def _child(args: list[str], seconds: float = 0.0) -> dict:
    env = dict(os.environ, **CHILD_ENV)
    timeout = seconds + CHILD_MARGIN_S
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed("worker printed nothing")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up probes and one measuring child for a workload; the contract result."""
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        inputs = workloads.write_inputs(workload, seed, work / "inputs.json")
        base = ["--workload", workload, "--inputs", str(inputs)]
        setups = [_child(base + ["--mode", "setup"])["setup_s"] for _ in range(SETUP_PROBES)]
        res = _child(base + ["--mode", "run", "--seed", str(seed), "--seconds", str(seconds),
                             "--trace", str(int(trace)), "--work", str(work)], seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res["setup_s"])
    res["setup_wall_s"] = statistics.median(setups)
    res["setup_s"] = res["setup_wall_s"] * res["speed"]
    res["setup_samples"] = setups
    if trace:
        metrics = res["layers"]
        (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(res, indent=1) + "\n")
    else:
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in UNITS.items()}
    _report(workload, seed, res, metrics)
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def _report(workload: str, seed: int, res: dict, metrics: dict) -> None:
    samples = ", ".join(f"{s:.3f}" for s in res["solve_samples"])
    print(f"{workload} seed={seed}: {res['calls']} timed calls [{samples}] s wall, "
          f"reference={res['reference']}")
    print(f"  machine speed {res['speed']:.4f} x nominal; wall medians: "
          f"solve {res['solve_wall_s']:.4f} s, setup {res['setup_wall_s']:.4f} s")
    print(f"  peak RSS {res['peak_rss_mb']:.1f} MiB = {res['setup_rss_mb']:.1f} MiB after set-up "
          f"(interpreter, numpy, scipy, ptdyn) + {res['peak_rss_mb'] - res['setup_rss_mb']:.1f} MiB "
          f"added by the pipeline calls")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    rate = res["failed"] / res["attempted"]
    print(f"  {'failure_rate':44s} {rate:>14.6g} fraction "
          f"({res['failed']} of {res['attempted']} calls)")
    for err in res["errors"]:
        print(f"  error: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
