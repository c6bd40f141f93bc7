"""Regenerate reference.json: the gated values of every workload at seeds 0..N-1.

    python3 perfbench/make_reference.py --seeds 40

Each value comes from one full pipeline call that passed the closed-form
checks. Run it only at a commit whose results are trusted: the benchmark
counts every later call that disagrees with these values as a failure.
"""

import argparse
import json
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import run
import workloads

# Worker processes at a time: one per core of the 2-core baseline machine.
JOBS = 2


def reference(job):
    workload, seed = job
    work = tempfile.mkdtemp(prefix=f"ref-{workload}-", dir=run.OUT)
    try:
        inputs = workloads.write_inputs(workload, seed, run.Path(work) / "inputs.json")
        res = run._child(["--workload", workload, "--inputs", str(inputs),
                          "--mode", "reference", "--work", work])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(workload, seed, res, flush=True)
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, required=True)
    args = parser.parse_args(argv)
    run.OUT.mkdir(exist_ok=True)
    jobs = [(w, s) for w in workloads.WORKLOADS for s in range(args.seeds)]
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(reference, jobs))
    table = {"tolerance": {"rtol": workloads.GATE_RTOL, "atol": workloads.GATE_ATOL},
             "values": {w: {} for w in workloads.WORKLOADS}}
    for (workload, seed), res in zip(jobs, results):
        if res["errors"] or res["values"] is None:
            print(f"{workload} seed {seed}: {res['errors']}", file=sys.stderr)
            return 1
        table["values"][workload][str(seed)] = res["values"]
    workloads.REFERENCE_PATH.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
