"""One workload child process. Started by run.py; prints one JSON object.

    worker.py --root DIR --workload W --inputs FILE --mode setup
    worker.py --root DIR --workload W --inputs FILE --mode run --seed N --seconds S --trace 0|1 --work DIR
    worker.py --root DIR --workload W --inputs FILE --mode reference --work DIR

``setup`` times a fresh interpreter importing ptdyn and loading the
scenario, then exits. ``run`` also makes one warm-up call on a small grid,
then timed calls of the full pipeline until ``--seconds`` have passed.
With ``--trace 1`` it alternates untraced and traced calls and reports the
per-layer profile of the traced ones. ``reference`` makes one checked call
and prints its gated values, for reference.json.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def _setup(args):
    """Import ptdyn and load the workload's scenario; the result and its wall time."""
    sys.path.insert(0, os.path.join(args.root, "src"))
    from ptdyn import config

    if args.workload == "drift_d8":
        with open(args.inputs) as fh:
            loaded = json.load(fh)
        config.frame_from_dict(loaded["frame"])
    else:
        loaded = config.load_config(args.inputs)
    return loaded, time.perf_counter() - T0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "reference"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", default=None)
    args = parser.parse_args(argv)

    loaded, setup_s = _setup(args)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import resource

    import harness

    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    bench = harness.Bench(args.workload, args.seed, args.inputs, loaded, args.work)
    if args.mode == "reference":
        bench.call()
        print(json.dumps({"values": bench.values, "errors": bench.errors}))
        return 0
    result = bench.measure(args.seconds, trace=bool(args.trace))
    result["setup_s"] = setup_s
    result["setup_rss_mb"] = setup_rss_mb
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
