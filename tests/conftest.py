import os
import sys

if "numpy" not in sys.modules:
    # OpenBLAS reads its thread count once, when numpy loads. Its default (one
    # thread per core) makes the small-matrix kernels crawl next to other CPU
    # load; an explicit setting in the environment wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    results = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            if status != "error" and getattr(rep, "when", "call") != "call":
                if not (status == "failed" and rep.when in ("setup",)):
                    continue
            name = nodeid.split("::")[-1]
            verdict = "PASS" if status == "passed" else "FAIL"
            # a later failure report for the same test wins over a pass
            if results.get(name) != "FAIL":
                results[name] = verdict
    if results:
        terminalreporter.section("acceptance criteria")
        for name in sorted(results):
            terminalreporter.write_line(f"{results[name]}  {name}")
