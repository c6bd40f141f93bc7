"""The CLI's exit contract, drawn over mutated bundled scenarios.

Each example takes a bundled scenario (its grid at 201 points or fewer) with one
mutation from a fixed list and calls ``main`` in-process with ``run`` and with
``validate``. Every call exits 0, 1, 2 or 3; an exit 2 or 3 prints its prefix on
stderr's first line, and no call prints a traceback, leaves a ``*.tmp`` file or,
on exit 2, makes a directory. ``validate`` exits 2 exactly where ``run`` does,
the artifact directory aside.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptdyn.cli import main
from ptdyn.config import matrix_to_pairs, pairs_to_matrix

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = {path.stem: json.loads(path.read_text())
             for path in sorted((ROOT / "scenarios").glob("*.json"))}
PREFIXES = {2: "config error: ", 3: "numerical abort: "}
MATRICES = ("H", "C", "P", "K", "G")

# Mutations whose config is an error of the scenario: both commands exit 2.
CONFIG_ERRORS = ("non-increasing grid", "level out of range", "G of the wrong dimension",
                 "C breaking an axiom", "metric losing definiteness")
# Mutations of the artifact directory: run exits 2, validate writes nothing.
OUT_DIR_ERRORS = ("out-dir a file", "artifact a directory")
# constant_metric with C = C(alpha) at alpha = pi/2 - delta: lambda_min(PC)/||PC|| is
# (1 - cos delta)/(1 + cos delta) ~ delta^2/4, which crosses the frame tolerance 1e-10 at
# delta = 2e-5. Below it both commands exit 2; above it validate exits 0.
DEFINITENESS = {"metric losing definiteness": (1e-5, 1.9e-5),
                "metric near losing definiteness": (2.1e-5, 4e-5)}
MUTATIONS = ("missing key", "wrong type", "extreme number", "extreme matrix entry",
             *CONFIG_ERRORS, *OUT_DIR_ERRORS, *DEFINITENESS)


def _keys(node, prefix=()):
    """The path of every key of the config's JSON objects."""
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _keys(value, prefix + (key,))


def _numbers(node, prefix=()):
    """The path of every number of the config, through objects and lists."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(value, (dict, list)):
            yield from _numbers(value, prefix + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield prefix + (key,)


DELETE = object()


def _set(raw, path, value):
    """Set the entry at ``path`` to ``value``, or delete it for ``DELETE``."""
    node = raw
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value


@st.composite
def mutated_scenarios(draw):
    """(mutation, raw config) of a bundled scenario with one mutation."""
    raw = json.loads(json.dumps(SCENARIOS[draw(st.sampled_from(sorted(SCENARIOS)))]))
    raw["grid"]["points"] = min(raw["grid"]["points"], 201)
    mutation = draw(st.sampled_from(MUTATIONS))
    numbers = list(_numbers(raw))
    entries = [path for path in numbers if path[0] == "model" and path[1] in MATRICES]
    model = raw["model"]
    if mutation == "missing key":
        _set(raw, draw(st.sampled_from(list(_keys(raw)))), DELETE)
    elif mutation == "wrong type":
        _set(raw, draw(st.sampled_from(list(_keys(raw)))),
             draw(st.sampled_from(["x", True, None, [], {}])))
    elif mutation in ("extreme number", "extreme matrix entry"):
        paths = ([path for path in numbers if path not in entries]
                 if mutation == "extreme number" else entries)
        if paths:  # the two-level scenarios have no matrix
            _set(raw, draw(st.sampled_from(paths)),
                 draw(st.sampled_from([np.nan, np.inf, -np.inf, 1e308, 1e-300])))
    elif mutation == "non-increasing grid":
        raw["grid"]["t_end"] = raw["grid"]["t_start"] - draw(st.sampled_from([0.0, 1.0]))
    elif mutation == "level out of range":
        raw["level"] = draw(st.sampled_from([2, 3, 10**6]))
    elif mutation == "G of the wrong dimension":
        raw["equation"] = "augmented"
        model["G"] = matrix_to_pairs(np.eye(draw(st.sampled_from([1, 3]))))
    elif mutation == "C breaking an axiom":
        if "C" in model:  # 2C breaks C^2 = I; -C the metric's definiteness
            scale = draw(st.sampled_from([2.0, -1.0]))
            model["C"] = matrix_to_pairs(scale * pairs_to_matrix(model["C"], "C"))
        else:  # the two-level C of an angle with cos(alpha) < 1/2
            model["alpha"] = {"kind": "ramp", "start": 0.1, "stop": 1.2}
    elif mutation in DEFINITENESS:
        raw = _near_indefinite(draw(st.sampled_from(DEFINITENESS[mutation])))
    return mutation, raw


def _near_indefinite(delta: float) -> dict:
    """constant_metric with C = C(alpha), the two-level C, at alpha = pi/2 - delta."""
    raw = json.loads(json.dumps(SCENARIOS["constant_metric"]))
    a = np.pi / 2 - delta
    C = np.array([[1j * np.sin(a), 1.0], [1.0, -1j * np.sin(a)]]) / np.cos(a)
    raw["model"]["C"] = matrix_to_pairs(C)
    return raw


def _call(command, config, out_dir):
    """(exit code, stderr) of ``main`` on ``command``: a warning comes first in stderr, as a
    fresh interpreter prints it while the call runs."""
    stderr = io.StringIO()
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr)):
        warnings.simplefilter("always")
        code = main([command, str(config), "--out-dir", str(out_dir)])
    return code, "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                         for w in caught) + stderr.getvalue()


def _mutated(name, path, value):
    raw = json.loads(json.dumps(SCENARIOS[name]))
    _set(raw, path, value)
    return raw


@settings(max_examples=150, deadline=None)
@given(mutated_scenarios())
# an overflow in the frame check, then a division by zero in the symmetry scan: numpy warns
@example(("extreme matrix entry", _mutated("constant_metric", ("model", "C", 1, 0, 1), 1e308)))
@example(("extreme number", _mutated("constant_metric", ("model", "b", "value"), 1e-300)))
@example(("metric losing definiteness", _near_indefinite(1.9e-5)))
@example(("metric near losing definiteness", _near_indefinite(2.1e-5)))
def test_cli_exit_contract_over_mutated_scenarios(case):
    mutation, raw = case
    codes = {}
    for command in ("run", "validate"):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            config, out_dir = root / "scenario.json", root / "out"
            config.write_text(json.dumps(raw))
            if mutation == "out-dir a file":
                out_dir.write_text("not a directory\n")
            elif mutation == "artifact a directory":
                (out_dir / "summary.json").mkdir(parents=True)
            before = {path for path in root.rglob("*") if path.is_dir()}
            code, err = _call(command, config, out_dir)
            assert code in (0, 1, 2, 3), (command, code, err)
            first = err.partition("\n")[0]
            prefix = next((p for p in PREFIXES.values() if first.startswith(p)), None)
            assert prefix == PREFIXES.get(code), (command, code, err)
            assert "Traceback" not in err
            assert not list(root.rglob("*.tmp"))
            if code == 2:
                assert {path for path in root.rglob("*") if path.is_dir()} <= before
        codes[command] = code
    if mutation in CONFIG_ERRORS:
        assert codes == {"run": 2, "validate": 2}, codes
    elif mutation in OUT_DIR_ERRORS:
        assert codes["run"] == 2, codes
    elif mutation in DEFINITENESS:
        assert codes["validate"] == 0 and codes["run"] != 2, codes
    else:
        assert (codes["run"] == 2) == (codes["validate"] == 2), codes
