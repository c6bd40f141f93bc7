"""Artifacts of the bundled scenarios against golden copies.

``tests/golden/<scenario>/`` holds ``summary.json``, ``trajectory.csv`` and
``adiabatic.csv`` as written by ``ptdyn run`` before the frame checks were
batched over the grid; ``two_level_samples`` was written later, before dC/dt
was evaluated as a stack. It is the ramp scenario with a sampled angle: its
C(t) has no analytic derivative, so it pins the finite-difference path,
one-sided at both grid ends. Every ``adiabatic.csv`` and ``summary.json``,
and the sweep below, were written again when the eigenframe's phases became
the running sum of the raw overlaps' arguments; that moved no value by more
than 2.4e-14 (``constant_metric``'s bound, which is roundoff only).
``constant_metric`` and ``two_level_samples`` were written again when an
RK4 substep's end became the next substep's start, t0 + (j+1)h, and an
interval's last end its grid point: that moved no value by more than
6.7e-16 absolute (``two_level_samples``' ``max_fidelity_loss`` went
4.48803216812621e-11 -> 4.488054372586703e-11). All three were written
again when a 2-vector's RK4 matrix-vector product became p = g00*y0 +
g01*y1, q = g10*y0 + g11*y1 in Python complex arithmetic instead of BLAS
zgemv. The largest move of each column that moved (absolute):
``two_level_ramp`` im0 6.9e-18, im1 1.4e-17, cpt_norm 2.2e-16, drift_rate
3.0e-18, fidelity_loss 1.1e-16 (its summary.json kept its bytes);
``constant_metric`` re0 1.1e-15, im0 4.4e-16, re1 6.7e-16, im1 1.1e-15,
cpt_norm 6.7e-16, fidelity_loss 8.9e-16, max_fidelity_loss
3.885780586188048e-15 -> 3.774758283725532e-15, norm_drift
3.552713678800501e-15 -> 3.219646771412954e-15; ``two_level_samples``
re0 1.1e-16, im0 1.4e-17, im1 1.4e-17, cpt_norm 1.1e-16, drift_rate
3.0e-18, fidelity_loss 2.2e-16, norm_drift 4.4880432703564566e-11 ->
4.488054372586703e-11. Every bound kept its value. Every
number must agree to GOLDEN_RTOL relative.
Values that vanish by construction, so that only roundoff is left (the
compensated or static drift rate, the cross-level coupling residual of
these exactly solvable models, and the frame-axiom residuals), are compared
to ROUNDOFF_ATOL absolute instead: a changed summation order moves them by
a few 1e-18, which no relative tolerance on a roundoff value can absorb.

``tests/golden/sweep_alpha_stop/sweep.csv`` is the ramp scenario swept over
the angle's end point: two rows that run and one that the two-level model
rejects for cos(alpha) < 1/2, so the rejection message is pinned as well.
"""

import csv
import json
from pathlib import Path

import pytest

from ptdyn.cli import run_scenario, sweep
from ptdyn.config import load_config

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
SCENARIOS = ("two_level_ramp", "constant_metric", "two_level_samples")

GOLDEN_RTOL = 1e-12
ROUNDOFF_ATOL = 1e-14
ROUNDOFF_COLUMNS = {"drift_rate", "coupling_residual"}


def _close(new: float, old: float, roundoff: bool) -> bool:
    if roundoff:
        return abs(new - old) <= ROUNDOFF_ATOL
    return abs(new - old) <= GOLDEN_RTOL * abs(old)


def _read_csv(path: Path):
    """(header, numeric rows, trailing '# key=value' fields)."""
    lines = path.read_text().splitlines()
    footer = {}
    if lines[-1].startswith("#"):
        footer = dict(item.split("=", 1) for item in lines.pop()[1:].split())
    rows = list(csv.reader(lines))
    return rows[0], [[float(x) for x in row] for row in rows[1:]], footer


def _compare_summary(new, old, path, errors):
    if isinstance(old, dict):
        assert set(new) == set(old), path
        for key in old:
            _compare_summary(new[key], old[key], f"{path}.{key}", errors)
    elif isinstance(old, float) and not isinstance(new, bool):
        roundoff = path.startswith(".frame_residuals") and "eigenvalue" not in path
        if not _close(float(new), old, roundoff):
            errors.append(f"{path}: {new!r} != golden {old!r}")
    elif new != old:
        errors.append(f"{path}: {new!r} != golden {old!r}")


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_artifacts_match_golden(tmp_path, scenario):
    run_scenario(load_config(ROOT / "scenarios" / f"{scenario}.json"), out_dir=tmp_path)
    golden = GOLDEN / scenario
    errors: list = []
    _compare_summary(json.loads((tmp_path / "summary.json").read_text()),
                     json.loads((golden / "summary.json").read_text()), "", errors)
    for name in ("trajectory.csv", "adiabatic.csv"):
        header, rows, footer = _read_csv(tmp_path / name)
        old_header, old_rows, old_footer = _read_csv(golden / name)
        assert header == old_header and len(rows) == len(old_rows), name
        for row, old_row in zip(rows, old_rows):
            for column, new, old in zip(header, row, old_row):
                if not _close(new, old, column in ROUNDOFF_COLUMNS):
                    errors.append(f"{name} t={row[0]} {column}: {new!r} != golden {old!r}")
        assert footer.keys() == old_footer.keys(), name
        for key, old in old_footer.items():
            if key == "bound_satisfied":
                ok = footer[key] == old
            else:
                ok = _close(float(footer[key]), float(old), roundoff=False)
            if not ok:
                errors.append(f"{name} footer {key}: {footer[key]} != golden {old}")
    assert not errors, "\n".join(errors[:20])


def test_sweep_matches_golden(tmp_path):
    sweep(load_config(ROOT / "scenarios" / "two_level_ramp.json"),
          "model.alpha.stop", [0.18, 0.5, 1.2], out_dir=tmp_path)
    new = list(csv.DictReader((tmp_path / "sweep.csv").read_text().splitlines()))
    old = list(csv.DictReader((GOLDEN / "sweep_alpha_stop" / "sweep.csv").read_text().splitlines()))
    assert [row["status"] for row in old] == ["ok", "ok", "error"]
    assert len(new) == len(old) and new[0].keys() == old[0].keys()
    errors: list = []
    for row, old_row in zip(new, old):
        for column, value in old_row.items():
            exact = column in ("bound_satisfied", "status", "error") or value == ""
            if not (row[column] == value if exact
                    else _close(float(row[column]), float(value), roundoff=False)):
                errors.append(f"value={old_row['value']} {column}: {row[column]!r} != golden {value!r}")
    assert not errors, "\n".join(errors)
