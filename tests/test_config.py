import json
import math

import numpy as np
import pytest

from helpers import two_level_matrices
from ptdyn.config import (
    ConfigError,
    frame_from_dict,
    frame_to_dict,
    from_dict,
    load_config,
    matrix_to_pairs,
    pairs_to_matrix,
    save_config,
    to_dict,
)
from ptdyn.dynamics import MAX_SUBSTEPS, Equation
from ptdyn.frames import validate_frames
from ptdyn.linalg import AntilinearOperator


def base_config():
    return {
        "model": {
            "kind": "two_level",
            "s": {"kind": "constant", "value": 1.0},
            "alpha": {"kind": "ramp", "start": 0.1, "stop": 0.18},
        },
        "equation": "compensated",
        "grid": {"t_start": 0.0, "t_end": 1.0, "points": 101},
        "epsilon": 0.5,
    }


def test_load_valid_config(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(base_config()))
    cfg = load_config(path)
    assert cfg.model_kind == "two_level"
    assert cfg.equation is Equation.COMPENSATED
    assert cfg.grid.points == 101
    assert cfg.hbar == 1.0  # default
    assert cfg.tolerances["frame"] == 1e-10  # default
    s = cfg.scalar("s")
    assert s(0.5) == 1.0
    alpha = cfg.scalar("alpha")
    assert alpha(0.0) == pytest.approx(0.1)
    assert alpha(1.0) == pytest.approx(0.18)  # ramp spans the grid by default


def test_epsilon_out_of_range():
    raw = base_config()
    raw["epsilon"] = 1.5
    with pytest.raises(ConfigError, match="epsilon out of \\(0,1\\)"):
        from_dict(raw)
    raw["epsilon"] = 0.0
    with pytest.raises(ConfigError, match="epsilon out of"):
        from_dict(raw)


def test_grid_validation():
    raw = base_config()
    raw["grid"]["points"] = 1
    with pytest.raises(ConfigError, match="grid.points"):
        from_dict(raw)
    raw = base_config()
    raw["grid"]["t_end"] = -1.0
    with pytest.raises(ConfigError, match="t_start"):
        from_dict(raw)


def test_unknown_model_and_missing_fields():
    raw = base_config()
    raw["model"]["kind"] = "mystery"
    with pytest.raises(ConfigError, match="unknown model preset"):
        from_dict(raw)
    raw = base_config()
    del raw["model"]["alpha"]
    with pytest.raises(ConfigError, match="model.alpha"):
        from_dict(raw)
    raw = base_config()
    del raw["model"]
    with pytest.raises(ConfigError, match="model"):
        from_dict(raw)


def test_unknown_equation_and_tolerance():
    raw = base_config()
    raw["equation"] = "magic"
    with pytest.raises(ConfigError, match="unknown equation"):
        from_dict(raw)
    raw = base_config()
    raw["tolerances"] = {"wibble": 1e-3}
    with pytest.raises(ConfigError, match="unknown tolerance"):
        from_dict(raw)
    raw = base_config()
    raw["tolerances"] = {"frame": -1.0}
    with pytest.raises(ConfigError, match="positive"):
        from_dict(raw)


def test_hbar_substeps_level_validation():
    raw = base_config()
    raw["hbar"] = 0.0
    with pytest.raises(ConfigError, match="hbar"):
        from_dict(raw)
    raw = base_config()
    raw["substeps"] = 0
    with pytest.raises(ConfigError, match="substeps"):
        from_dict(raw)
    raw["substeps"] = MAX_SUBSTEPS
    assert from_dict(raw).substeps == MAX_SUBSTEPS
    # a fixed count above the cap is refused, up to counts past int64 and the float range's end
    for substeps, shown in ((MAX_SUBSTEPS + 1, "10000001"), (20000000000000000000, "2e+19"),
                            (1e300, "1e+300")):
        raw["substeps"] = substeps
        with pytest.raises(ConfigError) as err:
            from_dict(raw)
        assert str(err.value) == f"substeps: must be in [1, 1e+07], got {shown}"
    raw = base_config()
    raw["level"] = -1
    with pytest.raises(ConfigError, match="level"):
        from_dict(raw)


def test_integral_fields_take_integral_floats():
    raw = base_config()
    raw["grid"]["points"], raw["level"], raw["substeps"] = 101.0, 0.0, 3.0
    cfg = from_dict(raw)
    assert [type(v) for v in (cfg.grid.points, cfg.level, cfg.substeps)] == [int] * 3
    ints = base_config()
    ints["grid"]["points"], ints["level"], ints["substeps"] = 101, 0, 3
    assert json.dumps(to_dict(cfg)) == json.dumps(to_dict(from_dict(ints)))


def test_matrix_codec_round_trip(rng):
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    pairs = matrix_to_pairs(M)
    back = pairs_to_matrix(pairs, "model.C")
    assert np.array_equal(back, M)
    # encoded form is plain JSON
    assert json.loads(json.dumps(pairs)) == pairs


def test_matrix_codec_rejects_bad_shapes():
    with pytest.raises(ConfigError, match="pairs"):
        pairs_to_matrix([[1.0, 2.0], [3.0, 4.0]], "model.C")
    with pytest.raises(ConfigError, match="pairs"):
        pairs_to_matrix([[[1.0, 0.0], [0.0, 0.0]]], "model.C")  # 1x2, not square
    with pytest.raises(ConfigError, match="matrix"):
        pairs_to_matrix("nope", "model.C")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["C", "P", "K", "H", "G"])
def test_non_finite_matrix_entry_is_a_config_error_naming_its_field(name, bad):
    H, C, P = two_level_matrices(1.0, math.pi / 3)
    matrices = {"H": H, "C": C, "P": P, "K": np.eye(2), "G": np.zeros((2, 2))}
    raw = {"model": {"kind": "inline", **{k: matrix_to_pairs(M) for k, M in matrices.items()}},
           "equation": "augmented", "grid": {"t_start": 0.0, "t_end": 1.0, "points": 11}}
    from_dict(raw)
    raw["model"][name][1][0][1] = bad
    raw = json.loads(json.dumps(raw))  # json writes NaN and Infinity and reads them back
    real = raw["model"][name][1][0][0]
    with pytest.raises(ConfigError) as err:
        from_dict(raw)
    assert err.value.field == f"model.{name}"
    assert str(err.value) == f"model.{name}: entry [1][0] must be finite, got [{real}, {bad}]"
    if name in "CPK":
        with pytest.raises(ConfigError, match=f"^{name}: entry \\[1\\]\\[0\\] must be finite"):
            frame_from_dict(raw["model"])


def test_scalar_spec_validation():
    raw = base_config()
    raw["model"]["s"] = {"kind": "warp"}
    with pytest.raises(ConfigError, match="unknown scalar function kind"):
        from_dict(raw)
    raw = base_config()
    raw["model"]["s"] = {"kind": "sinusoid", "amplitude": 1.0}
    with pytest.raises(ConfigError, match="missing field"):
        from_dict(raw)
    raw = base_config()
    raw["model"]["s"] = 2.5  # bare number means a constant
    cfg = from_dict(raw)
    assert cfg.scalar("s")(0.3) == 2.5


def test_constant_metric_config():
    _, C, P = two_level_matrices(1.0, math.pi / 3)
    raw = {
        "model": {
            "kind": "constant_metric",
            "a": {"kind": "sinusoid", "amplitude": 1.0, "frequency": 1.0},
            "b": 1.0,
            "C": matrix_to_pairs(C),
            "P": matrix_to_pairs(P),
            "K": matrix_to_pairs(np.eye(2)),
        },
        "equation": "schrodinger",
        "grid": {"t_start": 0.0, "t_end": 2.0, "points": 41},
    }
    cfg = from_dict(raw)
    assert np.allclose(cfg.matrix("C"), C)


def test_augmented_requires_g():
    raw = base_config()
    raw["equation"] = "augmented"
    with pytest.raises(ConfigError, match="model.G"):
        from_dict(raw)


def test_round_trip_save_load(tmp_path):
    cfg = from_dict(base_config())
    path = tmp_path / "saved.json"
    save_config(cfg, path)
    again = load_config(path)
    assert to_dict(again) == to_dict(cfg)


def test_load_errors(tmp_path):
    with pytest.raises(ConfigError, match="no such file"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="line"):
        load_config(bad)


def test_frame_round_trip_through_config_encoding():
    _, C, P = two_level_matrices(1.0, 0.8)
    frame = validate_frames(C, P, AntilinearOperator.conjugation(2))
    encoded = frame_to_dict(frame)
    assert json.loads(json.dumps(encoded)) == encoded  # plain JSON
    again = frame_from_dict(encoded)
    assert np.array_equal(again.c, frame.c)
    assert np.array_equal(again.p, frame.p)
    assert np.array_equal(again.metric, frame.metric)
    with pytest.raises(ConfigError, match="missing frame matrix"):
        frame_from_dict({"C": encoded["C"]})
