import math

import numpy as np
import pytest

from helpers import same_bits, two_level_eigenvector, two_level_energies, two_level_matrices
from ptdyn.dynamics import Equation, EvolutionProblem, evolve_state
from ptdyn.frames import FrameAxiomError, validate_frames
from ptdyn.linalg import (AntilinearOperator, OperatorFamily, eigenpairs_stack,
                          family_derivatives, operator_norm)
from ptdyn.models import (
    ScalarFunction,
    build_constant_metric,
    build_two_level,
    two_level,
)


def frozen_frame(alpha=math.pi / 3):
    _, C, P = two_level_matrices(1.0, alpha)
    return validate_frames(C, P, AntilinearOperator.conjugation(2))


# -------------------------------------------------------------- ScalarFunction

def test_scalar_presets_and_derivatives():
    const = ScalarFunction.constant(2.5)
    assert const(3.0) == 2.5 and const.dfn(3.0) == 0.0

    ramp = ScalarFunction.ramp(1.0, 3.0, 0.0, 2.0)
    assert ramp(0.0) == 1.0 and ramp(2.0) == 3.0 and ramp(1.0) == 2.0
    assert ramp(-5.0) == 1.0 and ramp(10.0) == 3.0  # clamped outside
    assert ramp.dfn(1.0) == 1.0 and ramp.dfn(-5.0) == 0.0

    sin = ScalarFunction.sinusoid(amplitude=0.5, frequency=2.0, phase=0.3, offset=1.0)
    for t in (0.0, 0.7, 2.1):
        assert sin(t) == pytest.approx(1.0 + 0.5 * math.sin(2.0 * t + 0.3))
        h = 1e-6
        fd = (sin(t + h) - sin(t - h)) / (2 * h)
        assert sin.dfn(t) == pytest.approx(fd, abs=1e-8)


def test_scalar_samples_interpolation():
    fn = ScalarFunction.from_samples([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
    assert fn(0.5) == pytest.approx(1.0)
    assert fn(1.5) == pytest.approx(1.0)
    assert fn.dfn is None


def test_scalar_samples_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        ScalarFunction.from_samples([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="same length"):
        ScalarFunction.from_samples([0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="real"):
        ScalarFunction.from_samples([0.0, 1.0], [1.0, 2.0 + 1j])


def test_scalar_rejects_complex_callable():
    fn = ScalarFunction(lambda t: 1.0 + 1j * t)
    with pytest.raises(ValueError, match="non-real"):
        fn(2.0)


def test_ramp_requires_ordered_span():
    with pytest.raises(ValueError, match="t_start < t_end"):
        ScalarFunction.ramp(0.0, 1.0, 2.0, 2.0)


# ------------------------------------------------------------------- two_level

def test_two_level_angle_zero_collapses_to_hermitian():
    model = build_two_level(
        ScalarFunction.constant(1.0), ScalarFunction.constant(0.0),
        np.linspace(0.0, 1.0, 5),
    )
    H = model.hamiltonian(0.3)
    assert np.allclose(H, H.conj().T)
    frame = model.frame_family.frame_at(0.3)
    assert np.allclose(frame.metric, np.eye(2), atol=1e-14)
    lams = eigenpairs_stack(H[None])[0][0]
    assert lams[0] == pytest.approx(0.0, abs=1e-12)
    assert lams[1] == pytest.approx(2.0, abs=1e-12)


def test_two_level_spectrum_at_pi_third():
    model = build_two_level(
        ScalarFunction.constant(1.0), ScalarFunction.constant(math.pi / 3),
        np.linspace(0.0, 1.0, 3),
    )
    lams = eigenpairs_stack(model.hamiltonian(0.0)[None])[0][0]
    assert abs(lams[0]) <= 1e-12
    assert lams[1] == pytest.approx(1.0, abs=1e-12)  # 2 s cos(pi/3)


def test_two_level_frame_axioms_at_pi_quarter():
    model = build_two_level(
        ScalarFunction.constant(1.0), ScalarFunction.constant(math.pi / 4),
        np.linspace(0.0, 1.0, 3),
    )
    frame = model.frame_family.frame_at(0.5)
    for axiom in ("C^2 = I", "CPT = TPC", "P^2 = I", "T^2 = I", "PT = TP"):
        assert frame.residuals[axiom] <= 1e-12


def test_two_level_rejects_wide_angle():
    with pytest.raises(ValueError, match="cos\\(alpha\\)"):
        build_two_level(
            ScalarFunction.constant(1.0), ScalarFunction.constant(1.2),
            np.linspace(0.0, 1.0, 5),
        )
    # the error names the first offending grid time
    alpha = ScalarFunction.ramp(0.0, 1.2, 0.0, 1.0)
    with pytest.raises(ValueError, match="t="):
        build_two_level(ScalarFunction.constant(1.0), alpha, np.linspace(0.0, 1.0, 11))


def test_two_level_analytic_vs_numeric_eigendata():
    s = ScalarFunction(lambda t: 1.0 + 0.5 * t, lambda t: 0.5)
    alpha = ScalarFunction.sinusoid(amplitude=math.pi / 6, frequency=1.0)
    model = build_two_level(s, alpha, np.linspace(0.0, 1.0, 100))
    for t in np.linspace(0.0, 1.0, 100):
        H = model.hamiltonian(t)
        lams, vecs = eigenpairs_stack(H[None])
        expected = two_level_energies(s(t), alpha(t))
        for lam, vec, e_ana, level in zip(lams[0], vecs[0], expected, (0, 1)):
            assert abs(lam - e_ana) <= 1e-10
            ana = two_level_eigenvector(level, alpha(t), metric=False)
            # same ray: unit-modulus overlap of unit vectors
            assert 1.0 - abs(np.vdot(vec, ana)) <= 1e-8


def test_two_level_metric_normalization():
    model = build_two_level(
        ScalarFunction.constant(1.0), ScalarFunction.constant(0.7),
        np.linspace(0.0, 1.0, 3),
    )
    frame = model.frame_family.frame_at(0.0)
    for level in (0, 1):
        ve = two_level_eigenvector(level, 0.7, metric=False)
        vm = two_level_eigenvector(level, 0.7)
        ne = np.vdot(ve, frame.metric @ ve).real
        nm = np.vdot(vm, frame.metric @ vm).real
        assert ne == pytest.approx(math.cos(0.7), abs=1e-12)
        assert nm == pytest.approx(1.0, abs=1e-12)


def test_two_level_hamiltonian_is_metric_hermitian_pointwise():
    model = build_two_level(
        ScalarFunction.constant(1.3),
        ScalarFunction.sinusoid(amplitude=0.8, frequency=2.0),
        np.linspace(0.0, 2.0, 40),
    )
    family = model.frame_family
    ham = model.hamiltonian
    for t in np.linspace(0.0, 2.0, 40):
        H = ham(t)
        metric = family.p @ family.c_family(t)
        assert operator_norm(H.conj().T @ metric - metric @ H) <= 1e-12


def test_two_level_analytic_family_derivatives():
    model = build_two_level(
        ScalarFunction.sinusoid(amplitude=0.3, frequency=1.5, offset=1.0),
        ScalarFunction.sinusoid(amplitude=0.5, frequency=2.0),
        np.linspace(0.0, 1.0, 5),
    )
    cfam = model.frame_family.c_family
    h = 1e-6
    for t in (0.2, 0.8):
        fd_c = (cfam(t + h) - cfam(t - h)) / (2 * h)
        assert operator_norm(cfam.derivative(t) - fd_c) <= 1e-8


def test_two_level_sampled_angle_uses_finite_differences():
    times = np.linspace(0.0, 1.0, 50)
    alpha = ScalarFunction.from_samples(times, 0.3 * np.sin(times))
    model = build_two_level(ScalarFunction.constant(1.0), alpha, times)
    cfam = model.frame_family.c_family
    assert cfam.derivative is None
    d = family_derivatives(cfam, [0.5])[0][0]
    assert np.all(np.isfinite(d))


# ------------------------------------------------------------- constant_metric

def test_constant_metric_zero_hamiltonian():
    frame = frozen_frame()
    model = build_constant_metric(
        ScalarFunction.constant(0.0), ScalarFunction.constant(0.0),
        frame, np.linspace(0.0, 1.0, 5),
    )
    assert np.allclose(model.hamiltonian(0.5), 0.0)
    x0 = np.array([1.0, 1j]) / math.sqrt(2)
    traj = evolve_state(EvolutionProblem(model.hamiltonian, model.frame_family,
                                         np.linspace(0.0, 1.0, 5),
                                         Equation.SCHRODINGER, x0))
    assert np.max(np.abs(traj.states - x0)) <= 1e-12


def test_constant_metric_spectral_mapping():
    frame = frozen_frame()
    a = ScalarFunction.sinusoid(amplitude=0.4, frequency=1.0, offset=1.0)
    b = ScalarFunction.constant(0.9)
    model = build_constant_metric(a, b, frame, np.linspace(0.0, 2.0, 9))
    for t in (0.0, 0.7, 1.9):
        lams = eigenpairs_stack(model.hamiltonian(t)[None])[0][0]
        expected = a(t) + b(t) * np.array([-1.0, 1.0])  # C^2 = I and tr C = 0: C has -1 and +1
        assert lams[0].real == pytest.approx(expected[0], abs=1e-10)
        assert lams[1].real == pytest.approx(expected[1], abs=1e-10)
        assert abs(lams[0].imag) <= 1e-12 and abs(lams[1].imag) <= 1e-12


def test_constant_metric_norm_conserving_run():
    frame = frozen_frame()
    model = build_constant_metric(
        ScalarFunction.sinusoid(amplitude=1.0, frequency=1.0),
        ScalarFunction.constant(1.0),
        frame, np.linspace(0.0, 2.0, 21),
    )
    x0 = np.array([1.0, 0.3 - 0.4j])
    traj = evolve_state(EvolutionProblem(model.hamiltonian, model.frame_family,
                                         np.linspace(0.0, 2.0, 21),
                                         Equation.SCHRODINGER, x0, substeps=50))
    assert traj.max_norm_drift <= 1e-8


def test_constant_metric_rejects_complex_coefficients():
    frame = frozen_frame()
    bad = ScalarFunction(lambda t: 1.0 + 1j)
    with pytest.raises(ValueError, match="non-real"):
        build_constant_metric(bad, ScalarFunction.constant(1.0),
                              frame, np.linspace(0.0, 1.0, 5))
    # complex at one grid time only, between the times a sparser check would read
    grid = np.linspace(0.0, 1.0, 17)
    one_bad = ScalarFunction(lambda t: np.where(t == grid[1], 1j, 1.0) if np.any(t == grid[1])
                             else np.ones(np.shape(t)))
    with pytest.raises(ValueError, match="non-real"):
        build_constant_metric(ScalarFunction.constant(1.0), one_bad, frame, grid)


def test_two_level_rejects_a_complex_energy_scale_at_build_time():
    # alpha alone is evaluated for the cos(alpha) check; s must be checked on the grid too
    shifted = ScalarFunction(lambda t: np.asarray(t) + 1j)
    with pytest.raises(ValueError, match=r"^scalar function returned non-real value "
                                         r"np.complex128\(1j\) at t=0.0$"):
        build_two_level(shifted, ScalarFunction.constant(0.1), np.linspace(0.0, 1.0, 11))


def test_constant_metric_requires_validated_frame():
    with pytest.raises(TypeError, match="CPTFrame"):
        build_constant_metric(
            ScalarFunction.constant(0.0), ScalarFunction.constant(0.0),
            np.eye(2), np.linspace(0.0, 1.0, 5),
        )


def test_builders_reject_bad_grids():
    frame = frozen_frame()
    s, a = ScalarFunction.constant(1.0), ScalarFunction.constant(0.1)
    with pytest.raises(ValueError, match="strictly increasing"):
        build_two_level(s, a, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="strictly increasing"):
        build_constant_metric(s, a, frame, np.array([1.0, 0.0]))


@pytest.mark.parametrize("t", [0.5, np.float64(0.5), np.float64(-1.0), np.float64(2.0)])
def test_ramp_returns_a_python_float(t):
    ramp = ScalarFunction.ramp(0.1, 0.3, 0.0, 1.0)
    value = ramp.fn(t)
    assert type(value) is float
    assert value == ramp.fn(float(t))


@pytest.mark.parametrize("value", [2.5, np.float64(2.5), 2, np.array(2.5)])
def test_scalar_real_values_pass_as_float(value):
    out = ScalarFunction(lambda t: value)(0.0)
    assert type(out) is float and out == float(value)


@pytest.mark.parametrize("value", [2.5 + 0j, np.complex128(2.5), np.array(2.5 + 0j), np.array([1j])])
def test_scalar_non_float_values_keep_the_non_real_check(value):
    with pytest.raises(ValueError, match="non-real"):
        ScalarFunction(lambda t: value)(0.0)


def test_vectorized_scalar_values_keep_the_non_real_check():
    # an array call names its first time: every time breaks the type rule
    shifted = ScalarFunction(lambda t: np.asarray(t) + (1.0 + 0.5j))
    with pytest.raises(ValueError, match=r"^scalar function returned non-real value "
                                         r"np.complex128\(1.25\+0.5j\) at t=0.25$"):
        shifted(np.array([0.25, 0.5]))
    with pytest.raises(ValueError, match=r"non-real value .* at t=0.5$"):
        shifted(0.5)
    value = ScalarFunction(lambda t: np.asarray(t) + 1.0)(0.5)
    assert type(value) is float and value == 1.5
    with pytest.raises(ValueError, match="non-real"):
        build_constant_metric(ScalarFunction(lambda t: np.full(np.shape(t), 1.0 + 0.5j)),
                              ScalarFunction.constant(1.0), frozen_frame(), np.linspace(0, 1, 5))


# ------------------------------------------- array-valued presets and model families
#
# Each preset and each model family evaluates a whole time array with one
# broadcasting expression. The scalar expressions below are the one-point
# forms they replaced; the array forms must give the same bits, for one time
# and for many.

def _scalar_ramp(start, stop, t_start, t_end):
    slope = (stop - start) / (t_end - t_start)

    def fn(t):
        if t <= t_start:
            return start
        if t >= t_end:
            return stop
        return start + slope * (float(t) - t_start)

    return fn, lambda t: slope if t_start < t < t_end else 0.0


def _scalar_sinusoid(amplitude, frequency, phase, offset):
    return (lambda t: offset + amplitude * math.sin(frequency * t + phase),
            lambda t: amplitude * frequency * math.cos(frequency * t + phase))


SAMPLE_TIMES, SAMPLE_VALUES = [0.0, 0.4, 1.1, 2.0], [0.3, -0.2, 0.9, 0.1]

# name -> (preset, scalar fn, scalar dfn or None)
PRESETS = {
    "constant": (ScalarFunction.constant(-1.75), lambda t: -1.75, lambda t: 0.0),
    "ramp": (ScalarFunction.ramp(0.1, 0.45, 0.25, 1.5), *_scalar_ramp(0.1, 0.45, 0.25, 1.5)),
    "sinusoid": (ScalarFunction.sinusoid(0.8, 2.3, phase=0.4, offset=-0.1),
                 *_scalar_sinusoid(0.8, 2.3, 0.4, -0.1)),
    "samples": (ScalarFunction.from_samples(SAMPLE_TIMES, SAMPLE_VALUES),
                lambda t: float(np.interp(t, SAMPLE_TIMES, SAMPLE_VALUES)), None),
}


def _times(n, seed=5):
    """n times in [-1, 3]: beyond both ramp ends, the ramp's and the samples' nodes included."""
    special = [0.25, 1.5, 0.0, 0.4, 1.1, 2.0, -1.0, 3.0]
    t = np.random.default_rng(seed).uniform(-1.0, 3.0, n)
    t[:min(n, len(special))] = special[:n]
    return t


def _scalar_stack(fn, times):
    return np.array([fn(float(t)) for t in times])


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("n", [1, 2, 5000])
def test_presets_evaluate_an_array_as_the_scalar_expression(name, n):
    preset, fn, dfn = PRESETS[name]
    times = _times(n)
    assert same_bits(preset(times), _scalar_stack(fn, times))
    if dfn is not None:
        assert same_bits(preset.dfn(times), _scalar_stack(dfn, times))
    for t in times[:8]:
        value = preset(t)
        assert type(value) is float and same_bits(np.float64(value), np.float64(fn(float(t))))


def test_per_point_model_families_evaluate_one_time_per_call():
    alpha = ScalarFunction.ramp(0.1, 0.3, 0.0, 1.0)
    model = build_two_level(ScalarFunction.sinusoid(0.1, 1.0, offset=1.0), alpha,
                            np.linspace(0.0, 1.0, 3))
    calls = []

    def evaluate(t):
        calls.append(t)
        return model.hamiltonian.evaluate(t)

    times = np.linspace(0.0, 1.0, 7)
    per_point = OperatorFamily(0.0, 1.0, evaluate)
    assert same_bits(per_point.stack(times), model.hamiltonian.stack(times))
    assert calls == times.tolist() and all(type(t) is np.float64 for t in calls)
    # a per-point callable serves a family that is evaluated one time per call
    bad = two_level(ScalarFunction(lambda t: 1j if t >= 0.5 else 1.0), alpha, 0.0, 1.0)
    with pytest.raises(ValueError, match="non-real value .* at t=0.5"):
        OperatorFamily(0.0, 1.0, bad.hamiltonian.evaluate).stack(times[::3])


def _scalar_two_level(s, a, da):
    """H, C and dC/dt of the two-level model at one time, as the per-point closures
    built them (s, a and a's rate as floats)."""
    H = np.array([[s * np.exp(1j * a), s], [s, s * np.exp(-1j * a)]], dtype=complex)
    C = (1.0 / math.cos(a)) * np.array(
        [[1j * math.sin(a), 1.0], [1.0, -1j * math.sin(a)]], dtype=complex)
    Cdot = da * (math.tan(a) * C + 1j * np.diag([1.0, -1.0]))
    return H, C, Cdot


def _family_stacks(ham, cfam, times):
    return ham.stack(times), cfam.stack(times), family_derivatives(cfam, times)[0]


@pytest.mark.parametrize("alpha", ["ramp", "sinusoid"])
@pytest.mark.parametrize("n", [1, 3, 5000])
def test_two_level_stacks_are_the_scalar_expressions(alpha, n):
    s = ScalarFunction.sinusoid(0.3, 1.7, phase=0.2, offset=1.1)
    a = (ScalarFunction.ramp(-0.3, 0.7, 0.25, 1.5) if alpha == "ramp"
         else ScalarFunction.sinusoid(0.6, 2.9, phase=-0.5))
    model = build_two_level(s, a, np.linspace(-1.0, 3.0, 9))
    times = np.sort(_times(n))
    ref = [np.array(m) for m in zip(*(
        _scalar_two_level(s(t), a(t), a.dfn(t)) for t in times))]
    ham, cfam = model.hamiltonian, model.frame_family.c_family
    for got, want in zip(_family_stacks(ham, cfam, times), ref):
        assert same_bits(got, want)
    # the same families, called once per time, give the same bits
    per_point = (OperatorFamily(-1.0, 3.0, ham.evaluate),
                 OperatorFamily(-1.0, 3.0, cfam.evaluate, cfam.derivative))
    for got, want in zip(_family_stacks(*per_point, times), ref):
        assert same_bits(got, want)


@pytest.mark.parametrize("n", [1, 3, 5000])
def test_constant_metric_stacks_are_the_scalar_expressions(n):
    frame = frozen_frame(0.4)
    a = ScalarFunction.sinusoid(1.3, 0.9, phase=2.0)
    b = ScalarFunction.ramp(0.5, 1.5, 0.25, 1.5)
    model = build_constant_metric(a, b, frame, np.linspace(-1.0, 3.0, 9))
    times = np.sort(_times(n))
    eye = np.eye(2, dtype=complex)
    H = np.array([a(t) * eye + b(t) * frame.c for t in times])
    assert same_bits(model.hamiltonian.stack(times), H)


def test_families_keep_the_one_time_form():
    two = build_two_level(ScalarFunction.constant(1.0), ScalarFunction.ramp(0.1, 0.3, 0.0, 1.0),
                          np.linspace(0.0, 1.0, 5))
    constant = build_constant_metric(ScalarFunction.sinusoid(1.0, 1.0),
                                     ScalarFunction.constant(0.5), frozen_frame(),
                                     np.linspace(0.0, 1.0, 5))
    families = (two.hamiltonian, two.frame_family.c_family, constant.hamiltonian,
                constant.frame_family.c_family, OperatorFamily.constant(np.eye(3)))
    for family in families:
        assert family.vectorized
        for t in (0.0, 0.3, np.float64(0.7)):
            value = family.evaluate(t)
            assert value.shape == (family.stack([t]).shape[1],) * 2
            assert same_bits(np.asarray(value, dtype=complex), family.stack([t, 1.0])[0])
            if family.derivative is not None:  # C's analytic dC/dt; H has no derivative
                rate = family.derivative(t)
                assert rate.shape == value.shape
                assert same_bits(np.asarray(rate, dtype=complex),
                                 family_derivatives(family, [t, 1.0])[0][0])


def test_vectorized_family_names_the_earliest_non_finite_time():
    M = np.eye(2, dtype=complex)
    calls = []

    def evaluate(t):
        calls.append(np.shape(t))
        return np.where((np.asarray(t) > 0.4)[..., None, None], math.nan, 1.0) * M

    family = OperatorFamily(0.0, 1.0, evaluate, vectorized=True)
    with pytest.raises(ValueError, match=r"family value at t=0\.5 contains non-finite"):
        family.stack(np.linspace(0.0, 1.0, 5))
    assert calls == [(5,)]
    with pytest.raises(ValueError, match=r"t=1\.5 outside family domain"):
        family.stack([0.1, 0.2, 1.5, 0.3])
    assert calls[-1] == (2,)
