import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import (pair_product, random_frame_matrices, reference_rk4_run, rotating_frame_model,
                     same_bits, two_level_matrices)
from ptdyn import dynamics
from ptdyn.adiabatic import build_eigenframe, build_report, operator_phase
from ptdyn.dynamics import (
    MAX_SUBSTEPS,
    Equation,
    EvolutionProblem,
    IntegrationAbort,
    effective_generator,
    evolve_propagator,
    evolve_state,
)
from ptdyn.frames import FrameAxiomError, FrameFamily, cpt_norm, validate_frames
from ptdyn.linalg import (STACK_ENTRIES, AntilinearOperator, NonFiniteError, OperatorFamily,
                          family_derivatives, operator_norm, operator_norms)
from ptdyn.models import ScalarFunction, build_constant_metric, build_two_level, two_level

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def identity_metric_family():
    frame = validate_frames(SWAP, SWAP, AntilinearOperator.conjugation(2))
    return FrameFamily.constant(frame)


def two_level_model(s_val=1.0, amp=0.5, freq=2.0):
    s = ScalarFunction.constant(s_val)
    alpha = ScalarFunction.sinusoid(amplitude=amp, frequency=freq)
    return two_level(s=s, alpha=alpha, t_start=-100.0, t_end=100.0)


def frozen_frame(alpha=math.pi / 3):
    _, C, P = two_level_matrices(1.0, alpha)
    return validate_frames(C, P, AntilinearOperator.conjugation(2))


# --------------------------------------------------------- effective_generator

def test_generator_compensated_with_static_metric_reduces_to_h():
    H = np.array([[1.0, 0.3], [0.3, -1.0]], dtype=complex)
    problem = EvolutionProblem(
        hamiltonian=OperatorFamily.constant(H),
        frame_family=identity_metric_family(),
        grid=np.linspace(0, 1, 5),
        equation=Equation.COMPENSATED,
        initial_state=np.array([1.0, 0.0]),
    )
    assert np.allclose(effective_generator(problem, 0.3), H, atol=1e-14)


def test_generator_augmented_matches_compensated_for_matching_g():
    model = two_level_model()
    family = model.frame_family
    grid = np.linspace(0, 1, 5)
    x0 = np.array([1.0, 0.0])

    def G(t):
        return -0.5 * family.c_family(t) @ family_derivatives(family.c_family, [t])[0][0]

    augmented = EvolutionProblem(model.hamiltonian, model.frame_family,
                                 grid, Equation.AUGMENTED, x0,
                                 correction=OperatorFamily(-100, 100, G))
    compensated = EvolutionProblem(model.hamiltonian, model.frame_family,
                                   grid, Equation.COMPENSATED, x0)
    for t in np.linspace(0, 1, 7):
        ga = effective_generator(augmented, t)
        gc = effective_generator(compensated, t)
        assert operator_norm(ga - gc) <= 1e-12


def test_generator_compensated_correction_term():
    # -(i/2) C Cdot with Cdot = alpha' (tan(a) C + i diag(1,-1))
    model = two_level_model(amp=0.4, freq=1.5)
    alpha = ScalarFunction.sinusoid(amplitude=0.4, frequency=1.5)  # the model's alpha
    problem = EvolutionProblem(model.hamiltonian, model.frame_family,
                               np.linspace(0, 1, 5), Equation.COMPENSATED,
                               np.array([1.0, 0.0]))
    t = 0.6
    a = alpha(t)
    ad = alpha.dfn(t)
    _, C, _ = two_level_matrices(1.0, a)
    Cdot = ad * (math.tan(a) * C + 1j * np.diag([1.0, -1.0]))
    expected = model.hamiltonian(t) - 0.5j * (C @ Cdot)
    assert operator_norm(effective_generator(problem, t) - expected) <= 1e-10


# --------------------------------------------------------------- evolve_state

def test_evolve_state_matches_matrix_exponential():
    H = np.array([[1.0, 0.4 - 0.2j], [0.4 + 0.2j, -0.5]], dtype=complex)
    grid = np.linspace(0.0, 2.0, 21)
    x0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    problem = EvolutionProblem(
        hamiltonian=OperatorFamily.constant(H),
        frame_family=identity_metric_family(),
        grid=grid,
        equation=Equation.SCHRODINGER,
        initial_state=x0,
        substeps=40,
    )
    traj = evolve_state(problem)
    for k, t in enumerate(grid):
        expected = expm(-1j * t * H) @ x0
        assert np.linalg.norm(traj.states[k] - expected) <= 1e-8


def test_constant_metric_run_conserves_norm():
    # H(t) = a(t) I + b(t) C over a frozen frame: plain equation is unitary
    frame = frozen_frame()
    fam = FrameFamily.constant(frame)
    a = ScalarFunction.sinusoid(amplitude=1.0, frequency=1.0)
    b = ScalarFunction.constant(1.0)

    def H(t):
        return a(t) * np.eye(2, dtype=complex) + b(t) * frame.c

    grid = np.linspace(0.0, 5.0, 51)
    x0 = np.array([0.8, 0.6 - 0.2j])
    problem = EvolutionProblem(
        hamiltonian=OperatorFamily(-10.0, 10.0, H),
        frame_family=fam,
        grid=grid,
        equation=Equation.SCHRODINGER,
        initial_state=x0,
        substeps=40,
    )
    traj = evolve_state(problem)
    assert traj.max_norm_drift <= 1e-8
    assert np.max(np.abs(traj.drift_rates)) <= 1e-10


def test_compensated_norm_conservation_and_step_convergence():
    model = two_level_model(amp=0.9, freq=2.0)
    grid = np.linspace(0.0, 2.0, 41)
    x0 = np.array([1.0, 0.5j])
    drifts = {}
    for substeps in (2, 4):
        problem = EvolutionProblem(model.hamiltonian, model.frame_family,
                                   grid, Equation.COMPENSATED, x0, substeps=substeps)
        drifts[substeps] = evolve_state(problem).max_norm_drift
    assert drifts[2] <= 1e-6
    ratio = drifts[2] / drifts[4]
    assert 10.0 <= ratio <= 22.0


def test_augmented_with_matching_g_reproduces_compensated_run():
    model = two_level_model()
    family = model.frame_family
    grid = np.linspace(0.0, 1.5, 16)
    x0 = np.array([0.3, 1.0])

    def G(t):
        return -0.5 * family.c_family(t) @ family_derivatives(family.c_family, [t])[0][0]

    t_aug = evolve_state(EvolutionProblem(model.hamiltonian, model.frame_family,
                                          grid, Equation.AUGMENTED, x0,
                                          correction=OperatorFamily(-100, 100, G)))
    t_comp = evolve_state(EvolutionProblem(model.hamiltonian, model.frame_family,
                                           grid, Equation.COMPENSATED, x0))
    assert np.max(np.abs(t_aug.states - t_comp.states)) <= 1e-10


def test_integration_abort_reports_last_good_time():
    # G = kappa I turns the augmented equation into pure exponential growth
    kappa = 200.0
    problem = EvolutionProblem(
        hamiltonian=OperatorFamily.constant(np.zeros((2, 2))),
        frame_family=identity_metric_family(),
        grid=np.linspace(0.0, 10.0, 21),
        equation=Equation.AUGMENTED,
        initial_state=np.array([1.0, 0.0]),
        correction=OperatorFamily.constant(kappa * np.eye(2)),
        substeps=5,
    )
    with pytest.raises(IntegrationAbort) as err:
        evolve_state(problem)
    assert 0.0 <= err.value.last_good_t < 10.0


def test_coarse_step_warning(caplog):
    H = np.array([[2.0, 0.0], [0.0, -2.0]], dtype=complex)
    problem = EvolutionProblem(
        hamiltonian=OperatorFamily.constant(H),
        frame_family=identity_metric_family(),
        grid=np.array([0.0, 5.0]),
        equation=Equation.SCHRODINGER,
        initial_state=np.array([1.0, 0.0]),
        substeps=1,
    )
    with caplog.at_level(logging.WARNING, logger="ptdyn.dynamics"):
        evolve_state(problem)
    assert any("coarse step" in rec.message for rec in caplog.records)


def _constant_metric_problem(hbar, grid=np.linspace(0.0, 1.0, 11)):
    """H(t) = sin(t) I + C over a frozen frame, plain equation, automatic substeps at hbar."""
    model = build_constant_metric(ScalarFunction.sinusoid(amplitude=1.0, frequency=1.0),
                                  ScalarFunction.constant(1.0), frozen_frame(), grid)
    return EvolutionProblem(model.hamiltonian, model.frame_family,
                            grid, Equation.SCHRODINGER, np.array([0.8, 0.6 - 0.2j]), hbar=hbar)


@pytest.mark.parametrize("hbar", [0.01, 0.1, 1.0, 10.0])
def test_automatic_substeps_resolve_the_dynamics_at_every_hbar(hbar):
    # C^2 = I, so psi(t) = e^{-i A/hbar} e^{-i (B/hbar) C} psi0 = e^{-i A/hbar} (cos(B/hbar)
    # - i sin(B/hbar) C) psi0, with A = int_0^t sin = 1 - cos t and B = int_0^t 1 = t
    problem = _constant_metric_problem(hbar)
    traj = evolve_state(problem)
    t, x0, C = problem.grid[:, None], problem.initial_state, frozen_frame().c
    angle = t / hbar
    expected = np.exp(-1j * (1.0 - np.cos(t)) / hbar) * (np.cos(angle) * x0
                                                          - 1j * np.sin(angle) * (C @ x0))
    assert traj.max_norm_drift <= 1e-10
    assert np.abs(traj.states - expected).max() <= 1e-9


def test_automatic_substep_count_scales_as_one_over_hbar():
    grid = np.linspace(0.0, 1.0, 11)
    norms = operator_norms(_constant_metric_problem(1.0).hamiltonian.stack(grid[:-1]))
    for hbar in (0.01, 0.1, 1.0, 10.0, 100.0):
        counts = evolve_state(_constant_metric_problem(hbar)).diagnostics["substeps"]
        assert counts == np.maximum(1, np.ceil(100.0 * norms * np.diff(grid) / hbar)).tolist()


def test_no_coarse_step_warning_where_the_step_is_fine_on_the_scale_of_hbar(caplog):
    # At hbar = 100 over unit intervals the count is ceil(||G||) = 4 and ||G||*h is about 0.9,
    # above STEP_NORM_WARN, but the step of the equation, ||G||*h/hbar, is about 0.009.
    problem = _constant_metric_problem(100.0, np.linspace(0.0, 2.0, 3))
    with caplog.at_level(logging.WARNING, logger="ptdyn.dynamics"):
        traj = evolve_state(problem)
    assert traj.diagnostics["substeps"] == [4, 4]
    assert not [r for r in caplog.records if "coarse step" in r.message]


def test_coarse_step_warning_prints_the_step_on_the_scale_of_hbar(caplog):
    # ||G|| = 2, h = 5, hbar = 2: the step of the equation is ||G||*h/hbar = 5
    problem = EvolutionProblem(
        hamiltonian=OperatorFamily.constant(np.diag([2.0, -2.0])),
        frame_family=identity_metric_family(),
        grid=np.array([0.0, 5.0]),
        equation=Equation.SCHRODINGER,
        initial_state=np.array([1.0, 0.0]),
        hbar=2.0,
        substeps=1,
    )
    with caplog.at_level(logging.WARNING, logger="ptdyn.dynamics"):
        evolve_state(problem)
    assert [r.message for r in caplog.records] == ["coarse step at t=0: ||generator||*h/hbar = 5 > 0.5"]


def _huge_from(t_huge, **fields):
    """||H|| jumps from 1 to 1e9 at t_huge, so the automatic count of each interval from there
    on is above dynamics.MAX_SUBSTEPS; a SCHRODINGER problem on [0, 10] unless ``fields`` say."""
    M = np.diag([1.0, -1.0]).astype(complex)
    problem = EvolutionProblem(
        hamiltonian=OperatorFamily(-1.0, 11.0, lambda t: M * (1e9 if t >= t_huge else 1.0)),
        frame_family=identity_metric_family(),
        grid=np.linspace(0.0, 10.0, 21),
        equation=Equation.SCHRODINGER,
        initial_state=np.array([1.0, 0.0]),
    )
    return dataclasses.replace(problem, **fields)


def test_huge_substep_count_aborts_naming_its_interval():
    problem = _huge_from(2.0)
    err = _same_error(problem, IntegrationAbort)
    assert str(err) == "substep count 5e+10 exceeds 1e+07 between t=2.0 and t=2.5"
    assert err.last_good_t == 2.0


def test_earlier_non_finite_state_aborts_before_a_huge_substep_count():
    # y' = 200 y from 1e300 overflows within [0.05, 0.1]; the count from t = 0.1 on is huge
    problem = _huge_from(0.1, grid=np.linspace(0.0, 1.0, 21), equation=Equation.AUGMENTED,
                         initial_state=np.array([1e300, 0.0]),
                         correction=OperatorFamily.constant(200.0 * np.eye(2)))
    err = _same_error(problem, IntegrationAbort)
    assert str(err) == "state became non-finite between t=0.05 and t=0.1"


def test_drift_rate_imaginary_residual_logged_once(caplog):
    # a non-Hermitian G makes <phi|PC G phi> complex at every grid point
    G = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    problem = EvolutionProblem(
        hamiltonian=OperatorFamily.constant(np.zeros((2, 2))),
        frame_family=identity_metric_family(),
        grid=np.linspace(0.0, 1.0, 11),
        equation=Equation.AUGMENTED,
        initial_state=np.array([1.0, 1.0j]) / math.sqrt(2.0),
        correction=OperatorFamily.constant(0.1 * G),
        substeps=4,
    )
    with caplog.at_level(logging.DEBUG, logger="ptdyn.dynamics"):
        evolve_state(problem)
    logged = [rec.message for rec in caplog.records if "imaginary residual" in rec.message]
    assert len(logged) == 1 and "max |Im|" in logged[0] and "at t=" in logged[0]


def test_problem_validation():
    fam = identity_metric_family()
    H = OperatorFamily.constant(np.eye(2))
    x0 = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        EvolutionProblem(H, fam, np.array([0.0, 0.0, 1.0]), Equation.SCHRODINGER, x0)
    with pytest.raises(ValueError, match="two time points"):
        EvolutionProblem(H, fam, np.array([0.0]), Equation.SCHRODINGER, x0)
    with pytest.raises(ValueError, match="requires a correction"):
        EvolutionProblem(H, fam, np.array([0.0, 1.0]), Equation.AUGMENTED, x0)
    with pytest.raises(ValueError, match="forbids a correction"):
        EvolutionProblem(H, fam, np.array([0.0, 1.0]), Equation.SCHRODINGER, x0,
                         correction=OperatorFamily.constant(np.eye(2)))
    with pytest.raises(ValueError, match="hbar"):
        EvolutionProblem(H, fam, np.array([0.0, 1.0]), Equation.SCHRODINGER, x0, hbar=0.0)
    for hbar in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^hbar must be finite"):
            EvolutionProblem(H, fam, np.array([0.0, 1.0]), Equation.SCHRODINGER, x0, hbar=hbar)
    for substeps in (2.5, True, np.True_, math.inf, math.nan):
        with pytest.raises(ValueError, match="^substeps must be an integer"):
            EvolutionProblem(H, fam, np.array([0.0, 1.0]), Equation.SCHRODINGER, x0,
                             substeps=substeps)
    with pytest.raises(ValueError, match="^substeps must be >= 1$"):
        EvolutionProblem(H, fam, np.array([0.0, 1.0]), Equation.SCHRODINGER, x0, substeps=0)
    for substeps, shown in ((MAX_SUBSTEPS + 1, "10000001"), (2**64, "18446744073709551616"),
                            (1e300, "1e+300"), (10**400, str(10**400))):
        with pytest.raises(ValueError) as err:
            EvolutionProblem(H, fam, np.array([0.0, 1.0, 2.0]), Equation.SCHRODINGER, x0,
                             substeps=substeps)
        assert str(err.value) == f"substeps must be <= 1e+07, got {shown}"
    for substeps in (3.0, np.int64(3), np.float32(3.0)):
        problem = EvolutionProblem(H, fam, np.linspace(0.0, 1.0, 5), Equation.SCHRODINGER, x0,
                                   substeps=substeps)
        assert type(problem.substeps) is int and problem.substeps == 3
        assert evolve_state(problem).diagnostics["substeps"] == [3] * 4


def test_default_substep_density():
    H = np.array([[3.0, 0.0], [0.0, -3.0]], dtype=complex)
    problem = EvolutionProblem(
        hamiltonian=OperatorFamily.constant(H),
        frame_family=identity_metric_family(),
        grid=np.linspace(0.0, 1.0, 3),
        equation=Equation.SCHRODINGER,
        initial_state=np.array([1.0, 0.0]),
    )
    traj = evolve_state(problem)
    # ceil(100 * 3 * 0.5) = 150 substeps per interval
    assert traj.diagnostics["substeps"] == [150, 150]


# ----------------------------------------------------------- evolve_propagator

def test_propagator_trivial():
    problem = EvolutionProblem(
        hamiltonian=OperatorFamily.constant(np.zeros((2, 2))),
        frame_family=identity_metric_family(),
        grid=np.linspace(0.0, 1.0, 5),
        equation=Equation.COMPENSATED,
        initial_state=np.array([1.0, 0.0]),
    )
    for t, U in evolve_propagator(problem):
        assert np.allclose(U, np.eye(2), atol=1e-12)


def test_propagator_reproduces_state_evolution_and_metric_unitarity():
    model = two_level_model(amp=0.7, freq=1.3)
    family = model.frame_family
    grid = np.linspace(0.0, 2.0, 21)
    problem = EvolutionProblem(model.hamiltonian, model.frame_family,
                               grid, Equation.COMPENSATED, np.array([1.0, 0.0]),
                               substeps=20)
    pairs = evolve_propagator(problem)
    metric0 = family.p @ family.c_family(grid[0])
    for col, e in enumerate(np.eye(2)):
        traj = evolve_state(EvolutionProblem(model.hamiltonian, model.frame_family,
                                             grid, Equation.COMPENSATED, e, substeps=20))
        for (t, U), state in zip(pairs, traj.states):
            assert np.linalg.norm(U[:, col] - state) <= 1e-8
    for t, U in pairs:
        metric_t = family.p @ family.c_family(t)
        assert operator_norm(U.conj().T @ metric_t @ U - metric0) <= 1e-7


def test_propagator_requires_compensated_equation():
    problem = EvolutionProblem(
        hamiltonian=OperatorFamily.constant(np.eye(2)),
        frame_family=identity_metric_family(),
        grid=np.linspace(0.0, 1.0, 3),
        equation=Equation.SCHRODINGER,
        initial_state=np.array([1.0, 0.0]),
    )
    with pytest.raises(ValueError, match="COMPENSATED"):
        evolve_propagator(problem)


# ------------------------------------------------------------------ drift rates

def test_drift_rate_zero_for_static_metric():
    problem = EvolutionProblem(
        hamiltonian=OperatorFamily.constant(np.eye(2)),
        frame_family=identity_metric_family(),
        grid=np.linspace(0.0, 1.0, 3),
        equation=Equation.SCHRODINGER,
        initial_state=np.array([1.0, 0.0]),
    )
    fam, t = problem.frame_family, np.array([0.5])
    C, Cdot = fam.c_family.stack(t), family_derivatives(fam.c_family, t)[0]
    rate = dynamics._drift_rates(problem, t, C, Cdot, fam.p @ C, np.array([[1.0, 2.0j]]))[0]
    assert rate == pytest.approx(0.0, abs=1e-14)


def test_drift_rate_compensated_residual_is_tiny():
    model = two_level_model(amp=0.8, freq=2.5)
    grid = np.linspace(0.0, 2.0, 31)
    problem = EvolutionProblem(model.hamiltonian, model.frame_family,
                               grid, Equation.COMPENSATED, np.array([1.0, 0.2j]))
    traj = evolve_state(problem)
    assert np.max(np.abs(traj.drift_rates)) <= 1e-10


def test_drift_rate_matches_norm_derivative():
    # plain equation with a moving metric: drift rate == d/dt of the squared
    # frame norm, checked against centered differences at two resolutions
    model = two_level_model(amp=0.5, freq=2.0)
    errors = {}
    for npts in (401, 801):
        grid = np.linspace(0.0, 2.0, npts)
        problem = EvolutionProblem(model.hamiltonian, model.frame_family,
                                   grid, Equation.SCHRODINGER,
                                   np.array([1.0, 0.3 + 0.1j]), substeps=4)
        traj = evolve_state(problem)
        n2 = traj.cpt_norms**2
        h = grid[1] - grid[0]
        fd = (n2[2:] - n2[:-2]) / (2.0 * h)
        errors[npts] = np.max(np.abs(fd - traj.drift_rates[1:-1]))
    assert np.max(np.abs(errors[401])) <= 5e-4
    ratio = errors[401] / errors[801]
    assert 2.5 <= ratio <= 6.0
    # the drift itself is genuinely nonzero on this run
    assert errors[401] < 0.01


def test_schrodinger_drift_nonzero_with_moving_metric():
    model = two_level_model(amp=0.8, freq=2.0)
    grid = np.linspace(0.0, 2.0, 101)
    problem = EvolutionProblem(model.hamiltonian, model.frame_family,
                               grid, Equation.SCHRODINGER, np.array([1.0, 0.0]))
    traj = evolve_state(problem)
    assert np.max(np.abs(traj.drift_rates)) > 1e-3


# ------------------------------------------- stacked generator evaluation in RK4

def _correction_like_compensated(model):
    family = model.frame_family

    def G(t):
        return -0.5 * family.c_family(t) @ family_derivatives(family.c_family, [t])[0][0]

    return OperatorFamily(-100.0, 100.0, G)


def _problems(equation, substeps):
    """The same equation on the two-level model (at two values of hbar) and on the
    constant-metric model."""
    x0 = np.array([1.0, 0.4 + 0.3j])
    two_level = two_level_model(amp=0.7, freq=1.7)
    correction = (_correction_like_compensated(two_level)
                  if equation is Equation.AUGMENTED else None)
    yield EvolutionProblem(two_level.hamiltonian, two_level.frame_family,
                           np.linspace(0.0, 1.5, 16), equation, x0,
                           substeps=substeps, correction=correction)
    # hbar != 1: the rate -i/hbar is no longer exactly -i
    yield EvolutionProblem(two_level.hamiltonian, two_level.frame_family,
                           np.linspace(0.0, 1.5, 16), equation, x0, hbar=0.37,
                           substeps=substeps, correction=correction)
    constant = build_constant_metric(
        ScalarFunction.sinusoid(amplitude=1.2, frequency=1.3, phase=0.4),
        ScalarFunction.constant(0.8), frozen_frame(), np.linspace(0.0, 3.0, 31))
    correction = (OperatorFamily.constant(np.array([[0.1, 0.2j], [-0.2j, 0.05]]))
                  if equation is Equation.AUGMENTED else None)
    yield EvolutionProblem(constant.hamiltonian, constant.frame_family,
                           np.linspace(0.0, 3.0, 31), equation, x0,
                           substeps=substeps, correction=correction)


def _assert_matches_reference(problem):
    traj = evolve_state(problem)
    values, substeps = reference_rk4_run(problem, problem.initial_state)
    assert np.array_equal(traj.states, np.array(values))
    assert traj.diagnostics["substeps"] == substeps
    if problem.equation is Equation.COMPENSATED:
        ref, _ = reference_rk4_run(problem, np.eye(problem.frame_family.dim, dtype=complex))
        got = evolve_propagator(problem)
        assert [t for t, _ in got] == problem.grid.tolist()
        assert np.array_equal(np.array([U for _, U in got]), np.array(ref))


@pytest.mark.parametrize("substeps", [None, 1, 7])
@pytest.mark.parametrize("equation", list(Equation))
def test_stacked_rk4_bit_identical_to_one_point_loop(equation, substeps):
    for problem in _problems(equation, substeps):
        _assert_matches_reference(problem)


# At 2x2 a block holds linalg.STACK_ENTRIES // 12 = 682 substeps: at 681 the first
# block ends one substep after the first interval's end, at 682 on it and at 683
# one before it; at 700 a block ends inside each of the first two intervals.
@pytest.mark.parametrize("substeps", [681, 682, 683, 700])
@pytest.mark.parametrize("equation", [Equation.SCHRODINGER, Equation.COMPENSATED])
def test_stacked_rk4_bit_identical_across_blocks(equation, substeps):
    for problem in _problems(equation, substeps):
        _assert_matches_reference(dataclasses.replace(problem, grid=problem.grid[:3]))


def test_no_coarse_step_warning_after_a_non_finite_interval_end(caplog):
    # ||G|| h = 200 * 0.05 = 10 warns at every interval, and one RK4 substep multiplies
    # the state by about 643, so from 1e300 it overflows in [0.1, 0.15], inside the
    # walk's one block: the intervals after it are never entered.
    problem = EvolutionProblem(
        hamiltonian=OperatorFamily.constant(np.zeros((2, 2))),
        frame_family=identity_metric_family(),
        grid=np.arange(21) / 20.0,
        equation=Equation.AUGMENTED,
        initial_state=np.array([1e300, 0.0]),
        correction=OperatorFamily.constant(200.0 * np.eye(2)),
        substeps=1,
    )
    with caplog.at_level(logging.WARNING):
        assert str(_same_error(problem, IntegrationAbort)) == (
            "state became non-finite between t=0.1 and t=0.15")
    ref = [r.message for r in caplog.records if r.name == "rk4_reference"]
    got = [r.message for r in caplog.records if r.name == "ptdyn.dynamics"]
    assert got == ref == [f"coarse step at t={t}: ||generator||*h/hbar = 10 > 0.5"
                          for t in ("0", "0.05", "0.1")]


@pytest.mark.parametrize("scale, finite", [(5e-43, True), (7e-43, False)])
def test_rk4_pair_path_turning_non_finite_in_one_component(scale, finite):
    # y1' = 400 y1 over 1400 substeps (blocks end after substeps 682 and 1364).
    # From 7e-43, y1 overflows in substep 1400, the last of interval [1, 2] and
    # in its second block, while y0 stays 1; from 5e-43 it ends near 8.8e304.
    problem = EvolutionProblem(
        hamiltonian=OperatorFamily.constant(np.zeros((2, 2))),
        frame_family=identity_metric_family(),
        grid=np.array([0.0, 1.0, 2.0]),
        equation=Equation.AUGMENTED,
        initial_state=np.array([1.0, scale]),
        correction=OperatorFamily.constant(np.diag([0.0, 400.0])),
        substeps=700,
    )
    if finite:
        _assert_matches_reference(problem)
        return
    with pytest.raises(IntegrationAbort) as ref:
        reference_rk4_run(problem, problem.initial_state)
    err = _same_error(problem, IntegrationAbort)
    assert str(err) == "state became non-finite between t=1.0 and t=2.0"
    assert err.last_good_t == ref.value.last_good_t == 1.0


def _cayley(A, t):
    """Orthogonal (I - tA/2)^-1 (I + tA/2) for antisymmetric A."""
    eye = np.eye(A.shape[0])
    return np.linalg.solve(eye - 0.5 * t * A, eye + 0.5 * t * A)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4), points=st.integers(2, 5),
       equation=st.sampled_from(list(Equation)), substeps=st.sampled_from([None, 1, 2, 5]),
       hbar=st.sampled_from([1.0, 0.37, 2.5]))
@example(seed=3552, dim=3, points=2, equation=Equation.AUGMENTED, substeps=None, hbar=0.37)
def test_stacked_rk4_bit_identical_on_random_frames(seed, dim, points, equation, substeps,
                                                    hbar):
    # C(t) = R(t) C0 R(t)^T with R orthogonal and commuting with P stays a
    # valid frame; dC/dt is differenced, one-sided near t = 1.
    rng = np.random.default_rng(seed)
    C0, P, K = random_frame_matrices(rng, dim)
    X = rng.normal(size=(dim, dim))
    A = X - X.T
    A = A + P.real @ A @ P.real
    H0 = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    H0 *= 0.5 / operator_norm(H0)

    def c_of_t(t):
        R = _cayley(A, t)
        return R @ C0 @ R.T

    def h_of_t(t):
        R = _cayley(A, 0.5 * t)
        return R @ H0 @ R.T

    family = FrameFamily(OperatorFamily(0.0, 1.0, c_of_t), P, AntilinearOperator(K))
    correction = None
    if equation is Equation.AUGMENTED:
        correction = OperatorFamily(0.0, 1.0, lambda t: math.cos(t) * H0.conj().T)
    problem = EvolutionProblem(
        hamiltonian=OperatorFamily(0.0, 1.0, h_of_t),
        frame_family=family,
        grid=np.linspace(0.0, 1.0, points),
        equation=equation,
        initial_state=rng.normal(size=dim) + 1j * rng.normal(size=dim),
        correction=correction,
        hbar=hbar,
        substeps=substeps,
    )
    _assert_matches_reference(problem)


def _reference_pair_step(rate, ga, gb, gc, y, dh):
    """The array RK4 substep with each matrix-vector product taken by ``pair_product``."""
    k1 = rate * pair_product(ga, y)
    k2 = rate * pair_product(gb, y + 0.5 * dh * k1)
    k3 = rate * pair_product(gb, y + 0.5 * dh * k2)
    k4 = rate * pair_product(gc, y + dh * k3)
    return y + (dh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _pair_step(rate, ga, gb, gc, y, dh):
    """One RK4 substep of a 2-vector as a one-substep block of :func:`dynamics._rk4_block_pair`,
    checking that the block returns its one interval end and its end generator."""
    ends, g_end, got = dynamics._rk4_block_pair(rate, ga, tuple(gb) + tuple(gc), [dh], [True], y)
    assert ends == [got] and g_end == tuple(gc)
    return got


@pytest.mark.parametrize("hbar", [1.0, 0.37, 2.5, 1e-300])
def test_pair_step_is_the_reference_product_step_bit_for_bit(hbar):
    # random stage matrices and states over 600 decades of scale, so that some
    # substeps overflow: those must turn non-finite in the same components
    rng = np.random.default_rng(11)
    rate = -1j / hbar
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-300, 300, size=(3, 2, 2))
        ga, gb, gc = scale * (rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2)))
        y = 10.0 ** rng.uniform(-300, 300) * (rng.normal(size=2) + 1j * rng.normal(size=2))
        dh = 10.0 ** rng.uniform(-6, 0)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _reference_pair_step(rate, ga, gb, gc, y, dh)
        stages = [g.reshape(4).tolist() for g in (ga, gb, gc)]
        got = np.array(_pair_step(rate, *stages, y.tolist(), dh))
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        assert got[finite].tobytes() == want[finite].tobytes()


def test_pair_step_takes_python_tuples():
    ga = (0.3 + 1j, -0.2j, 0.5 + 0j, 1.5 - 0.25j)
    gb = (2j, 0.1 + 0j, -1 + 0j, 0.7j)
    gc = (1 + 1j, 0j, 0.4 - 0.6j, -2 + 0j)
    y, rate, dh = (0.6 - 0.8j, 0.25 + 0.1j), -1j / 0.37, 0.125
    got = _pair_step(rate, ga, gb, gc, y, dh)
    assert type(got) is tuple and [type(z) for z in got] == [complex, complex]
    want = _reference_pair_step(rate, *(np.reshape(g, (2, 2)) for g in (ga, gb, gc)),
                                np.array(y), dh)
    assert np.array(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_block_step_is_chained_one_substep_blocks_bit_for_bit(dim):
    # 60 substeps with 8 interval ends; y' = (1 + noise) y grows about e-fold a substep
    # from 1e290, so the state overflows near substep 42, between two interval ends
    # inside the block, and the block runs on past it to its end.
    rng = np.random.default_rng(5)
    n, rate = 60, -1j
    gens = 1j * (np.eye(dim) + 0.1 * (rng.normal(size=(2 * n + 1, dim, dim))
                                      + 1j * rng.normal(size=(2 * n + 1, dim, dim))))
    hs = rng.uniform(0.9, 1.1, size=n).tolist()
    last = [i % 8 == 7 or i == n - 1 for i in range(n)]
    y0 = 1e290 * (rng.normal(size=dim) + 1j * rng.normal(size=dim))
    if dim == 2:
        block, stages, y = dynamics._rk4_block_pair, (lambda g: g.ravel().tolist()), y0.tolist()
    else:
        block, stages, y = dynamics._rk4_block, (lambda g: g), y0
    with np.errstate(over="ignore", invalid="ignore"):
        ends, g_end, y_end = block(rate, stages(gens[0]), stages(gens[1:]), hs, last, y)
        chained, ga = [], stages(gens[0])
        for i in range(n):
            got, ga, y = block(rate, ga, stages(gens[1 + 2 * i:3 + 2 * i]), hs[i:i + 1],
                               last[i:i + 1], y)
            chained += got
    ends, chained = np.array(ends), np.array(chained)
    assert len(ends) == sum(last) and ends.tobytes() == chained.tobytes()
    assert np.array(y_end).tobytes() == np.array(y).tobytes()
    assert np.array(g_end).tobytes() == np.array(ga).tobytes() == gens[-1].tobytes()
    finite = np.isfinite(ends).all(axis=1)
    assert finite[:4].all() and not finite[-3:].any()


def test_rk4_takes_the_pair_step_for_2_vectors_only(monkeypatch):
    calls = []
    for name in ("_rk4_block", "_rk4_block_pair"):
        def counted(*args, _name=name, _step=getattr(dynamics, name)):
            calls.append(_name)
            return _step(*args)
        monkeypatch.setattr(dynamics, name, counted)
    problem = dataclasses.replace(_turning_problem(3, 2, 0.5), substeps=2)
    evolve_state(problem)
    assert calls == ["_rk4_block_pair"]
    calls.clear()
    evolve_propagator(problem)
    assert calls == ["_rk4_block"]
    calls.clear()
    evolve_state(dataclasses.replace(_turning_problem(3, 3, 0.5), substeps=2))
    assert calls == ["_rk4_block"]
    calls.clear()
    # 500 intervals of 100 substeps: one call for each block of STACK_ENTRIES // 12 = 682
    evolve_state(EvolutionProblem(OperatorFamily.constant(np.diag([1.0, -1.0])),
                                  identity_metric_family(), np.linspace(0.0, 10.0, 501),
                                  Equation.SCHRODINGER, np.array([0.6, 0.8j]), substeps=100))
    assert calls == ["_rk4_block_pair"] * math.ceil(50_000 / (STACK_ENTRIES // 12)) == \
        ["_rk4_block_pair"] * 74


def _counting_problem(grid, substeps, domain=(-100.0, 100.0)):
    """A SCHRODINGER problem whose H records every time it is evaluated at."""
    seen = []
    H = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]], dtype=complex)

    def evaluate(t):
        seen.append(t)
        return math.cos(t) * H

    problem = EvolutionProblem(
        hamiltonian=OperatorFamily(*domain, evaluate),
        frame_family=identity_metric_family(),
        grid=grid,
        equation=Equation.SCHRODINGER,
        initial_state=np.array([1.0, 0.5j]),
        substeps=substeps,
    )
    return problem, seen


def _nodes(t0, t1, nsub):
    """The stage times of one interval, formed as the one-point loop forms them: each
    substep's start t0 + j*h and midpoint, and t1, where the last substep ends."""
    h = (t1 - t0) / nsub
    starts = [t0 + j * h for j in range(nsub)]
    return set(starts) | {t + 0.5 * h for t in starts} | {t1}


@pytest.mark.parametrize("nsub", [1, 2, 3, 7, 100, 300])
@pytest.mark.parametrize("k", [0, 13, 377])
def test_rk4_evaluates_each_distinct_node_once(k, nsub):
    t0, t1 = np.linspace(0.0, 10.0, 501)[k:k + 2]
    problem, seen = _counting_problem(np.array([t0, t1]), nsub)
    traj = evolve_state(problem)
    assert len(seen) == len(set(seen))
    assert set(seen) == _nodes(t0, t1, nsub)
    assert traj.diagnostics["generator_evaluations"] == len(seen) == 2 * nsub + 1


def test_grid_generators_in_chunks_equal_the_whole_stack_expression():
    # d = 6 takes 227 points a chunk: a 500-point grid is filled in three chunks
    ham, family = rotating_frame_model(5, 6, analytic=True)
    grid = np.linspace(0.0, 1.0, 500)
    G = OperatorFamily(0.0, 1.0, lambda t: 0.1 * t * family.c_family(t))
    x = np.random.default_rng(5).normal(size=6)
    for equation, correction in ((Equation.COMPENSATED, None), (Equation.AUGMENTED, G)):
        problem = EvolutionProblem(hamiltonian=ham, frame_family=family, grid=grid,
                                   equation=equation, initial_state=x, correction=correction,
                                   hbar=0.7)
        fg = family.on_grid(grid)
        H = ham.on_grid(grid)
        whole = (H + 1j * G.on_grid(grid) if correction else
                 H - 0.5j * problem.hbar * (fg.c @ fg.cdot))
        for from_grid in (True, False):
            gens, _, failure = dynamics._generators(problem, grid, from_grid)
            assert failure is None
            assert same_bits(gens, whole)


def test_rk4_evaluation_count_over_a_grid():
    grid = np.linspace(0.0, 10.0, 51)
    problem, seen = _counting_problem(grid, 100)
    traj = evolve_state(problem)
    # the 51 grid points, then 100 midpoints and 99 interior substep ends an interval
    nodes = set().union(*(_nodes(t0, t1, 100) for t0, t1 in zip(grid[:-1], grid[1:])))
    assert len(seen) == len(set(seen)) == len(nodes)
    assert set(seen) == nodes
    assert traj.diagnostics["generator_evaluations"] == len(seen) == 51 + 50 * 199 == 10001
    # automatic counts, which vary with |cos t|: n_t + sum(2 n_k - 1) all the same
    problem, seen = _counting_problem(grid, None)
    traj = evolve_state(problem)
    counts = traj.diagnostics["substeps"]
    assert len(set(counts)) > 1 and len(seen) == len(set(seen))
    assert traj.diagnostics["generator_evaluations"] == len(seen) == 51 + sum(2 * n - 1 for n in counts)
    # one interval, one substep: t0, t0 + h/2 and t1, against 5 one-point evaluations
    problem, seen = _counting_problem(np.array([0.0, 1.0]), 1)
    assert evolve_state(problem).diagnostics["generator_evaluations"] == 3 == len(seen)


def _same_error(problem, error=ValueError):
    with pytest.raises(error) as ref:
        reference_rk4_run(problem, problem.initial_state)
    with pytest.raises(error) as got:
        evolve_state(problem)
    assert str(got.value) == str(ref.value)
    return got.value


def test_rk4_nan_at_interior_node_names_the_same_time():
    grid = np.linspace(0.0, 1.0, 5)
    h = (grid[3] - grid[2]) / 3
    bad = grid[2] + 1 * h + 0.5 * h
    H = np.diag([1.0, -1.0]).astype(complex)
    problem = EvolutionProblem(
        hamiltonian=OperatorFamily(-1.0, 2.0, lambda t: H * (math.nan if t == bad else 1.0)),
        frame_family=identity_metric_family(),
        grid=grid,
        equation=Equation.SCHRODINGER,
        initial_state=np.array([1.0, 0.0]),
        substeps=3,
    )
    err = _same_error(problem)
    assert f"t={bad}" in str(err) and "non-finite" in str(err)


@pytest.mark.parametrize("bad", [0.0, 0.5 * 0.25 / 3], ids=["first-grid-point", "first-midpoint"])
def test_rk4_nan_at_the_first_node_names_the_same_time(bad):
    # the grid points' stack, or the first block's, fails at its first time: no generator
    # is formed before the failure, and the walk takes no substep
    H = np.diag([1.0, -1.0]).astype(complex)
    problem = EvolutionProblem(
        hamiltonian=OperatorFamily(-1.0, 2.0, lambda t: H * (math.nan if t == bad else 1.0)),
        frame_family=identity_metric_family(),
        grid=np.linspace(0.0, 1.0, 5),
        equation=Equation.SCHRODINGER,
        initial_state=np.array([1.0, 0.0]),
        substeps=3,
    )
    err = _same_error(problem)
    assert str(err) == f"family value at t={bad} contains non-finite entries"
    assert err.index == 0


def test_rk4_nan_at_a_later_grid_point_ends_the_interval_before_it():
    # a compensated run with a valid frame whose H is NaN at the grid point t = 5.0 (index
    # 10): the grid points' stack stops there, and the walk meets t = 5.0 again as the last
    # node of interval 9, stopping before that interval's last substep
    hamiltonian = OperatorFamily(-1.0, 11.0, lambda t: np.eye(2) * (math.nan if t == 5.0 else 1.0))
    problem = EvolutionProblem(hamiltonian, identity_metric_family(), np.linspace(0.0, 10.0, 21),
                               Equation.COMPENSATED, np.array([1.0, 0.0]), substeps=2)
    err = _same_error(problem)
    assert str(err) == "family value at t=5.0 contains non-finite entries" and err.index == 9
    with pytest.raises(NonFiniteError) as got:
        evolve_propagator(problem)
    assert str(got.value) == str(err) and got.value.index == 9


def test_rk4_blow_up_aborts_at_the_same_last_good_time():
    problem = EvolutionProblem(
        hamiltonian=OperatorFamily.constant(np.zeros((2, 2))),
        frame_family=identity_metric_family(),
        grid=np.linspace(0.0, 10.0, 21),
        equation=Equation.AUGMENTED,
        initial_state=np.array([1.0, 0.0]),
        correction=OperatorFamily.constant(200.0 * np.eye(2)),
        substeps=5,
    )
    with pytest.raises(IntegrationAbort) as ref:
        reference_rk4_run(problem, problem.initial_state)
    err = _same_error(problem, IntegrationAbort)
    assert err.last_good_t == ref.value.last_good_t


def test_rk4_out_of_domain_node_raises_the_same_error():
    problem, _ = _counting_problem(np.linspace(0.0, 1.0, 5), 3, domain=(0.0, 0.55))
    assert "outside family domain" in str(_same_error(problem))


def test_rk4_last_node_is_the_grid_end_for_every_substep_count():
    # the last substep of an interval ends on its grid point, so a domain ending at
    # the grid's end takes every count; t0 + (n - 1)h + h rounds past 10.0 at 42 of them
    for nsub in range(1, 400):
        problem, _ = _counting_problem(np.array([0.0, 10.0]), nsub, domain=(0.0, 10.0))
        _assert_matches_reference(problem)


def test_rk4_coarse_step_warnings_match_one_point_loop(caplog):
    problem, _ = _counting_problem(np.linspace(0.0, 6.0, 4), 1)
    with caplog.at_level(logging.WARNING):
        reference_rk4_run(problem, problem.initial_state)
        evolve_state(problem)
    ref = [r.message for r in caplog.records if r.name == "rk4_reference"]
    got = [r.message for r in caplog.records if r.name == "ptdyn.dynamics"]
    assert ref and got == ref


def test_rk4_one_sided_derivatives_logged_once_per_run(caplog):
    family = FrameFamily(OperatorFamily(0.0, 1.0, lambda t: frozen_frame(0.5 + 0.3 * t).c),
                         SWAP, AntilinearOperator.conjugation(2))
    problem = EvolutionProblem(
        hamiltonian=OperatorFamily.constant(np.diag([1.0, -1.0])),
        frame_family=family,
        grid=np.linspace(0.0, 1.0, 6),
        equation=Equation.COMPENSATED,
        initial_state=np.array([1.0, 0.0]),
        substeps=4,
    )
    with caplog.at_level(logging.DEBUG):
        traj = evolve_state(problem)
    logged = [r.message for r in caplog.records
              if r.name == "ptdyn.dynamics" and "one-sided" in r.message]
    assert len(logged) == 1
    n = traj.diagnostics["generator_evaluations"]
    assert logged[0].startswith("one-sided derivative of C at ")
    assert f" of {n} generator nodes in [0, 1]" in logged[0]
    assert not [r for r in caplog.records if r.name == "ptdyn.linalg"]


def _recorded(family, calls, *names):
    """``family`` with each of its callables ``names`` appending its argument to ``calls[name]``."""
    def recording(name):
        fn = getattr(family, name)
        return lambda t: calls.setdefault(name, []).append(t) or fn(t)
    return dataclasses.replace(family, **{name: recording(name) for name in names})


def test_rk4_plans_the_ramp_in_a_few_stacks():
    # each family once on the 2001-point grid, whose stacks give the interval
    # starts and the last end point, then at the 2000 midpoints in three blocks
    # that cross interval ends
    grid = np.linspace(0.0, 1.0, 2001)
    model = build_two_level(ScalarFunction.constant(1.1), ScalarFunction.ramp(0.1, 0.3, 0.0, 1.0),
                            grid)
    h_calls, c_calls = {}, {}
    family = dataclasses.replace(
        model.frame_family, c_family=_recorded(model.frame_family.c_family, c_calls,
                                               "evaluate", "derivative"))
    problem = EvolutionProblem(_recorded(model.hamiltonian, h_calls, "evaluate"), family, grid,
                               Equation.COMPENSATED, np.array([1.0, 0.3j]))
    traj = evolve_state(problem)
    for calls in (h_calls["evaluate"], c_calls["evaluate"], c_calls["derivative"]):
        sizes = [np.size(t) for t in calls]
        assert sizes[0] == 2001 and sum(sizes[1:]) == 2000 and len(sizes) <= 4
    assert traj.diagnostics["generator_evaluations"] == 4001
    assert traj.diagnostics["substeps"] == [1] * 2000


def test_library_run_evaluates_each_family_once_a_node():
    # build_eigenframe, evolve_state, build_report and operator_phase on one
    # per-point d = 4 model: H, C and dC/dt are each evaluated once at every
    # grid point and once at every RK4 node off the grid, and nowhere else
    grid = np.linspace(0.0, 1.0, 11)
    ham, family = rotating_frame_model(5, 4, analytic=True)
    h_calls, c_calls = {}, {}
    ham = _recorded(ham, h_calls, "evaluate")
    family = dataclasses.replace(
        family, c_family=_recorded(family.c_family, c_calls, "evaluate", "derivative"))
    eframe = build_eigenframe(ham, family, grid)
    problem = EvolutionProblem(ham, family, grid, Equation.COMPENSATED, eframe.states[0, 1],
                               substeps=3)
    build_report(eframe, family, evolve_state(problem), 1, 0.5)
    operator_phase(ham, family, eframe, 1)
    nodes = set().union(*(_nodes(t0, t1, 3) for t0, t1 in zip(grid[:-1], grid[1:])))
    # the grid points, and 3 midpoints and 2 interior substep ends an interval
    assert len(nodes) == grid.size + 5 * (grid.size - 1)
    for calls in (h_calls["evaluate"], c_calls["evaluate"], c_calls["derivative"]):
        assert len(calls) == len(set(calls)) and set(calls) == nodes


def _blowing_up(hamiltonian):
    """The augmented blow-up problem (G = 200 I aborts near t = 8) with a given H."""
    return EvolutionProblem(
        hamiltonian=hamiltonian,
        frame_family=identity_metric_family(),
        grid=np.linspace(0.0, 10.0, 21),
        equation=Equation.AUGMENTED,
        initial_state=np.array([1.0, 0.0]),
        correction=OperatorFamily.constant(200.0 * np.eye(2)),
        substeps=5,
    )


@pytest.mark.parametrize("bad", [9.0, 9.0 + 0.1 + 0.05])
def test_rk4_abort_before_a_failing_node_still_wins(bad):
    # a NaN in H at a later grid point (found by the up-front pass over the
    # interval starts) or at a later interior node (in the same substep block)
    # must not hide the abort the one-point loop reaches first
    assert bad in _nodes(9.0, 9.5, 5)
    zero = np.zeros((2, 2), dtype=complex)
    problem = _blowing_up(OperatorFamily(-1.0, 11.0, lambda t: zero * (math.nan if t == bad else 1.0)))
    err = _same_error(problem, IntegrationAbort)
    assert err.last_good_t < 9.0


def _raising_at(t_bad, value):
    """A callback that returns ``value``, and raises ZeroDivisionError at t_bad."""
    def evaluate(t):
        if t == t_bad:
            raise ZeroDivisionError(f"no value at t={t}")
        return value
    return evaluate


@pytest.mark.parametrize("broken", ["H", "C"])
def test_an_error_other_than_a_value_error_propagates_as_raised(broken):
    # The earliest-point rule covers ValueErrors; a ZeroDivisionError from an H or C callback
    # at one interior grid time leaves build_eigenframe and evolve_state with its type and text.
    grid = np.linspace(0.0, 1.0, 11)
    H = np.diag([1.0, -1.0]).astype(complex)
    ham = OperatorFamily(0.0, 1.0, _raising_at(grid[4], H) if broken == "H" else lambda t: H)
    c_of_t = _raising_at(grid[4], SWAP) if broken == "C" else lambda t: SWAP
    family = FrameFamily(OperatorFamily(0.0, 1.0, c_of_t), SWAP, AntilinearOperator.conjugation(2))
    problem = EvolutionProblem(ham, family, grid, Equation.COMPENSATED, np.array([1.0, 0.0]))
    for call in (lambda: build_eigenframe(ham, family, grid), lambda: evolve_state(problem)):
        with pytest.raises(ZeroDivisionError) as err:
            call()
        assert str(err.value) == f"no value at t={grid[4]}"


def _late_broken_frame():
    """The identity-metric frame family, but with C = 1.5 SWAP at t = 9.5, failing C^2 = I there."""
    return FrameFamily(OperatorFamily(-1.0, 11.0, lambda t: SWAP * (1.5 if t == 9.5 else 1.0)),
                       SWAP, AntilinearOperator.conjugation(2))


def test_rk4_abort_before_a_late_frame_failure_still_wins():
    # the frame grid fails at grid point 9.5, the state overflows near t = 8:
    # evolve_state and evolve_propagator abort there, as the one-point loop does
    augmented = dataclasses.replace(_blowing_up(OperatorFamily.constant(np.zeros((2, 2)))),
                                    frame_family=_late_broken_frame())
    compensated = dataclasses.replace(augmented, equation=Equation.COMPENSATED, correction=None,
                                      hamiltonian=OperatorFamily.constant(200j * np.eye(2)))
    for problem in (augmented, compensated):
        err = _same_error(problem, IntegrationAbort)
        assert str(err).startswith(f"state became non-finite between t={err.last_good_t} and")
        assert err.last_good_t < 9.0
    with pytest.raises(IntegrationAbort) as ref:
        reference_rk4_run(compensated, np.eye(2, dtype=complex))
    with pytest.raises(IntegrationAbort) as got:
        evolve_propagator(compensated)
    assert str(got.value) == str(ref.value)
    assert got.value.last_good_t == ref.value.last_good_t


def test_rk4_stops_at_a_late_frame_failure_in_both_evolve_functions():
    # the compensated generator reads the frame grid, which fails at grid point 19
    # (t = 9.5): the propagator's walk stops there with the frame's error, as the state's does
    problem = EvolutionProblem(
        hamiltonian=OperatorFamily.constant(np.diag([1.0, -1.0])),
        frame_family=_late_broken_frame(),
        grid=np.linspace(0.0, 10.0, 21),
        equation=Equation.COMPENSATED,
        initial_state=np.array([1.0, 0.0]),
        substeps=5,
    )
    for evolve in (evolve_propagator, evolve_state):
        with pytest.raises(FrameAxiomError, match=r"'C\^2 = I' violated: .* at t=9\.5$") as err:
            evolve(problem)
        assert err.value.index == 19


def test_frame_failure_before_a_non_finite_state_wins_in_both_evolve_functions():
    # C fails C^2 = I at the grid point t = 5.0 (index 10); from t = 6 on, H = 1e200j I
    # overflows the state between t = 6.0 and 6.5. The frame grid's failure is the earlier
    # one, so both evolve functions stop the walk at t = 5.0 and raise it.
    c_family = OperatorFamily(-1.0, 11.0, lambda t: SWAP * (1.5 if t == 5.0 else 1.0))
    hamiltonian = OperatorFamily(-1.0, 11.0, lambda t: (1e200j if t >= 6.0 else 0.0) * np.eye(2))
    problem = EvolutionProblem(
        hamiltonian=hamiltonian,
        frame_family=FrameFamily(c_family, SWAP, AntilinearOperator.conjugation(2)),
        grid=np.linspace(0.0, 10.0, 21),
        equation=Equation.COMPENSATED,
        initial_state=np.array([1.0, 0.0]),
        substeps=2,
    )
    for evolve in (evolve_state, evolve_propagator):
        with pytest.raises(FrameAxiomError, match=r"'C\^2 = I' violated: .* at t=5\.0$") as err:
            evolve(problem)
        assert err.value.index == 10


def _frame_broken_at_5(hamiltonian, equation, correction=None):
    """A 21-point problem on [0, 10] whose C fails C^2 = I at the grid point t = 5.0 (index 10)."""
    c_family = OperatorFamily(-1.0, 11.0, lambda t: SWAP * (1.5 if t == 5.0 else 1.0))
    return EvolutionProblem(
        hamiltonian=hamiltonian,
        frame_family=FrameFamily(c_family, SWAP, AntilinearOperator.conjugation(2)),
        grid=np.linspace(0.0, 10.0, 21),
        equation=equation,
        initial_state=np.array([1.0, 0.0]),
        correction=correction,
        substeps=2,
    )


def test_frame_failure_before_a_later_h_failure_wins_in_both_evolve_functions():
    # H is NaN at the grid point t = 8.0, after the frame's failure at t = 5.0: the walk
    # builds the frame grid before H's grid stack, so the frame's failure is raised
    hamiltonian = OperatorFamily(-1.0, 11.0, lambda t: np.eye(2) * (math.nan if t == 8.0 else 1.0))
    problem = _frame_broken_at_5(hamiltonian, Equation.COMPENSATED)
    for evolve in (evolve_state, evolve_propagator):
        with pytest.raises(FrameAxiomError, match=r"'C\^2 = I' violated: .* at t=5\.0$") as err:
            evolve(problem)
        assert err.value.index == 10


@pytest.mark.parametrize("equation", [Equation.SCHRODINGER, Equation.AUGMENTED])
def test_every_equation_stops_its_walk_at_a_frame_failure(equation):
    # The Schrodinger and augmented generators read no C, but their walk reads the frame
    # grid too: a state that would turn non-finite between t = 6.0 and 6.5 is never reached
    hamiltonian = OperatorFamily(-1.0, 11.0, lambda t: (1e200j if t >= 6.0 else 0.0) * np.eye(2))
    correction = OperatorFamily.constant(np.zeros((2, 2))) if equation is Equation.AUGMENTED else None
    with pytest.raises(FrameAxiomError, match=r"'C\^2 = I' violated: .* at t=5\.0$") as err:
        evolve_state(_frame_broken_at_5(hamiltonian, equation, correction))
    assert err.value.index == 10


def test_frame_failure_at_the_last_point_ends_the_walk_without_a_one_point_search():
    # a 2001-point compensated ramp whose C fails C^2 = I at the last grid point only: the
    # walk takes every interval and raises the frame grid's error, with no one-point search
    model = two_level(ScalarFunction.constant(1.0), ScalarFunction.ramp(0.1, 0.18, 0.0, 1.0),
                      0.0, 1.0)
    c_family = model.frame_family.c_family
    sizes = []

    def broken(t):
        sizes.append(np.size(t))
        return c_family.evaluate(t) * np.where(np.asarray(t) == 1.0, 1.5, 1.0)[..., None, None]

    problem = EvolutionProblem(
        hamiltonian=model.hamiltonian,
        frame_family=FrameFamily(
            OperatorFamily(0.0, 1.0, broken, c_family.derivative, vectorized=True),
            model.frame_family.p, model.frame_family.t),
        grid=np.linspace(0.0, 1.0, 2001),
        equation=Equation.COMPENSATED,
        initial_state=np.array([1.0, 0.0]),
        substeps=2,
    )
    for evolve in (evolve_state, evolve_propagator):
        with pytest.raises(FrameAxiomError, match=r"'C\^2 = I' violated: .* at t=1\.0$") as err:
            evolve(problem)
        assert err.value.index == 2000
    # each walk: C on the grid, at the 2000 interval starts, then in the six blocks of 682
    # substeps its 4000 substeps take: a midpoint a substep and an interior end an interval,
    # and in the last block t = 1.0, which the starts' stack left out; no call for one time
    walk = [2001, 2000] + [682 + 341] * 5 + [590 + 295 + 1]
    assert sizes == walk + walk


def _nan_at_one(family, sizes):
    """``family`` as a vectorized family whose value is NaN at t = 1.0 only, recording the
    size of each time array its callback is given."""
    def evaluate(t):
        sizes.append(np.size(t))
        return family.evaluate(t) * np.where(np.asarray(t) == 1.0, np.nan, 1.0)[..., None, None]
    return dataclasses.replace(family, evaluate=evaluate)


def test_a_late_non_finite_c_is_named_from_the_stacks_error():
    # the 2001-point compensated ramp whose vectorized C is NaN only at t = 1.0: each
    # evolve function evaluates C in a few stacks, never once per point
    model = two_level(ScalarFunction.constant(1.0), ScalarFunction.ramp(0.1, 0.18, 0.0, 1.0),
                      0.0, 1.0)
    sizes = []
    problem = EvolutionProblem(
        hamiltonian=model.hamiltonian,
        frame_family=dataclasses.replace(
            model.frame_family, c_family=_nan_at_one(model.frame_family.c_family, sizes)),
        grid=np.linspace(0.0, 1.0, 2001),
        equation=Equation.COMPENSATED,
        initial_state=np.array([1.0, 0.0]),
    )
    messages = []
    for evolve in (evolve_state, evolve_propagator):
        with pytest.raises(NonFiniteError) as err:
            evolve(problem)
        messages.append(str(err.value))
        assert err.value.index in (1999, 2000)  # a grid position: its interval start, or t = 1.0
    assert messages == ["family value at t=1.0 contains non-finite entries"] * 2
    assert len(sizes) <= 20 and min(sizes) > 1


def _failing_at(value, bad, vectorized, name):
    """A family callback giving ``value``, and raising a ValueError naming ``name`` at the
    times in ``bad``; vectorized, it raises on any array that holds one of them."""
    def evaluate(t):
        hit = np.isin(np.asarray(t), list(bad))
        if hit.any():
            raise ValueError(f"{name} fails at t={np.asarray(t)[hit].flat[0]}")
        return value if np.ndim(t) == 0 else np.broadcast_to(value, np.shape(t) + value.shape)
    return OperatorFamily(-1.0, 2.0, evaluate, vectorized=vectorized)


@pytest.mark.parametrize("vectorized", [False, True], ids=["per-point", "vectorized"])
def test_rk4_names_the_node_the_one_point_scheme_fails_first(monkeypatch, vectorized):
    # nodes off the grid, in the one-point order: a substep's midpoint, its end, then the
    # next substep's midpoint; at one node H comes before C and C before its stencil. The
    # block evaluates its nodes in that order, so its failing node is the first the
    # one-point scheme meets, and the walk takes the substeps before it from the same block.
    calls = []
    generators = dynamics._generators
    monkeypatch.setattr(dynamics, "_generators", lambda *args: calls.append(1) or generators(*args))
    grid = np.linspace(0.0, 1.0, 5)
    nsub, k, j = 3, 1, 0
    t0 = grid[k]
    h = (grid[k + 1] - t0) / nsub
    mid, end = t0 + j * h + 0.5 * h, t0 + (j + 1) * h  # substep j's midpoint and end
    after = end + 0.5 * h  # substep j + 1's midpoint
    step = 1e-5  # the differencing step at |t| <= 1
    H = np.diag([1.0, -1.0]).astype(complex)

    def problem(h_bad, c_bad):
        return EvolutionProblem(
            hamiltonian=_failing_at(H, h_bad, vectorized, "H"),
            frame_family=FrameFamily(_failing_at(SWAP, c_bad, vectorized, "C"), SWAP,
                                     AntilinearOperator.conjugation(2)),
            grid=grid, equation=Equation.COMPENSATED, initial_state=np.array([1.0, 0.0]),
            substeps=nsub)

    cases = [
        ({after}, {end}, f"C fails at t={end}"),  # C at substep j's end, before H after it
        ({after}, {end + step}, f"C fails at t={end + step}"),  # C's stencil, from t = end
        ({end}, {mid}, f"C fails at t={mid}"),  # C at the midpoint, before H at the end
        ({mid}, {mid}, f"H fails at t={mid}"),  # the same node: H's error wins
    ]
    for h_bad, c_bad, message in cases:
        calls.clear()
        err = _same_error(problem(h_bad, c_bad))
        assert str(err) == message
        assert err.index == k
        assert len(calls) == 2  # the grid points, the block
        with pytest.raises(ValueError, match=f"^{message}$") as got:
            evolve_propagator(problem(h_bad, c_bad))
        assert got.value.index == k


def test_failed_frame_grid_logs_its_one_sided_derivatives_once(caplog):
    # C is differenced on [0, 1] (one-sided at both ends) and fails C^2 = I at the grid point
    # t = 0.5. The RK4 stops at the failed frame grid's point and raises its error: the
    # grid's warning is logged once, and evolve_propagator raises the same error.
    _, C, P = two_level_matrices(1.0, 0.3)
    c_family = OperatorFamily(0.0, 1.0, lambda t: 1.5 * SWAP if t == 0.5 else C)

    def problem():
        return EvolutionProblem(
            hamiltonian=OperatorFamily.constant(np.diag([1.0, -1.0])),
            frame_family=FrameFamily(c_family, P, AntilinearOperator.conjugation(2)),
            grid=np.linspace(0.0, 1.0, 5), equation=Equation.COMPENSATED,
            initial_state=np.array([1.0, 0.0]), substeps=2)

    with caplog.at_level(logging.WARNING, logger="ptdyn.frames"):
        with pytest.raises(FrameAxiomError, match=r"'C\^2 = I' violated: .* at t=0\.5$"):
            evolve_state(problem())
    assert [r.message for r in caplog.records if r.name == "ptdyn.frames"] == [
        "one-sided derivative at 2 of 5 grid points in [0, 1]"]
    with pytest.raises(FrameAxiomError, match=r"'C\^2 = I' violated: .* at t=0\.5$"):
        evolve_propagator(problem())


def test_rk4_failing_node_after_coarse_steps_logs_as_the_one_point_loop(caplog):
    zero = np.zeros((2, 2), dtype=complex)
    for bad in (3.0, 3.0 + 0.05):
        problem = _blowing_up(OperatorFamily(-1.0, 11.0, lambda t: zero * (math.nan if t == bad else 1.0)))
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            _same_error(problem)
        ref = [r.message for r in caplog.records if r.name == "rk4_reference"]
        got = [r.message for r in caplog.records if r.name == "ptdyn.dynamics"]
        assert ref and got == ref


# ------------------------------------------------ invariants on random turning frames
#
# rotating_frame_model turns a random valid frame of dimension 2-6 by a
# rotation commuting with P; its C(t) is differenced (h = 1e-5, one-sided at
# both ends), and H(t) is metric-Hermitian at every t.


def _turning_problem(seed, dim, omega):
    ham, family = rotating_frame_model(seed, dim, omega)
    x = np.random.default_rng(seed).normal(size=(2, dim))
    return EvolutionProblem(
        hamiltonian=ham,
        frame_family=family,
        grid=np.linspace(0.0, 1.0, 11),
        equation=Equation.COMPENSATED,
        initial_state=x[0] + 1j * x[1],
    )


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6), omega=st.floats(0.1, 2.0))
def test_compensated_drift_rate_is_roundoff_on_turning_frames(seed, dim, omega):
    # The rate <phi|P Cdot phi> - <phi|PC C Cdot phi> vanishes by C^2 = I
    # whatever Cdot is, so only roundoff of its two terms is left. Relative
    # to ||phi||^2 ||Cdot|| (||P|| + ||PC|| ||C||), 60 random draws gave at
    # most 4e-14; 1e-12 leaves a 25x margin.
    problem = _turning_problem(seed, dim, omega)
    traj = evolve_state(problem)
    fg = problem.frame_family.on_grid(problem.grid)
    scale = (np.linalg.norm(traj.states, axis=1) ** 2 * operator_norms(fg.cdot)
             * (operator_norm(fg.p) + operator_norms(fg.metric) * operator_norms(fg.c)))
    assert np.all(np.abs(traj.drift_rates) <= 1e-12 * scale)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6), omega=st.floats(0.1, 2.0))
def test_propagator_is_metric_unitary_on_turning_frames(seed, dim, omega):
    # U(t)^dag PC(t) U(t) = PC(0) holds exactly for the exact Cdot; what is
    # left is the O(h^2) error of the differenced Cdot and the RK4 error.
    # Relative to ||PC(0)||, 60 random draws gave at most 1.2e-8; 1e-6
    # leaves an 80x margin.
    problem = _turning_problem(seed, dim, omega)
    fg = problem.frame_family.on_grid(problem.grid)
    m0 = fg.metric[0]
    for k, (_, U) in enumerate(evolve_propagator(problem)):
        assert operator_norm(U.conj().T @ fg.metric[k] @ U - m0) <= 1e-6 * operator_norm(m0)
