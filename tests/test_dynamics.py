import logging
import math

import numpy as np
import pytest

from helpers import two_level_matrices
from ptdyn.dynamics import (
    Equation,
    EvolutionProblem,
    IntegrationAbort,
    effective_generator,
    evolve_propagator,
    evolve_state,
    norm_drift_rate,
)
from ptdyn.frames import FrameFamily, cpt_norm, validate_frames
from ptdyn.linalg import AntilinearOperator, OperatorFamily, matrix_exp, operator_norm
from ptdyn.models import ScalarFunction, TwoLevelModel, build_two_level

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def identity_metric_family():
    frame = validate_frames(SWAP, SWAP, AntilinearOperator.conjugation(2))
    return FrameFamily.constant(frame)


def two_level_model(s_val=1.0, amp=0.5, freq=2.0):
    s = ScalarFunction.constant(s_val)
    alpha = ScalarFunction.sinusoid(amplitude=amp, frequency=freq)
    return TwoLevelModel(s=s, alpha=alpha, t_start=-100.0, t_end=100.0)


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
    family = model.frame_family()
    grid = np.linspace(0, 1, 5)
    x0 = np.array([1.0, 0.0])

    def G(t):
        return -0.5 * family.c_at(t) @ family.cdot_at(t)

    augmented = model.problem(grid, Equation.AUGMENTED, x0,
                              correction=OperatorFamily(-100, 100, G))
    compensated = model.problem(grid, Equation.COMPENSATED, x0)
    for t in np.linspace(0, 1, 7):
        ga = effective_generator(augmented, t)
        gc = effective_generator(compensated, t)
        assert operator_norm(ga - gc) <= 1e-12


def test_generator_compensated_correction_term():
    # -(i/2) C Cdot with Cdot = alpha' (tan(a) C + i diag(1,-1))
    model = two_level_model(amp=0.4, freq=1.5)
    problem = model.problem(np.linspace(0, 1, 5), Equation.COMPENSATED,
                            np.array([1.0, 0.0]))
    t = 0.6
    a = model.alpha(t)
    ad = model.alpha.dfn(t)
    _, C, _ = two_level_matrices(1.0, a)
    Cdot = ad * (math.tan(a) * C + 1j * np.diag([1.0, -1.0]))
    expected = model.hamiltonian()(t) - 0.5j * (C @ Cdot)
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
        expected = matrix_exp(-1j * t * H) @ x0
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
        problem = model.problem(grid, Equation.COMPENSATED, x0, substeps=substeps)
        drifts[substeps] = evolve_state(problem).max_norm_drift
    assert drifts[2] <= 1e-6
    ratio = drifts[2] / drifts[4]
    assert 10.0 <= ratio <= 22.0


def test_augmented_with_matching_g_reproduces_compensated_run():
    model = two_level_model()
    family = model.frame_family()
    grid = np.linspace(0.0, 1.5, 16)
    x0 = np.array([0.3, 1.0])

    def G(t):
        return -0.5 * family.c_at(t) @ family.cdot_at(t)

    t_aug = evolve_state(model.problem(grid, Equation.AUGMENTED, x0,
                                       correction=OperatorFamily(-100, 100, G)))
    t_comp = evolve_state(model.problem(grid, Equation.COMPENSATED, x0))
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
    family = model.frame_family()
    grid = np.linspace(0.0, 2.0, 21)
    problem = model.problem(grid, Equation.COMPENSATED, np.array([1.0, 0.0]),
                            substeps=20)
    pairs = evolve_propagator(problem)
    metric0 = family.metric_at(grid[0])
    for col, e in enumerate(np.eye(2)):
        traj = evolve_state(model.problem(grid, Equation.COMPENSATED, e, substeps=20))
        for (t, U), state in zip(pairs, traj.states):
            assert np.linalg.norm(U[:, col] - state) <= 1e-8
    for t, U in pairs:
        metric_t = family.metric_at(t)
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


# -------------------------------------------------------------- norm_drift_rate

def test_drift_rate_zero_for_static_metric():
    problem = EvolutionProblem(
        hamiltonian=OperatorFamily.constant(np.eye(2)),
        frame_family=identity_metric_family(),
        grid=np.linspace(0.0, 1.0, 3),
        equation=Equation.SCHRODINGER,
        initial_state=np.array([1.0, 0.0]),
    )
    assert norm_drift_rate(problem, np.array([1.0, 2.0j]), 0.5) == pytest.approx(0.0, abs=1e-14)


def test_drift_rate_compensated_residual_is_tiny():
    model = two_level_model(amp=0.8, freq=2.5)
    grid = np.linspace(0.0, 2.0, 31)
    problem = model.problem(grid, Equation.COMPENSATED, np.array([1.0, 0.2j]))
    traj = evolve_state(problem)
    assert np.max(np.abs(traj.drift_rates)) <= 1e-10


def test_drift_rate_matches_norm_derivative():
    # plain equation with a moving metric: drift rate == d/dt of the squared
    # frame norm, checked against centered differences at two resolutions
    model = two_level_model(amp=0.5, freq=2.0)
    errors = {}
    for npts in (401, 801):
        grid = np.linspace(0.0, 2.0, npts)
        problem = model.problem(grid, Equation.SCHRODINGER,
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
    problem = model.problem(grid, Equation.SCHRODINGER, np.array([1.0, 0.0]))
    traj = evolve_state(problem)
    assert np.max(np.abs(traj.drift_rates)) > 1e-3
