import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import (random_frame_matrices, reference_rk4_run, rotating_frame_model, same_bits,
                     two_level_matrices)
from ptdyn import dynamics
from ptdyn.adiabatic import build_eigenframe, build_report, operator_phase
from ptdyn.dynamics import (
    Equation,
    EvolutionProblem,
    IntegrationAbort,
    effective_generator,
    evolve_propagator,
    evolve_state,
)
from ptdyn.frames import FrameAxiomError, FrameFamily, cpt_norm, validate_frames
from ptdyn.linalg import (AntilinearOperator, OperatorFamily, family_derivatives, operator_norm,
                          operator_norms)
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
    alpha = ScalarFunction.sinusoid(amplitude=0.4, frequency=1.5)  # the model's alpha
    problem = model.problem(np.linspace(0, 1, 5), Equation.COMPENSATED,
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
        problem = model.problem(grid, Equation.COMPENSATED, x0, substeps=substeps)
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
    family = model.frame_family
    grid = np.linspace(0.0, 2.0, 21)
    problem = model.problem(grid, Equation.COMPENSATED, np.array([1.0, 0.0]),
                            substeps=20)
    pairs = evolve_propagator(problem)
    metric0 = family.p @ family.c_family(grid[0])
    for col, e in enumerate(np.eye(2)):
        traj = evolve_state(model.problem(grid, Equation.COMPENSATED, e, substeps=20))
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
    yield two_level.problem(np.linspace(0.0, 1.5, 16), equation, x0,
                            substeps=substeps, correction=correction)
    # hbar != 1: the rate -i/hbar is no longer exactly -i
    yield two_level.problem(np.linspace(0.0, 1.5, 16), equation, x0, hbar=0.37,
                            substeps=substeps, correction=correction)
    constant = build_constant_metric(
        ScalarFunction.sinusoid(amplitude=1.2, frequency=1.3, phase=0.4),
        ScalarFunction.constant(0.8), frozen_frame(), np.linspace(0.0, 3.0, 31))
    correction = (OperatorFamily.constant(np.array([[0.1, 0.2j], [-0.2j, 0.05]]))
                  if equation is Equation.AUGMENTED else None)
    yield constant.problem(np.linspace(0.0, 3.0, 31), equation, x0,
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


# At 2x2 a block holds linalg.STACK_ENTRIES // 12 = 682 substeps, so at 700 a
# block ends inside each of the first two intervals.
@pytest.mark.parametrize("equation", [Equation.SCHRODINGER, Equation.COMPENSATED])
def test_stacked_rk4_bit_identical_across_blocks(equation):
    for problem in _problems(equation, 700):
        _assert_matches_reference(dataclasses.replace(problem, grid=problem.grid[:3]))


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


@pytest.mark.parametrize("hbar", [1.0, 0.37, 2.5, 1e-300])
def test_pair_step_is_the_array_step_bit_for_bit(hbar):
    # random stage matrices and states over 600 decades of scale, so that some
    # substeps overflow: those must turn non-finite in the same components
    rng = np.random.default_rng(11)
    rate = -1j / hbar
    v = np.empty(2, dtype=complex)
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-300, 300, size=(3, 2, 2))
        ga, gb, gc = scale * (rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2)))
        y = 10.0 ** rng.uniform(-300, 300) * (rng.normal(size=2) + 1j * rng.normal(size=2))
        dh = 10.0 ** rng.uniform(-6, 0)
        with np.errstate(over="ignore", invalid="ignore"):
            want = dynamics._rk4_step(rate, ga, gb, gc, y, dh)
            got = np.array(dynamics._rk4_step_pair(v, rate, ga, gb, gc, y.tolist(), dh))
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        assert got[finite].tobytes() == want[finite].tobytes()


def test_rk4_takes_the_pair_step_for_2_vectors_only(monkeypatch):
    calls = []
    for name in ("_rk4_step", "_rk4_step_pair"):
        def counted(*args, _name=name, _step=getattr(dynamics, name)):
            calls.append(_name)
            return _step(*args)
        monkeypatch.setattr(dynamics, name, counted)
    problem = dataclasses.replace(_turning_problem(3, 2, 0.5), substeps=2)
    evolve_state(problem)
    assert calls == ["_rk4_step_pair"] * 20
    calls.clear()
    evolve_propagator(problem)
    assert calls == ["_rk4_step"] * 20
    calls.clear()
    evolve_state(dataclasses.replace(_turning_problem(3, 3, 0.5), substeps=2))
    assert calls == ["_rk4_step"] * 20


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
    """The stage times of one interval, formed as the one-point loop forms them."""
    h = (t1 - t0) / nsub
    starts = [t0 + j * h for j in range(nsub)]
    return set(starts) | {t + 0.5 * h for t in starts} | {t + h for t in starts}


@pytest.mark.parametrize("nsub", [1, 2, 3, 7, 100, 300])
@pytest.mark.parametrize("k", [0, 13, 377])
def test_rk4_evaluates_each_distinct_node_once(k, nsub):
    t0, t1 = np.linspace(0.0, 10.0, 501)[k:k + 2]
    problem, seen = _counting_problem(np.array([t0, t1]), nsub)
    traj = evolve_state(problem)
    assert len(seen) == len(set(seen))
    assert set(seen) == _nodes(t0, t1, nsub)
    assert traj.diagnostics["generator_evaluations"] == len(seen) <= 3 * nsub + 1


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
            gens, _ = dynamics._generators(problem, grid, from_grid)
            assert same_bits(gens, whole)


def test_rk4_evaluation_count_over_a_grid():
    grid = np.linspace(0.0, 10.0, 51)
    problem, seen = _counting_problem(grid, 100)
    traj = evolve_state(problem)
    # a grid point is evaluated again only when the last node before it rounds off it
    nodes = set().union(*(_nodes(t0, t1, 100) for t0, t1 in zip(grid[:-1], grid[1:])))
    assert len(seen) == len(set(seen)) == len(nodes)
    assert set(seen) == nodes
    assert traj.diagnostics["generator_evaluations"] == len(seen) <= 1 + 3 * 100 * 50
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


def _overshooting_interval():
    """An interval and substep count whose last node t0 + (n-1)h + h rounds past t1."""
    grid = np.linspace(0.0, 1.0, 11)
    for t0, t1 in zip(grid[:-1], grid[1:]):
        for n in range(1, 40):
            h = (t1 - t0) / n
            if t0 + (n - 1) * h + h > t1:
                return t0, t1, n
    raise AssertionError("no interval overshoots")


def test_rk4_out_of_domain_node_raises_the_same_error():
    problem, _ = _counting_problem(np.linspace(0.0, 1.0, 5), 3, domain=(0.0, 0.55))
    assert "outside family domain" in str(_same_error(problem))
    # a domain ending at t1 rejects the last node when it rounds past t1
    t0, t1, nsub = _overshooting_interval()
    problem, _ = _counting_problem(np.array([t0, t1]), nsub, domain=(t0, t1))
    assert "outside family domain" in str(_same_error(problem))


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
    nodes = set(grid).union(*(_nodes(t0, t1, 3) for t0, t1 in zip(grid[:-1], grid[1:])))
    # 5 nodes an interval besides its start, and 2 ends that round off the grid point
    assert len(nodes) == grid.size + 5 * (grid.size - 1) + 2
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


def test_rk4_integrates_past_a_late_frame_failure_as_the_one_point_loop():
    # the propagator reads no frame grid: with C failing at t = 9.5 it is the
    # one-point loop's, bit for bit; evolve_state then raises the frame's error
    problem = EvolutionProblem(
        hamiltonian=OperatorFamily.constant(np.diag([1.0, -1.0])),
        frame_family=_late_broken_frame(),
        grid=np.linspace(0.0, 10.0, 21),
        equation=Equation.COMPENSATED,
        initial_state=np.array([1.0, 0.0]),
        substeps=5,
    )
    ref, _ = reference_rk4_run(problem, np.eye(2, dtype=complex))
    got = evolve_propagator(problem)
    assert len(got) == len(ref) and all(np.array_equal(u, v) for (_, u), v in zip(got, ref))
    with pytest.raises(FrameAxiomError, match=r"'C\^2 = I' violated: .* at t=9\.5$"):
        evolve_state(problem)


def test_failed_frame_grid_logs_its_one_sided_derivatives_once(caplog):
    # C is differenced on [0, 1] (one-sided at both ends) and fails C^2 = I at the grid point
    # t = 0.5. The RK4 integrates past the failed frame grid, and evolve_state then raises
    # its error: the grid's warning is logged once, not again for the second request.
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
    assert len(evolve_propagator(problem())) == 5


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
