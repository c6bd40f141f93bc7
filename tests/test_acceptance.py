"""Acceptance suite: one test per shipping criterion, at stated tolerances.

The terminal summary (see conftest) prints one PASS/FAIL line per test here.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from helpers import two_level_eigenvector, two_level_matrices
from ptdyn.adiabatic import (
    adiabatic_bound,
    build_eigenframe,
    build_report,
    gauge_fix,
    operator_phase,
)
from ptdyn.dynamics import Equation, EvolutionProblem, evolve_propagator, evolve_state
from ptdyn.frames import (
    FrameFamily,
    cpt_inner,
    cpt_norm,
    norm_equivalence_bounds,
    validate_frames,
)
from ptdyn.linalg import AntilinearOperator, OperatorFamily, eigenpairs_stack, operator_norm
from ptdyn.models import ScalarFunction, build_constant_metric, build_two_level, two_level

from helpers import random_frame_matrices


REFERENCE_S = ScalarFunction(lambda t: 1.0 + 0.5 * t, lambda t: 0.5)
REFERENCE_ALPHA = ScalarFunction.sinusoid(amplitude=math.pi / 6, frequency=1.0)


def reference_two_level():
    """s(t) = 1 + t/2, alpha(t) = (pi/6) sin t on [0, 1], 100 points."""
    grid = np.linspace(0.0, 1.0, 100)
    model = build_two_level(REFERENCE_S, REFERENCE_ALPHA, grid)
    return model, grid


def test_a01_two_level_spectrum_oracle():
    model, grid = reference_two_level()
    ham = model.hamiltonian
    start = time.monotonic()
    for t in grid:
        lams = eigenpairs_stack(ham(t)[None])[0][0]
        s, a = REFERENCE_S(t), REFERENCE_ALPHA(t)
        assert abs(lams[0] - 0.0) <= 1e-10
        assert abs(lams[1] - 2.0 * s * math.cos(a)) <= 1e-10
    assert time.monotonic() - start < 1.0


def test_a02_two_level_frame_axioms():
    model, grid = reference_two_level()
    family = model.frame_family
    for t in grid:
        frame = family.frame_at(t)
        assert frame.residuals["C^2 = I"] <= 1e-12
        assert frame.residuals["CPT = TPC"] <= 1e-12
        a = REFERENCE_ALPHA(t)
        floor = (1.0 - math.sin(a)) / math.cos(a) - 1e-12
        assert frame.metric_eigenvalues[0] >= floor


def test_a03_metric_orthonormality_rescaling():
    model, grid = reference_two_level()
    family = model.frame_family
    for t in grid:
        frame = family.frame_at(t)
        a = REFERENCE_ALPHA(t)
        rescaled = [two_level_eigenvector(n, a) for n in (0, 1)]
        for i in (0, 1):
            for j in (0, 1):
                ip = cpt_inner(frame, rescaled[i], rescaled[j])
                assert abs(ip - (1.0 if i == j else 0.0)) <= 1e-10
        for n in (0, 1):
            plain = two_level_eigenvector(n, a, metric=False)
            ip = cpt_inner(frame, plain, plain)
            assert abs(ip - math.cos(a)) <= 1e-10


def test_a04_static_metric_norm_conservation():
    # plain equation over a frozen frame, t in [0, 10], 10^4 total substeps
    _, C, P = two_level_matrices(1.0, math.pi / 3)
    frame = validate_frames(C, P, AntilinearOperator.conjugation(2))
    grid = np.linspace(0.0, 10.0, 101)
    model = build_constant_metric(
        ScalarFunction.sinusoid(amplitude=1.0, frequency=1.0),  # a(t) = sin t
        ScalarFunction.constant(1.0),
        frame, grid,
    )
    eframe = build_eigenframe(model.hamiltonian, model.frame_family, grid)
    problem = EvolutionProblem(model.hamiltonian, model.frame_family,
                               grid, Equation.SCHRODINGER, eframe.states[0, 0],
                               substeps=100)
    traj = evolve_state(problem)
    assert traj.max_norm_drift <= 1e-8
    assert np.max(np.abs(traj.drift_rates)) <= 1e-10


def test_a05_compensated_norm_conservation_convergence():
    model = two_level(
        s=ScalarFunction.constant(1.0),
        alpha=ScalarFunction.sinusoid(amplitude=0.9, frequency=2.0),
        t_start=-10.0, t_end=10.0,
    )
    grid = np.linspace(0.0, 2.0, 41)
    x0 = np.array([1.0, 0.5j])
    drift = {}
    for substeps in (2, 4):
        traj = evolve_state(EvolutionProblem(model.hamiltonian, model.frame_family,
                                             grid, Equation.COMPENSATED, x0,
                                             substeps=substeps))
        drift[substeps] = traj.max_norm_drift
    assert drift[2] <= 1e-6
    assert 10.0 <= drift[2] / drift[4] <= 22.0


def test_a06_propagator_metric_unitarity():
    model = two_level(
        s=ScalarFunction.constant(1.0),
        alpha=ScalarFunction.sinusoid(amplitude=0.7, frequency=1.3),
        t_start=-10.0, t_end=10.0,
    )
    family = model.frame_family
    grid = np.linspace(0.0, 2.0, 21)
    problem = EvolutionProblem(model.hamiltonian, model.frame_family,
                               grid, Equation.COMPENSATED, np.array([1.0, 0.0]),
                               substeps=20)
    pairs = evolve_propagator(problem)
    metric0 = family.p @ family.c_family(grid[0])
    for t, U in pairs:
        assert operator_norm(U.conj().T @ family.p @ family.c_family(t) @ U - metric0) <= 1e-7
    for col, e in enumerate(np.eye(2)):
        traj = evolve_state(EvolutionProblem(model.hamiltonian, model.frame_family,
                                             grid, Equation.COMPENSATED, e, substeps=20))
        for (t, U), state in zip(pairs, traj.states):
            assert np.linalg.norm(U[:, col] - state) <= 1e-8


def test_a07_commuting_rotation_equivalence():
    # H = a(t) I + b(t) C over a frozen frame: [A, H] = 0 and the rotated
    # level solves the compensated equation exactly when the bare level
    # solves the plain one; the two substitution residuals agree
    _, C, P = two_level_matrices(1.0, math.pi / 3)
    frame = validate_frames(C, P, AntilinearOperator.conjugation(2))
    a = ScalarFunction.sinusoid(amplitude=0.8, frequency=1.0, offset=0.5)
    b = ScalarFunction.sinusoid(amplitude=0.3, frequency=0.7, offset=1.0)
    eye = np.eye(2, dtype=complex)

    def H(t):
        return a(t) * eye + b(t) * frame.c

    grid = np.linspace(0.0, 2.0, 2001)
    family = FrameFamily.constant(frame)
    ham = OperatorFamily(-10.0, 10.0, H)
    eframe = build_eigenframe(ham, family, grid)
    A, comm = operator_phase(ham, family, eframe, 0)
    assert np.max(comm) <= 1e-10

    psi = eframe.states[:, 0, :]
    rotated = np.array([expm(1j * A[k]) @ psi[k] for k in range(grid.size)])
    d_rot = np.gradient(rotated, grid, axis=0, edge_order=2)
    d_psi = np.gradient(psi, grid, axis=0, edge_order=2)
    for k, t in enumerate(grid[2:-2], start=2):
        Ht = ham(t)
        r_comp = np.linalg.norm(1j * d_rot[k] - Ht @ rotated[k])
        r_plain = np.linalg.norm(1j * d_psi[k] - Ht @ psi[k])
        assert abs(r_comp - r_plain) <= 1e-6


@pytest.mark.parametrize("epsilon", [0.5, 0.3, 0.1])
def test_a08_adiabatic_bound_chain(epsilon):
    # ramp with total angle excursion 0.16 * epsilon < epsilon / 6;
    # the bound chain gives V(T) <= 6 * excursion < epsilon
    excursion = 0.16 * epsilon
    grid = np.linspace(0.0, 1.0, 201)
    model = build_two_level(
        ScalarFunction.constant(1.0),
        ScalarFunction.ramp(0.1, 0.1 + excursion, 0.0, 1.0),
        grid,
    )
    start = time.monotonic()
    family = model.frame_family
    eframe = build_eigenframe(model.hamiltonian, family, grid)
    problem = EvolutionProblem(model.hamiltonian, model.frame_family,
                               grid, Equation.COMPENSATED, eframe.states[0, 0])
    traj = evolve_state(problem)
    report = build_report(eframe, family, traj, 0, epsilon=epsilon)
    elapsed = time.monotonic() - start

    assert report.bound < 6.0 * excursion
    if epsilon == 0.5:
        assert excursion == pytest.approx(0.08)
        assert report.bound < 0.48
    assert report.bound < epsilon
    assert report.max_fidelity_loss < epsilon
    assert report.bound_satisfied
    assert elapsed < 10.0


def test_a09_norm_sandwich(rng):
    frames = []
    for alpha in (0.0, 0.4, math.pi / 4, math.pi / 3):
        _, C, P = two_level_matrices(1.0, alpha)
        frames.append(validate_frames(C, P, AntilinearOperator.conjugation(2)))
    for dim in (3, 4, 5):
        C, P, K = random_frame_matrices(rng, dim)
        frames.append(validate_frames(C, P, AntilinearOperator(K)))
    for frame in frames:
        lower, upper = norm_equivalence_bounds(frame)
        for _ in range(1000):
            x = rng.normal(size=frame.dim) + 1j * rng.normal(size=frame.dim)
            n2 = np.linalg.norm(x)
            nf = cpt_norm(frame, x)
            assert lower * n2 <= nf + 1e-12
            assert nf <= upper * n2 + 1e-12


def test_a10_parallel_transport_gauge(rng):
    X0 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    X1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    H0, H1 = 0.5 * (X0 + X0.conj().T), 0.5 * (X1 + X1.conj().T)

    def H(t):
        return H0 + 0.3 * math.sin(2.0 * t) * H1

    eye = np.eye(3, dtype=complex)
    frame = validate_frames(eye, eye, AntilinearOperator.conjugation(3))
    family = FrameFamily.constant(frame)
    grid = np.linspace(0.0, 1.0, 8001)
    eframe = build_eigenframe(OperatorFamily(-10.0, 10.0, H), family, grid)
    fixed = gauge_fix(eframe, family)
    for n in range(3):
        dstates = np.gradient(fixed.states[:, n, :], grid, axis=0, edge_order=2)
        conn = np.einsum("ki,kij,kj->k", fixed.states[:, n, :].conj(),
                         fixed.metrics, dstates)
        assert np.max(np.abs(conn)) <= 1e-8
