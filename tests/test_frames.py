import dataclasses
import logging
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import (LAPACK_MARK, RESIDUAL_MARK, random_frame_matrices, reference_frame_residuals,
                     reference_symmetry_report, rotating_frame_model, scripted_eig, two_level_matrices,
                     unbroken_model_matrices)
from ptdyn import frames, linalg
from ptdyn.cli import build_model
from ptdyn.config import load_config
from ptdyn.frames import (
    FrameAxiomError,
    FrameFamily,
    FrameGrid,
    cpt_adjoint,
    cpt_inner,
    cpt_norm,
    norm_equivalence_bounds,
    symmetry_report,
    validate_frames,
)
from ptdyn.linalg import AntilinearOperator, ConvergenceError, OperatorFamily, operator_norm

SQRT3 = math.sqrt(3.0)
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def conjugation(dim=2):
    return AntilinearOperator.conjugation(dim)


def two_level_frame(alpha, s=1.0):
    _, C, P = two_level_matrices(s, alpha)
    return validate_frames(C, P, conjugation())


def euclidean_eigvecs(alpha):
    """Unit-2-norm eigenvectors of the two-level Hamiltonian."""
    u, w = np.exp(-0.5j * alpha), np.exp(0.5j * alpha)
    psi1 = np.array([u, -w]) / math.sqrt(2.0)
    psi2 = np.array([w, u]) / math.sqrt(2.0)
    return psi1, psi2


# ------------------------------------------------------------ validate_frames

def test_validate_swap_frame_gives_identity_metric():
    frame = validate_frames(SWAP, SWAP, conjugation())
    assert np.allclose(frame.metric, np.eye(2))
    x = np.array([1.0 + 1j, 2.0])
    y = np.array([0.5, -1j])
    assert cpt_inner(frame, x, y) == pytest.approx(np.vdot(x, y))


def test_validate_two_level_frame():
    frame = two_level_frame(math.pi / 3)
    assert frame.metric_eigenvalues[0] == pytest.approx(2.0 - SQRT3, abs=1e-12)
    assert frame.metric_eigenvalues[1] == pytest.approx(2.0 + SQRT3, abs=1e-12)
    assert np.allclose(frame.c @ frame.p @ frame.metric, np.eye(2), atol=1e-12)


def test_validate_rejects_indefinite_metric():
    # C = I, P = swap: the metric is the swap matrix with eigenvalue -1
    with pytest.raises(FrameAxiomError, match="positive"):
        validate_frames(np.eye(2), SWAP, conjugation())


def test_validate_rejects_each_axiom_distinctly():
    with pytest.raises(FrameAxiomError, match="C\\^2 = I"):
        validate_frames(2.0 * np.eye(2), SWAP, conjugation())
    with pytest.raises(FrameAxiomError, match="P\\^2 = I"):
        validate_frames(SWAP, np.array([[1.0, 1.0], [0.0, 1.0]]), conjugation())
    with pytest.raises(FrameAxiomError, match="T\\^2 = I"):
        validate_frames(SWAP, SWAP, AntilinearOperator(np.array([[1.0, 1.0], [0.0, 1.0]])))
    with pytest.raises(FrameAxiomError, match="PT = TP"):
        validate_frames(SWAP, SWAP, AntilinearOperator(np.diag([1.0, -1.0])))
    with pytest.raises(FrameAxiomError, match="CPT = TPC"):
        validate_frames(np.diag([1.0, -1.0]), SWAP, conjugation())
    # commuting real involutions with a non-symmetric product
    C = np.array([[1.0, 2.0], [0.0, -1.0]])
    with pytest.raises(FrameAxiomError, match="metric Hermitian"):
        validate_frames(C, np.eye(2), conjugation())


def test_validate_rejects_an_overflowing_involution():
    # P^2 overflows to inf, and P^2 - I has a NaN residual: the axiom fails, not passes
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FrameAxiomError, match="P\\^2 = I.*residual nan"):
        validate_frames(SWAP, 1e200 * SWAP, conjugation())


def test_validation_error_reports_residual():
    with pytest.raises(FrameAxiomError, match="residual"):
        validate_frames(2.0 * np.eye(2), SWAP, conjugation())


def test_residuals_recorded_on_frame():
    frame = two_level_frame(math.pi / 4)
    assert set(frame.residuals) >= {"C^2 = I", "CPT = TPC", "metric Hermitian"}
    assert frame.residuals["C^2 = I"] <= 1e-12


def test_phase_twisted_conjugation_is_valid():
    # T = e^{i theta} * conjugation commutes with the swap P and squares to I
    _, C, P = two_level_matrices(1.0, 0.5)
    K = np.exp(0.3j) * np.eye(2)
    frame = validate_frames(C, P, AntilinearOperator(K))
    assert np.allclose(frame.metric, P @ C)


def test_validate_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        validate_frames(np.eye(3), SWAP, conjugation())


# -------------------------------------------------------------- inner product

def test_cpt_inner_two_level_orthogonality():
    for alpha in (0.0, 0.3, math.pi / 4, math.pi / 3):
        frame = two_level_frame(alpha)
        psi1, psi2 = euclidean_eigvecs(alpha)
        assert abs(cpt_inner(frame, psi1, psi2)) < 1e-12
        # unit-2-norm vectors carry squared frame norm cos(alpha)
        assert cpt_inner(frame, psi1, psi1).real == pytest.approx(math.cos(alpha), abs=1e-12)
        assert cpt_inner(frame, psi2, psi2).real == pytest.approx(math.cos(alpha), abs=1e-12)


def test_cpt_inner_conjugate_symmetric_and_positive(rng):
    for dim in (2, 3, 4, 5):
        C, P, K = random_frame_matrices(rng, dim)
        frame = validate_frames(C, P, AntilinearOperator(K))
        for _ in range(20):
            x = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            y = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            ip = cpt_inner(frame, x, y)
            assert abs(ip - np.conj(cpt_inner(frame, y, x))) <= 1e-12 * max(1.0, abs(ip))
            assert cpt_inner(frame, x, x).real > 0.0
        assert cpt_norm(frame, np.zeros(dim)) == 0.0


def test_cpt_inner_dim_mismatch():
    frame = two_level_frame(0.4)
    with pytest.raises(ValueError):
        cpt_inner(frame, np.ones(3), np.ones(2))


# ------------------------------------------------------------------- adjoint

def test_cpt_adjoint_of_metric_is_metric():
    frame = two_level_frame(math.pi / 3)
    assert np.allclose(cpt_adjoint(frame, frame.metric), frame.metric, atol=1e-12)


def test_cpt_adjoint_reduces_to_dagger_for_identity_metric(rng):
    frame = validate_frames(SWAP, SWAP, conjugation())
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.allclose(cpt_adjoint(frame, A), A.conj().T)


def test_two_level_hamiltonian_is_metric_hermitian():
    for s in (0.5, 1.0, 2.5):
        for alpha in (0.0, 0.4, math.pi / 3):
            H, C, P = two_level_matrices(s, alpha)
            frame = validate_frames(C, P, conjugation())
            assert np.allclose(cpt_adjoint(frame, H), H, atol=1e-12)
            assert operator_norm(H.conj().T @ frame.metric - frame.metric @ H) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_cpt_adjoint_involution_and_defining_property(dim, seed):
    gen = np.random.default_rng(seed)
    C, P, K = random_frame_matrices(gen, dim)
    frame = validate_frames(C, P, AntilinearOperator(K))
    A = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    Astar = cpt_adjoint(frame, A)
    assert operator_norm(cpt_adjoint(frame, Astar) - A) <= 1e-10 * max(1.0, operator_norm(A))
    for _ in range(5):
        x = gen.normal(size=dim) + 1j * gen.normal(size=dim)
        y = gen.normal(size=dim) + 1j * gen.normal(size=dim)
        lhs = cpt_inner(frame, A @ x, y)
        rhs = cpt_inner(frame, x, Astar @ y)
        bound = 1e-10 * operator_norm(A) * np.linalg.norm(x) * np.linalg.norm(y)
        assert abs(lhs - rhs) <= max(bound, 1e-12)


# ------------------------------------------------------------ symmetry report

def test_symmetry_report_metric_commuting_hamiltonian():
    # H = a I + b C commutes with C and is PT-symmetric for real a, b
    frame = two_level_frame(math.pi / 3)
    for a, b in ((0.0, 1.0), (2.0, -0.7), (1.5, 0.25)):
        H = a * np.eye(2) + b * frame.c
        rep = symmetry_report(frame, H)
        assert rep.pt_symmetric and rep.cpt_hermitian and rep.unbroken
        assert rep.eigen_realness <= 1e-10


def test_symmetry_report_two_level_hamiltonian():
    H, C, P = two_level_matrices(1.3, 0.9)
    frame = validate_frames(C, P, conjugation())
    rep = symmetry_report(frame, H)
    assert rep.pt_symmetric and rep.cpt_hermitian and rep.unbroken
    assert rep.eigen_realness <= 1e-12


def test_symmetry_report_broken_pair():
    # H = diag(i, -i) commutes with PT but its eigenvectors swap under PT
    frame = validate_frames(SWAP, SWAP, conjugation())
    H = np.diag([1j, -1j])
    rep = symmetry_report(frame, H)
    assert rep.pt_symmetric
    assert not rep.unbroken
    assert rep.eigen_realness == pytest.approx(1.0)


def test_symmetry_report_degenerate_identity(caplog):
    import logging

    frame = validate_frames(SWAP, SWAP, conjugation())
    with caplog.at_level(logging.INFO, logger="ptdyn.frames"):
        rep = symmetry_report(frame, np.eye(2))
    assert rep.pt_symmetric and rep.unbroken
    assert any("degenerate" in rec.message for rec in caplog.records)


def test_symmetry_report_generic_matrix_fails():
    frame = validate_frames(SWAP, SWAP, conjugation())
    H = np.array([[1.0, 2.0j], [0.0, 3.0]])
    rep = symmetry_report(frame, H)
    assert not rep.pt_symmetric


# ----------------------------------------------------- norm equivalence bounds

def test_norm_equivalence_identity():
    frame = validate_frames(SWAP, SWAP, conjugation())
    assert norm_equivalence_bounds(frame) == pytest.approx((1.0, 1.0))


def test_norm_equivalence_two_level():
    frame = two_level_frame(math.pi / 3)
    lower, upper = norm_equivalence_bounds(frame)
    assert lower == pytest.approx((2.0 + SQRT3) ** -0.5, abs=1e-12)
    assert upper == pytest.approx((2.0 + SQRT3) ** 0.5, abs=1e-12)


def _sandwich_frames(rng):
    """Random block frames, then frames turned by a P-commuting rotation, dims 2-6."""
    for dim in (2, 3, 5):
        C, P, K = random_frame_matrices(rng, dim)
        yield validate_frames(C, P, AntilinearOperator(K))
    for seed in range(2):
        for dim in range(2, 7):
            family = rotating_frame_model(seed, dim)[1]
            for t in (0.0, 0.25, 0.5, 1.0):
                yield family.frame_at(t)


def test_norm_equivalence_sandwich_property(rng):
    for frame in _sandwich_frames(rng):
        dim = frame.dim
        lower, upper = norm_equivalence_bounds(frame)
        for _ in range(200):
            x = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            n2 = np.linalg.norm(x)
            nf = cpt_norm(frame, x)
            assert lower * n2 <= nf + 1e-12
            assert nf <= upper * n2 + 1e-12


# ----------------------------------------------------------------- FrameFamily

def test_frame_family_validates_pointwise():
    def C_of_t(t):
        return two_level_matrices(1.0, 0.2 + 0.1 * t)[1]

    fam = FrameFamily(OperatorFamily(0.0, 1.0, C_of_t), SWAP, conjugation())
    frame = fam.frame_at(0.5)
    assert np.allclose(frame.metric, fam.p @ fam.c_family(0.5))
    # a frame family whose C stops being an involution must fail loudly
    bad = FrameFamily(OperatorFamily(0.0, 1.0, lambda t: (1 + t) * SWAP), SWAP, conjugation())
    with pytest.raises(FrameAxiomError):
        bad.frame_at(0.5)


def test_two_level_c_eigenvectors():
    # C psi1 = -psi1 and C psi2 = +psi2 pointwise
    for alpha in (0.1, 0.7, math.pi / 3):
        frame = two_level_frame(alpha)
        psi1, psi2 = euclidean_eigvecs(alpha)
        assert np.linalg.norm(frame.c @ psi1 + psi1) <= 1e-12
        assert np.linalg.norm(frame.c @ psi2 - psi2) <= 1e-12


# ------------------------------------------------------------------- FrameGrid

# C(t) grows by 1 + DRIFT t: a C^2 = I residual of about 2 DRIFT t, inside
# the 1e-10 tolerance, so the worst residual sits at the last point.
DRIFT = 2e-11


def rotating_frame_family(seed, dim, omega, broken_at=None, break_kind="scale"):
    """Random valid frame whose C(t) = R(t) C0 R(t)^T turns with a rotation R commuting with P.

    R(t) = exp(omega t A) with A real antisymmetric and AP = PA, so every
    C(t) is a valid frame with the fixed P and T = conjugation (up to the
    DRIFT growth). At t == broken_at the returned C is broken instead
    ("scale": C^2 != I, "negate": -C, whose metric is negative definite).
    """
    rng = np.random.default_rng(seed)
    C0, P, K = random_frame_matrices(rng, dim)
    X = rng.normal(size=(dim, dim))
    A = X - X.T
    A = A + P.real @ A @ P.real  # antisymmetric and commuting with P

    def c_of_t(t):
        R = expm(omega * t * A)
        C = (1.0 + DRIFT * t) * (R @ C0 @ R.T)
        if t == broken_at:
            return 1.5 * C if break_kind == "scale" else -C
        return C

    def cdot_of_t(t):
        C = c_of_t(t)
        return omega * (A @ C - C @ A) + DRIFT / (1.0 + DRIFT * t) * C

    fam = FrameFamily(OperatorFamily(0.0, 1.0, c_of_t, cdot_of_t), P, AntilinearOperator(K))
    return fam, c_of_t


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6), omega=st.floats(0.1, 3.0))
def test_frame_grid_matches_pointwise_validation(seed, dim, omega):
    grid = np.linspace(0.0, 1.0, 9)
    fam, c_of_t = rotating_frame_family(seed, dim, omega)
    fg = fam.on_grid(grid)
    frames = [validate_frames(c_of_t(t), fam.p, fam.t) for t in grid]
    for axiom, value in fg.residuals.items():
        pointwise = [f.residuals[axiom] for f in frames]
        expected = min(pointwise) if axiom == "metric min eigenvalue" else max(pointwise)
        assert value == pytest.approx(expected, abs=1e-12), axiom
    assert fg.residuals["C^2 = I"] > DRIFT  # the worst point, not the first
    for k, frame in enumerate(frames):
        assert np.allclose(fg.metric_eigenvalues[k], frame.metric_eigenvalues, rtol=0, atol=1e-12)
        assert np.allclose(fg.metric[k], frame.metric, rtol=0, atol=1e-12)
        assert np.allclose(fg.c[k], frame.c, rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6), omega=st.floats(0.1, 3.0),
       bad=st.integers(0, 8), kind=st.sampled_from(["scale", "negate"]))
def test_frame_grid_names_the_axiom_and_time_of_a_broken_point(seed, dim, omega, bad, kind):
    grid = np.linspace(0.0, 1.0, 9)
    fam, c_of_t = rotating_frame_family(seed, dim, omega, broken_at=grid[bad], break_kind=kind)
    with pytest.raises(FrameAxiomError) as pointwise:
        validate_frames(c_of_t(grid[bad]), fam.p, fam.t)
    with pytest.raises(FrameAxiomError) as batched:
        fam.on_grid(grid)
    # the grid's error comes from its own stacked norms, and reads as the one-point error
    assert batched.value.axiom == pointwise.value.axiom
    assert str(batched.value) == f"{pointwise.value} at t={grid[bad]}"


# C matrices that fail one C-dependent check against P = SWAP and plain conjugation, and pass
# every check before it.
BROKEN_C = {
    "C^2 = I": 1.5 * SWAP,
    "CPT = TPC": np.diag([1.0, -1.0]),
    "metric Hermitian": np.array([[0.0, 1j], [-1j, 0.0]]),  # PC = i diag(1, -1)
    "metric positive definite": -SWAP,
}


def _broken_at(t_bad, axiom):
    """The identity-metric frame family, but with C failing ``axiom`` at t_bad only."""
    bad = BROKEN_C[axiom].astype(complex)
    return FrameFamily(OperatorFamily(0.0, 1.0, lambda t: bad if t == t_bad else SWAP),
                       SWAP, conjugation())


@pytest.mark.parametrize("per_check", [None, 2], ids=["one-stack", "two-per-stack"])
@pytest.mark.parametrize("axiom", list(BROKEN_C))
def test_frame_grid_raises_the_one_point_error_of_its_first_failing_point(monkeypatch, axiom,
                                                                          per_check):
    # C fails at the interior time t_6 only: on_grid raises what validate_frames raises for
    # C(t_6), followed by " at t=t_6". With two points per stacked check, t_6 is in the fourth.
    if per_check:
        monkeypatch.setattr(linalg, "STACK_ENTRIES", per_check * 5 * 4)
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(FrameAxiomError) as one_point:
        validate_frames(BROKEN_C[axiom], SWAP, conjugation())
    with pytest.raises(FrameAxiomError) as stacked:
        _broken_at(grid[6], axiom).on_grid(grid)
    assert stacked.value.axiom == one_point.value.axiom == axiom
    assert str(stacked.value) == f"{one_point.value} at t={grid[6]}"


@pytest.mark.parametrize("axiom", list(BROKEN_C))
def test_frame_grid_error_carries_its_grid_position(axiom):
    # the stacked check's error names the failing point's index on the grid, at 2x2 in the
    # second stack of 409 points; the one-point check's error has none
    grid = np.linspace(0.0, 1.0, 501)
    with pytest.raises(FrameAxiomError) as err:
        _broken_at(grid[450], axiom).on_grid(grid)
    assert err.value.index == 450
    with pytest.raises(FrameAxiomError) as err:
        validate_frames(BROKEN_C[axiom], SWAP, conjugation())
    assert err.value.index is None


def test_frame_grid_names_the_time_c_changes_shape():
    fam = FrameFamily(OperatorFamily(0.0, 1.0, lambda t: SWAP if t < 0.5 else np.eye(3)),
                      SWAP, conjugation())
    with pytest.raises(ValueError) as err:
        fam.on_grid(np.linspace(0.0, 1.0, 5))
    assert str(err.value) == "family value at t=0.5 has shape (3, 3), expected (2, 2)"


def test_frame_grid_raises_an_axiom_failure_before_a_later_evaluation_failure(caplog):
    # C fails C^2 = I at t = 2.0 and is NaN at t = 8.0: the whole-grid stack of C raises at
    # t = 8.0, but the one-point walk (frame_at) fails at t = 2.0 first, and so does the grid
    grid = np.linspace(0.0, 10.0, 21)

    def family(c_of_t):
        return FrameFamily(OperatorFamily(0.0, 10.0, c_of_t), SWAP, conjugation())

    both = family(lambda t: SWAP * (1.5 if t == 2.0 else math.nan if t == 8.0 else 1.0))
    with pytest.raises(FrameAxiomError, match=r"'C\^2 = I' violated: .* at t=2\.0$") as err:
        both.on_grid(grid)
    assert err.value.index == 4
    with pytest.raises(FrameAxiomError, match=r"'C\^2 = I' violated"):
        both.frame_at(2.0)
    # with the NaN only, the evaluation error carries its grid point; the build logs the
    # one-sided derivatives of the points before it once
    nan_only = family(lambda t: SWAP * (math.nan if t == 8.0 else 1.0))
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="ptdyn.frames"):
        with pytest.raises(ValueError) as err:
            nan_only.on_grid(grid)
    assert str(err.value) == "family value at t=8.0 contains non-finite entries"
    assert err.value.index == 16
    assert [r.message for r in caplog.records if r.name == "ptdyn.frames"] == [
        "one-sided derivative at 1 of 16 grid points in [0, 10]"]


def test_frame_grid_is_kept_and_logs_one_sided_derivatives_once(caplog):
    def C_of_t(t):
        return two_level_matrices(1.0, 0.2 + 0.1 * t)[1]

    fam = FrameFamily(OperatorFamily(0.0, 1.0, C_of_t), SWAP, conjugation())
    with caplog.at_level(logging.WARNING):
        fg = fam.on_grid(np.linspace(0.0, 1.0, 11))
        assert fam.on_grid(np.linspace(0.0, 1.0, 11)) is fg
    one_sided = [rec.message for rec in caplog.records if "one-sided" in rec.message]
    assert one_sided == ["one-sided derivative at 2 of 11 grid points in [0, 1]"]
    assert fg.one_sided == 2
    assert isinstance(fg, FrameGrid) and not fg.metric.flags.writeable
    assert fam.on_grid(np.linspace(0.0, 1.0, 21)) is not fg


def test_pt_axioms_run_once_per_family(monkeypatch):
    calls = []
    real = frames._pt_axioms
    monkeypatch.setattr(frames, "_pt_axioms", lambda *args: calls.append(1) or real(*args))

    def C_of_t(t):
        return two_level_matrices(1.0, 0.2 + 0.1 * t)[1]

    fam = FrameFamily(OperatorFamily(0.0, 1.0, C_of_t), SWAP, conjugation())
    assert len(calls) == 1
    frame = fam.frame_at(0.5)
    fam.on_grid(np.linspace(0.0, 1.0, 11))
    fam.on_grid(np.linspace(0.0, 1.0, 21))
    assert len(calls) == 1
    assert frame.residuals == validate_frames(C_of_t(0.5), SWAP, conjugation()).residuals
    assert len(calls) == 2  # validate_frames checks its own P and T
    FrameFamily.constant(frame)
    assert len(calls) == 3


def test_family_rejects_p_t_at_construction():
    C = two_level_matrices(1.0, 0.3)[1]
    with pytest.raises(FrameAxiomError, match="P\\^2 = I"):
        FrameFamily(OperatorFamily.constant(C), 2.0 * SWAP, conjugation())
    with pytest.raises(ValueError, match="dimension mismatch: P"):
        FrameFamily(OperatorFamily.constant(C), SWAP, conjugation(3))


# ------------------------------------------------------ one-point kernels

@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8), omega=st.floats(0.1, 3.0),
       tol=st.sampled_from([1e-10, 1e-9]))
def test_one_point_kernels_match_the_one_norm_per_matrix_reference(seed, dim, omega, tol):
    # The frame check and the symmetry report take their norms in one stacked SVD;
    # every residual and report field is still what one norm per matrix gives. H is
    # unbroken with distinct levels, C itself (two degenerate levels), a generic
    # matrix (broken), and a metric-Hermitian H that is not PT-symmetric. The same holds
    # where the bracket shortcuts decline every check and the stacked check and scan of
    # the one point decide.
    for declined in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if declined:  # a bracket (0, inf) settles nothing
                mp.setattr(frames, "_brackets", lambda matrices: [(0.0, math.inf)] * len(matrices))
            _check_one_point_kernels(seed, dim, omega, tol, declined)


def _check_one_point_kernels(seed, dim, omega, tol, declined):
    def report(frame, X):
        rep = symmetry_report(frame, X, tol)
        assert repr(rep) == repr(reference_symmetry_report(frame, X, tol))
        assert not declined or "_residual_matrices" not in rep.__dict__  # the stacked scan's
        return rep

    rng = np.random.default_rng(seed)
    H, C, P, K = unbroken_model_matrices(rng, dim)
    T = AntilinearOperator(K)
    frame = validate_frames(C, P, T, tol)
    assert not declined or frame._residuals is not None  # the stacked check's exact residuals
    assert repr(frame.residuals) == repr(reference_frame_residuals(C, P, K))
    generic = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    for X in (H, C, generic):
        report(frame, X)
    assert report(frame, H).unbroken

    ham, fam = rotating_frame_model(seed, dim, omega)
    grid = np.linspace(0.0, 1.0, 5)
    fg = fam.on_grid(grid)
    for hams in (ham.stack(grid), fg.c):
        one_point = []
        for t, X in zip(grid, hams):
            frame = fam.frame_at(t)
            assert not declined or frame._residuals is not None
            assert repr(frame.residuals) == repr(reference_frame_residuals(fam.c_family(t), fam.p, fam.t.conj_matrix))
            one_point.append(report(frame, X))
        assert repr(fg.symmetry_reports(hams, tol)) == repr(one_point)


def _svd_sizes(monkeypatch) -> list:
    """The number of matrices of each ``np.linalg.svd`` call from here on (``linalg._Norms``
    calls it for every operator norm)."""
    svd, sizes = np.linalg.svd, []

    def counting_svd(X, *args, **kwargs):
        sizes.append(math.prod(np.shape(X)[:-2]))
        return svd(X, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return sizes


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_passing_one_point_check_takes_no_svd_until_its_residuals_are_read(monkeypatch, seed):
    # Each check of a passing d = 8 frame is settled by its norms' bounds. Reading the
    # residuals norms the three C-dependent residual matrices in one SVD, once, each to the
    # bit of one norm per matrix. A report's verdicts are settled by the bounds of ||H||, its
    # two residual norms and ||PC|| too: reading either residual norms both in one SVD, once.
    ham, fam = rotating_frame_model(seed, 8, 1.3)
    t = 0.4
    expected = reference_frame_residuals(fam.c_family(t), fam.p, fam.t.conj_matrix)
    H = ham(t)
    reference = reference_symmetry_report(fam.frame_at(t), H, frames.DEFAULT_FRAME_TOL)
    sizes = _svd_sizes(monkeypatch)
    frame = fam.frame_at(t)
    assert sizes == []
    assert repr(frame.residuals) == repr(expected)
    assert sizes == [3]
    assert frame.residuals is frame.residuals and sizes == [3]
    report = symmetry_report(frame, H)
    assert sizes == [3]
    assert report.pt_residual == reference.pt_residual and sizes == [3, 2]
    assert report.cpt_residual == reference.cpt_residual and sizes == [3, 2]
    assert repr(report) == repr(reference) and report == reference and sizes == [3, 2]


def test_settled_report_read_by_a_second_thread_norms_its_residuals_again():
    # Two threads reading a settled report's residuals at once both miss them and both reach
    # __getattr__: the second norms the kept matrices again, to the same bits, and raises nothing.
    ham, fam = rotating_frame_model(0, 8, 1.3)
    report = symmetry_report(fam.frame_at(0.4), ham(0.4))
    first = report.__getattr__("pt_residual"), report.__getattr__("cpt_residual")
    second = report.__getattr__("cpt_residual"), report.__getattr__("pt_residual")
    assert first == second[::-1] == (report.pt_residual, report.cpt_residual)


def test_frame_no_check_built_norms_all_its_residuals_when_read(monkeypatch):
    # A frame built directly carries no P/T check: reading its residuals runs the P/T check
    # on its own P and T, then the stacked check of its C, as a frame check does.
    _, C, P = two_level_matrices(1.0, 0.7)
    checked = validate_frames(C, P, conjugation())
    frame = frames.CPTFrame(c=checked.c, p=checked.p, t=checked.t, metric=checked.metric,
                            metric_eigenvalues=checked.metric_eigenvalues)
    sizes = _svd_sizes(monkeypatch)
    assert repr(frame.residuals) == repr(reference_frame_residuals(C, P, np.eye(2)))
    # the P/T check's SVD (P, K and PK; its residuals are all zero), then the C check's (the
    # C^2 = I residual; the other two are zero), and nothing more on a second read
    assert frame.residuals is frame.residuals and sizes == [3, 1]


def test_frame_no_check_built_raises_its_first_failing_axiom_when_read():
    # A frame built directly from a C with C^2 = 4I: the read raises the error the frame
    # check of its C, P and T raises, naming no time and no grid position.
    _, C, P = two_level_matrices(1.0, 0.7)
    with pytest.raises(FrameAxiomError) as expected:
        validate_frames(2 * C, P, conjugation())
    frame = frames.CPTFrame(c=2 * C, p=P, t=conjugation(), metric=P @ (2 * C),
                            metric_eigenvalues=np.linalg.eigvalsh(P @ (2 * C)))
    with pytest.raises(FrameAxiomError) as err:
        frame.residuals
    assert err.value.axiom == "C^2 = I" and str(err.value) == str(expected.value)
    assert " at t=" not in str(err.value) and err.value.index is None


def test_replaced_frame_residuals_are_those_of_its_c_p_and_t():
    # dataclasses.replace keeps no check: the residuals of a frame whose metric was replaced
    # are taken from its C, P and T, not from the metric it carries. This frame's metric
    # Hermitian residual is nonzero, so that of 4 PC would read four times as large.
    C, P, K = random_frame_matrices(np.random.default_rng(0), 4)
    checked = validate_frames(C, P, AntilinearOperator(K))
    assert checked.residuals["metric Hermitian"] > 0.0
    frame = dataclasses.replace(checked, metric=4 * checked.metric)
    assert frame._pt is None and frame._residuals is None
    assert repr(frame.residuals) == repr(reference_frame_residuals(C, P, K))
    assert repr(frame.residuals) == repr(checked.residuals)


@pytest.mark.parametrize("tol, message", [
    (5e-16, None),
    (3e-16, "residual 4.441e-16 (tolerance 3.0e-16, scale 1.26)"),
    (1e-16, "residual 4.441e-16 (tolerance 1.0e-16, scale 1.26)"),
])
def test_one_point_check_inside_the_bracket_takes_the_exact_norms(monkeypatch, tol, message):
    # The ramp's C at t = 0.205, the worst C^2 = I residual of the bundled grid (see the
    # frame-tolerance sweep in test_cli.py). At these tolerances the bounds of its
    # residual and of ||C||^2 leave the check open: the stacked check of the one point
    # decides it, and a failure prints the exact residual and scale.
    cfg = load_config(Path(__file__).resolve().parents[1] / "scenarios" / "two_level_ramp.json")
    fam = build_model(cfg).frame_family
    t = cfg.grid.times()[41]
    C, P, K = fam.c_family(t), fam.p, fam.t.conj_matrix
    expected = reference_frame_residuals(C, P, K)
    sizes = _svd_sizes(monkeypatch)
    if message is None:
        frame = validate_frames(C, P, fam.t, tol)
        assert repr(frame.residuals) == repr(expected)
    else:
        with pytest.raises(FrameAxiomError) as err:
            validate_frames(C, P, fam.t, tol)
        assert str(err.value) == "frame axiom 'C^2 = I' violated: " + message
        assert err.value.index is None
    # the P/T check (P, K and PK; its residuals are all zero), then the stacked check's: the
    # C^2 = I residual (the other two are zero), then ||C|| and ||PC|| where their bounds
    # leave the check open (3e-16) or for the message of a failure they settle (1e-16)
    assert sizes == {5e-16: [3, 1], 3e-16: [3, 1, 2], 1e-16: [3, 1, 1, 1]}[tol]


@pytest.mark.parametrize("ratio, hermitian", [(0.999, True), (1.001, False)])
def test_one_point_report_norms_the_metric_where_its_bracket_is_open(monkeypatch, ratio, hermitian):
    # H's metric residual R is ratio times the threshold tol*||H||*||PC||. ||PC|| lies in
    # [max|PC_ij|, 2 max|PC_ij|] with max|PC_ij| < ||PC||, so at the bracket's ends the
    # verdict differs: the stacked scan of the one point norms H, PC and the metric residual
    # in one SVD and decides from the exact norms, then norms the PT residual for the report.
    H, C, P = two_level_matrices(1.0, 1.2)
    frame = validate_frames(C, P, conjugation())
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) + np.diag([1.0, -1.0])
    tol = 1e-10
    residual = operator_norm(X.conj().T @ frame.metric - frame.metric @ X)
    H = H + ratio * tol * operator_norm(H) * operator_norm(frame.metric) / residual * X
    reference = reference_symmetry_report(frame, H, tol)
    sizes = _svd_sizes(monkeypatch)
    report = symmetry_report(frame, H, tol)
    assert sizes == [3, 1]
    assert report.cpt_hermitian == hermitian
    assert repr(report) == repr(reference) and sizes == [3, 1]


# A real orthogonal Q = I - (2/3) J spreads H's spectrum over its entries, so ||H|| lies well
# inside the bracket [max|H_ij|, 3 max|H_ij|].
_SPREAD = np.eye(3) - 2.0 / 3.0


@pytest.mark.parametrize("ratio", [0.999, 1.001])
@pytest.mark.parametrize("verdict", ["pt_symmetric", "cpt_hermitian", "joined"])
def test_one_point_report_decides_an_open_verdict_from_the_exact_norms(monkeypatch, caplog, verdict,
                                                                       ratio):
    # The frame is C = P = T = I at d = 3: the PT map is I and the metric I, whose bracket
    # [1, 3] the frame check leaves open. H = Q D Q^T is real symmetric: PT-symmetric, metric-
    # Hermitian and unbroken. A real antisymmetric A puts H's PT residual (i A: H stays
    # Hermitian) or its metric residual (A: H stays real) at ratio times its threshold; or D
    # puts the gap of two eigenvalues at ratio times the cluster threshold tol*max(||H||, 1).
    # The bracket leaves that verdict open: the stacked scan of the one point decides it from
    # one SVD of the norms it reads (H and that residual; PC too for metric Hermiticity). A
    # residual the verdict does not read is zero here, and so exact without an SVD.
    tol = 1e-10
    eye = np.eye(3, dtype=complex)
    frame = validate_frames(eye, eye, conjugation(3))
    ((metric_lo, metric_hi),) = frames._brackets(frame.metric[None])
    assert metric_lo < metric_hi
    gap = ratio * tol * 10.0 if verdict == "joined" else 1.0
    S = _SPREAD @ np.diag([-10.0, 10.0, 10.0 + gap]) @ _SPREAD.T
    H = (0.5 * (S + S.T)).astype(complex)
    if verdict != "joined":
        A = np.array([[0.0, 1.0, 0.5], [-1.0, 0.0, 2.0], [-0.5, -2.0, 0.0]])
        X = 1j * A if verdict == "pt_symmetric" else A.astype(complex)
        R = X - np.conj(X) if verdict == "pt_symmetric" else X.conj().T - X  # PT map and metric I
        H = H + ratio * tol * operator_norm(H) / operator_norm(R) * X
    reference = reference_symmetry_report(frame, H, tol)
    sizes = _svd_sizes(monkeypatch)
    with caplog.at_level(logging.INFO, logger="ptdyn.frames"):
        report = symmetry_report(frame, H, tol)
    svd_size = {"pt_symmetric": 2, "cpt_hermitian": 3, "joined": 1}[verdict]
    assert sizes == [svd_size]
    joined = "degenerate eigenvalue cluster" in caplog.text
    assert {"pt_symmetric": report.pt_symmetric, "cpt_hermitian": report.cpt_hermitian,
            "joined": joined}[verdict] == (ratio < 1.0)
    assert repr(report) == repr(reference) and sizes == [svd_size]


@pytest.mark.parametrize("mark", [RESIDUAL_MARK, LAPACK_MARK], ids=["residual", "lapack"])
def test_one_point_report_fails_its_eigensolve_as_the_stack_of_one(monkeypatch, mark):
    # A wrong eigenvector leaves the report's residual check open at the bracket, and the
    # exact check, like a LAPACK failure, raises the error eigenpairs_stack raises for H[None].
    eye = np.eye(3, dtype=complex)
    frame = validate_frames(eye, eye, conjugation(3))
    H = np.diag([1.0, 2.0, 3.0]).astype(complex)
    H[-1, 0] = mark
    monkeypatch.setattr(np.linalg, "eig", scripted_eig(np.linalg.eig))
    with pytest.raises(ConvergenceError) as stacked:
        linalg.eigenpairs_stack(H[None], frames.DEFAULT_FRAME_TOL)
    with pytest.raises(ConvergenceError) as one:
        symmetry_report(frame, H)
    assert str(one.value) == str(stacked.value) and one.value.index == stacked.value.index == 0


def test_one_point_report_raises_the_svd_failure_first():
    # H is finite; its metric residual holds a NaN (inf - inf) beside finite entries
    H, C, P = two_level_matrices(1.0, 1.2)
    frame = validate_frames(C, P, conjugation())
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConvergenceError) as err:
        symmetry_report(frame, np.diag([1e308 * (1 + 1j), 1.0]))
    assert str(err.value) == "SVD did not converge for stack matrix 0"
    assert err.value.index == 0


def test_one_point_report_rejects_an_overflowing_eigenpair():
    H, C, P = two_level_matrices(1.0, 1.2)
    frame = validate_frames(C, P, conjugation())
    message = r"^eigenpair residual inf exceeds 1\.0e-10\*\|\|M\|\| for matrix:\n"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConvergenceError, match=message):
        symmetry_report(frame, 1e200 * H)


def test_one_point_frame_check_rejects_an_overflowing_c():
    # C^2 overflows to inf and NaN: the residual is NaN, and so is no pass
    _, C, P = two_level_matrices(1.0, 1.2)
    message = r"'C\^2 = I' violated: residual nan \(tolerance 1\.0e-10, scale inf\)$"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FrameAxiomError, match=message):
        validate_frames(1e200 * C, P, conjugation())


def test_replaced_frame_is_classified_with_its_own_metric():
    # H's metric residual R is half the threshold tol*||H||*||PC||. A frame whose metric is
    # replaced by 4 PC has residual 4R and threshold 4 tol*||H||*||PC||: still metric-Hermitian,
    # which a report taking the norm of the old metric would deny.
    H, C, P = two_level_matrices(1.0, 1.2)
    frame = validate_frames(C, P, conjugation())
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) + np.diag([1.0, -1.0])
    tol = 1e-10
    residual = operator_norm(X.conj().T @ frame.metric - frame.metric @ X)
    H = H + 0.5 * tol * operator_norm(H) * operator_norm(frame.metric) / residual * X
    assert symmetry_report(frame, H, tol).cpt_hermitian
    replaced = dataclasses.replace(frame, metric=4.0 * frame.metric)
    report = symmetry_report(replaced, H, tol)
    assert repr(report) == repr(reference_symmetry_report(replaced, H, tol))
    assert report.cpt_hermitian


@pytest.mark.parametrize("replaced", [False, True], ids=["direct", "replaced"])
def test_report_on_a_frame_no_check_built_takes_its_own_pt_check(monkeypatch, replaced):
    # A frame built directly, or by dataclasses.replace, carries no P/T check: the report
    # runs it on the frame's own P and T (one SVD of P, K, PK and the nonzero P^2 = I
    # residual), then settles every verdict from the bracket, and takes no further SVD
    # until a residual is read.
    ham, fam = rotating_frame_model(0, 8, 1.3)
    checked, H = fam.frame_at(0.4), ham(0.4)
    frame = (dataclasses.replace(checked) if replaced else frames.CPTFrame(
        c=checked.c, p=checked.p, t=checked.t, metric=checked.metric,
        metric_eigenvalues=checked.metric_eigenvalues))
    assert frame._pt is None
    reference = reference_symmetry_report(frame, H, frames.DEFAULT_FRAME_TOL)
    sizes = _svd_sizes(monkeypatch)
    report = symmetry_report(frame, H)
    assert sizes == [4]
    assert report.pt_residual == reference.pt_residual and sizes == [4, 2]
    assert repr(report) == repr(reference) and sizes == [4, 2]


def test_report_on_a_frame_no_check_built_raises_its_first_failing_axiom():
    # A frame built directly from a P with P^2 = 4I: the report raises the error the frame
    # check of its C, P and T raises, naming no time and no grid position.
    H, C, P = two_level_matrices(1.0, 0.7)
    with pytest.raises(FrameAxiomError) as expected:
        validate_frames(C, 2 * P, conjugation())
    frame = frames.CPTFrame(c=C, p=2 * P, t=conjugation(), metric=2 * P @ C,
                            metric_eigenvalues=np.linalg.eigvalsh(2 * P @ C))
    with pytest.raises(FrameAxiomError) as err:
        symmetry_report(frame, H)
    assert err.value.axiom == "P^2 = I" and str(err.value) == str(expected.value)
    assert " at t=" not in str(err.value) and err.value.index is None


def test_report_is_broken_where_pt_maps_a_cluster_out_of_its_span(caplog):
    # H is PT-symmetric within tol (PT is conjugation here) and metric-Hermitian. Its levels
    # are two joined pairs {0, delta} and {G, G + delta}, one gap G apart, and a far level L:
    # tol*||H|| ~ 1e-4 joins each pair but not the two. The PT-odd i eps coupling of the
    # pairs mixes them with a complex weight of about eps/G, far above tol: each pair's
    # eigenvectors pass the per-vector check only because they are clustered, and PT maps
    # the first pair's span out of itself. Every bound is settled, so the one-point report
    # takes its own cluster test; the stacked scan and the reference agree.
    tol = 1e-10
    eye = np.eye(5, dtype=complex)
    frame = validate_frames(eye, eye, conjugation(5))
    delta, G, L, eps = 1e-5, 1e-3, 1e6, 5e-6
    H = np.diag([0.0, delta, G, G + delta, L]).astype(complex)
    H[1, 2], H[2, 1] = 1j * eps, -1j * eps
    with caplog.at_level(logging.INFO, logger="ptdyn.frames"):
        report = symmetry_report(frame, H, tol)
    assert "_residual_matrices" in report.__dict__  # settled by the bracket
    assert "degenerate eigenvalue cluster" in caplog.text
    assert report.pt_symmetric and report.cpt_hermitian and not report.unbroken
    assert repr(report) == repr(reference_symmetry_report(frame, H, tol))
    grid = np.linspace(0.0, 1.0, 3)
    reports = FrameFamily.constant(frame).on_grid(grid).symmetry_reports(np.stack([H] * 3), tol)
    assert repr(reports) == repr([report] * 3)


@pytest.mark.parametrize("eps, unbroken", [(8.5e-11, True), (1.3e-10, False)])
def test_reports_scale_the_eigenvector_check_by_the_pt_maps_norm(eps, unbroken):
    # P = [[1, 2], [0, -1]] with T = conjugation: P^2 = I, the metric PC = P^2 is I, and
    # ||PK|| = ||P|| = 1 + sqrt(2). H has eigenvalues 1 and 1.001; its first eigenvector is
    # tilted off the PT-invariant u1 = (1, 0) by eps (1, -1), so PT maps it off itself by
    # about 2 eps: between tol and tol ||PK|| it is not a stray, above tol ||PK|| it is.
    P = np.array([[1.0, 2.0], [0.0, -1.0]])
    frame = validate_frames(P, P, conjugation())
    assert frame._pt.pt_norm == operator_norm(P @ frame.t.conj_matrix) == operator_norm(P)
    u1, u2 = np.array([1.0, 0.0]), np.array([1.0, -1.0])
    V = np.column_stack((u1 + eps * u2, u2))
    H = V @ np.diag([1.0, 1.001]) @ np.linalg.inv(V)
    tol = 1e-10
    _, vecs = linalg.eigenpairs_stack(H[None])
    image = P @ np.conj(vecs[0, 0])
    stray = np.linalg.norm(image - np.vdot(vecs[0, 0], image) * vecs[0, 0])
    assert tol < stray and (stray <= tol * frame._pt.pt_norm) == unbroken
    report = symmetry_report(frame, H, tol)
    assert report.pt_symmetric and report.unbroken == unbroken
    assert repr(report) == repr(reference_symmetry_report(frame, H, tol))
    grid = np.linspace(0.0, 1.0, 3)
    reports = FrameFamily.constant(frame).on_grid(grid).symmetry_reports(np.stack([H] * 3), tol)
    assert repr(reports) == repr([report] * 3)


def test_grid_reports_take_exact_residuals_on_the_bundled_ramp():
    # A run decides its verdicts from the residual norms' bracket; a report built from
    # the same scan still carries the exact SVD norms, as symmetry_report gives them.
    cfg = load_config(Path(__file__).resolve().parents[1] / "scenarios" / "two_level_ramp.json")
    model = build_model(cfg)
    tol = cfg.tolerances["symmetry"]
    fg = model.frame_family.on_grid(cfg.grid.times())
    hams = model.hamiltonian.stack(fg.times)
    reports = fg.symmetry_reports(hams, tol)
    assert len(reports) == 201
    for t, H, report in zip(fg.times, hams, reports):
        assert repr(report) == repr(symmetry_report(model.frame_family.frame_at(t), H, tol))
    assert sum(report.pt_residual > 0.0 or report.cpt_residual > 0.0 for report in reports) > 100


def test_batched_norm_failure_names_the_point_within_the_stack():
    # H at point k is finite, with one entry near the largest float. Its norm, the
    # first matrix of the point in the batched SVD, converges; its metric residual
    # H^dag PC - PC H, the third, holds a NaN (inf - inf) beside finite entries.
    n, k = 7, 4
    H, C, P = two_level_matrices(1.0, 1.2)
    frame = validate_frames(C, P, conjugation())
    hams = np.stack([H] * n)
    hams[k] = np.diag([1e308 * (1 + 1j), 1.0])
    with pytest.raises(ConvergenceError, match=f"^SVD did not converge for stack matrix {k}$") as err:
        frames._classify(frame._pt, np.stack([frame.metric] * n), hams, 1e-10)
    assert err.value.index == k
    grid = np.linspace(0.0, 1.0, n)
    with pytest.raises(ConvergenceError) as err:
        FrameFamily.constant(frame).on_grid(grid).symmetry_reports(hams)
    assert err.value.index == k
    assert str(err.value) == f"symmetry scan at t={grid[k]}: SVD did not converge for stack matrix {k}"


def test_frame_grid_svd_failure_names_the_grid_point():
    # At 2x2 the axiom check takes 409 points a stack. C at point 700 (in the
    # second stack) is finite, and so is PC; C^2 - I, the third matrix of the
    # point in the batched SVD, holds a NaN (inf - inf) beside finite entries.
    grid = np.linspace(0.0, 1.0, 1000)
    _, C, P = two_level_matrices(1.0, 0.3)
    huge = np.diag([1e308 * (1 + 1j), 1.0])
    fam = FrameFamily(OperatorFamily(0.0, 1.0, lambda t: huge if t == grid[700] else C),
                      P, conjugation())
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConvergenceError) as err:
        fam.on_grid(grid)
    assert err.value.index == 700
    assert str(err.value) == f"frame check at t={grid[700]}: SVD did not converge for stack matrix 700"


def test_frame_grid_rejects_an_overflowing_point():
    # C^2 at point 500 overflows to inf and NaN in every entry, so its SVD returns
    # a NaN residual without failing; the check must reject it, naming the time.
    grid = np.linspace(0.0, 1.0, 1000)
    _, C, P = two_level_matrices(1.0, 0.3)
    fam = FrameFamily(OperatorFamily(0.0, 1.0, lambda t: 1e200 * C if t == grid[500] else C),
                      P, conjugation())
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FrameAxiomError) as err:
        fam.on_grid(grid)
    assert err.value.axiom == "C^2 = I"
    assert str(err.value).endswith(f" at t={grid[500]}")
