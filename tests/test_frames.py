import dataclasses
import logging
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import (random_frame_matrices, reference_frame_residuals, reference_symmetry_report,
                     rotating_frame_model, two_level_matrices, unbroken_model_matrices)
from ptdyn import frames
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
    assert batched.value.axiom == pointwise.value.axiom
    assert f"t={grid[bad]}" in str(batched.value)


def test_frame_grid_names_the_time_c_changes_shape():
    fam = FrameFamily(OperatorFamily(0.0, 1.0, lambda t: SWAP if t < 0.5 else np.eye(3)),
                      SWAP, conjugation())
    with pytest.raises(ValueError) as err:
        fam.on_grid(np.linspace(0.0, 1.0, 5))
    assert str(err.value) == "family value at t=0.5 has shape (3, 3), expected (2, 2)"


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
    # matrix (broken), and a metric-Hermitian H that is not PT-symmetric.
    rng = np.random.default_rng(seed)
    H, C, P, K = unbroken_model_matrices(rng, dim)
    T = AntilinearOperator(K)
    frame = validate_frames(C, P, T, tol)
    assert repr(frame.residuals) == repr(reference_frame_residuals(C, P, K))
    generic = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    for X in (H, C, generic):
        assert repr(symmetry_report(frame, X, tol)) == repr(reference_symmetry_report(frame, X, tol))
    assert symmetry_report(frame, H, tol).unbroken

    ham, fam = rotating_frame_model(seed, dim, omega)
    grid = np.linspace(0.0, 1.0, 5)
    fg = fam.on_grid(grid)
    for hams in (ham.stack(grid), fg.c):
        one_point = []
        for t, X in zip(grid, hams):
            frame = fam.frame_at(t)
            assert repr(frame.residuals) == repr(reference_frame_residuals(fam.c_family(t), fam.p, fam.t.conj_matrix))
            one_point.append(symmetry_report(frame, X, tol))
            assert repr(one_point[-1]) == repr(reference_symmetry_report(frame, X, tol))
        assert repr(fg.symmetry_reports(hams, tol)) == repr(one_point)


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
    message = r"^eigenpair residual nan exceeds 1\.0e-10\*\|\|M\|\| for matrix:\n"
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
    pt_map = frame.p @ frame.t.conj_matrix
    with pytest.raises(ConvergenceError, match=f"^SVD did not converge for stack matrix {k}$") as err:
        frames._classify(pt_map, np.stack([frame.metric] * n), hams, 1e-10)
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
