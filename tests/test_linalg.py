import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    LAPACK_MARK,
    RESIDUAL_MARK,
    reference_derivative_stencil,
    reference_eigenpairs,
    same_bits,
    scripted_eig,
    two_level_matrices,
)
from ptdyn import linalg
from ptdyn.linalg import (
    AntilinearOperator,
    ConvergenceError,
    NonFiniteError,
    OperatorFamily,
    eigenpairs_stack,
    family_derivatives,
    operator_norm,
    operator_norms,
)

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------- eigenpairs

def test_eigenpairs_identity():
    lams, vecs = eigenpairs_stack(np.eye(2)[None])
    assert lams[0].tolist() == [1.0, 1.0]
    assert np.allclose(vecs[0], np.eye(2))


def test_eigenpairs_two_level_hamiltonian():
    # s = 1, alpha = pi/3: eigenvalues 0 and 2 s cos(alpha) = 1
    H, _, _ = two_level_matrices(1.0, math.pi / 3)
    lams = eigenpairs_stack(H[None])[0][0]
    assert abs(lams[0]) < 1e-12
    assert abs(lams[1] - 1.0) < 1e-12


def test_eigenpairs_two_level_metric():
    # eigenvalues of PC are (1 -+ sin a)/cos a = 2 -+ sqrt(3) at a = pi/3
    _, C, P = two_level_matrices(1.0, math.pi / 3)
    lams = eigenpairs_stack((P @ C)[None])[0][0]
    assert abs(lams[0] - (2.0 - SQRT3)) < 1e-12
    assert abs(lams[1] - (2.0 + SQRT3)) < 1e-12


def test_eigenpairs_sorted_and_gauged(rng):
    M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    lams, vecs = eigenpairs_stack(M[None])
    lams = lams[0].tolist()
    assert lams == sorted(lams, key=lambda z: (z.real, z.imag))
    for v in vecs[0]:
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        pivot = v[np.argmax(np.abs(v))]
        assert pivot.real > 0 and abs(pivot.imag) < 1e-12


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_eigenpairs_residual_property(dim, seed):
    gen = np.random.default_rng(seed)
    M = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    tol = 1e-10
    lams, vecs = eigenpairs_stack(M[None], tol=tol)
    for lam, v in zip(lams[0], vecs[0]):
        assert np.linalg.norm(M @ v - lam * v) <= tol * operator_norm(M)


def test_eigenpairs_rejects_bad_input():
    with pytest.raises(ValueError):
        eigenpairs_stack(np.ones((2, 3))[None])
    with pytest.raises(ValueError):
        eigenpairs_stack(np.array([[np.nan, 0], [0, 1]])[None])
    with pytest.raises(ValueError):
        eigenpairs_stack(np.eye(2)[None], tol=0.0)


def test_non_contiguous_input_accepted(rng):
    # transposed views must go through validation like any other carrier
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert operator_norm(M.T) == pytest.approx(operator_norm(M.T.copy()))
    lams, _ = eigenpairs_stack(M.T[None])
    assert lams.shape == (1, 3)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 6), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["general", "hermitian", "diagonal", "mixed"]))
def test_eigenpairs_stack_bit_identical_to_one_point(dim, n, seed, kind):
    # "diagonal" stacks take the b = c = 0 branch of the 2x2 closed form (some
    # with a repeated diagonal); "mixed" ones interleave such matrices with
    # general and triangular ones.
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, dim, dim)) + 1j * gen.normal(size=(n, dim, dim))
    if kind == "hermitian":
        X = X + X.conj().swapaxes(1, 2)
    off = ~np.eye(dim, dtype=bool)
    if kind == "diagonal":
        X[:, off] = 0.0
        X[::2, -1, -1] = X[::2, 0, 0]
    if kind == "mixed":
        X[::3, off] = 0.0
        X[1::3, 0, -1] = 0.0
    lams, vecs = eigenpairs_stack(X)
    for k in range(n):
        one_lams, one_vecs = eigenpairs_stack(X[k][None])
        assert same_bits(lams[k], one_lams[0]) and same_bits(vecs[k], one_vecs[0])
        pairs = reference_eigenpairs(X[k])
        assert same_bits(lams[k], np.array([lam for lam, _ in pairs]))
        assert same_bits(vecs[k], np.array([v for _, v in pairs]))
    # two matrices per stacked solve
    chunked = [eigenpairs_stack(X[lo:lo + 2]) for lo in range(0, n, 2)]
    assert same_bits(np.concatenate([c[0] for c in chunked]), lams)
    assert same_bits(np.concatenate([c[1] for c in chunked]), vecs)


@pytest.mark.parametrize("marks, first", [
    ({2: RESIDUAL_MARK, 5: RESIDUAL_MARK}, 2),
    ({2: LAPACK_MARK, 5: LAPACK_MARK}, 2),
    ({1: RESIDUAL_MARK, 4: LAPACK_MARK}, 1),
    ({1: LAPACK_MARK, 4: RESIDUAL_MARK}, 1),
], ids=["residual-residual", "lapack-lapack", "residual-lapack", "lapack-residual"])
def test_eigenpairs_stack_raises_for_the_first_failing_matrix(monkeypatch, rng, marks, first):
    X = rng.normal(size=(7, 3, 3)) + 1j * rng.normal(size=(7, 3, 3))
    for k, mark in marks.items():
        X[k, -1, 0] = mark
    monkeypatch.setattr(np.linalg, "eig", scripted_eig(np.linalg.eig))
    with pytest.raises(ConvergenceError) as stacked:
        eigenpairs_stack(X)
    with pytest.raises(ConvergenceError) as one_point:
        reference_eigenpairs(X[first])
    assert stacked.value.index == first
    assert str(stacked.value) == str(one_point.value)
    for k in range(first):
        reference_eigenpairs(X[k])


def test_eigenpairs_stack_rejects_an_overflowing_pair():
    # finite entries near 1e200: the scaled 2x2 quadratic formula gives finite pairs, but
    # the squares of their residual overflow, and an infinite residual fails the check
    # without a RuntimeWarning
    H = 1e200 * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    for X, index in ((H[None], 0), (np.stack([np.diag([1.0, 2.0]), H]), 1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="^eigenpair residual inf exceeds") as err:
                eigenpairs_stack(X)
        assert err.value.index == index


@pytest.mark.parametrize("s", [2.0**-660, 1e-200, 1e200])
def test_closed_form_eigenpairs_scale_with_the_matrix(s):
    # Unscaled, (a - d)^2 and b c underflow to 0 at 1e-200 and overflow at 1e200. The
    # closed form scales each matrix by a power of two first: the eigenvalues of s M are
    # s times M's and the vectors are M's, to the bit when s is a power of two.
    rng = np.random.default_rng(5)
    M = np.stack([two_level_matrices(1.0, 0.3)[0], np.array([[0.5, 2.0], [2.0, -1.5]]),
                  rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))]).astype(complex)
    lams, vecs = linalg._eigenpairs_2x2(M)
    with np.errstate(under="raise", over="raise"):
        scaled_lams, scaled_vecs = linalg._eigenpairs_2x2(s * M)
    if s == 2.0**-660:
        assert same_bits(scaled_lams, s * lams) and same_bits(scaled_vecs, vecs)
    else:
        np.testing.assert_allclose(scaled_lams, s * lams, rtol=1e-14, atol=1e-14 * s)
        # the same unit vectors up to a phase (s M rounds M's entries)
        np.testing.assert_allclose(np.abs(np.vecdot(vecs, scaled_vecs)), 1.0, rtol=0.0, atol=1e-14)
    if s < 1.0:  # at 1e200 the residual's squares overflow (see the test above)
        stack_lams, _ = eigenpairs_stack(s * M)
        np.testing.assert_allclose(stack_lams, s * eigenpairs_stack(M)[0], rtol=1e-14, atol=1e-14 * s)


def test_eigenpairs_stack_rejects_bad_input():
    with pytest.raises(ValueError, match="shape"):
        eigenpairs_stack(np.eye(2))
    with pytest.raises(ValueError, match="shape"):
        eigenpairs_stack(np.ones((3, 2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        eigenpairs_stack(np.full((2, 2, 2), np.nan))
    with pytest.raises(ValueError, match="tol"):
        eigenpairs_stack(np.ones((2, 2, 2)), tol=0.0)
    lams, vecs = eigenpairs_stack(np.empty((0, 3, 3)))
    assert lams.shape == (0, 3) and vecs.shape == (0, 3, 3)


# -------------------------------------------------------------- operator_norm

def test_operator_norm_examples():
    assert operator_norm(np.eye(4)) == pytest.approx(1.0)
    assert operator_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)
    _, C, P = two_level_matrices(1.0, math.pi / 3)
    assert operator_norm(P @ C) == pytest.approx(2.0 + SQRT3, abs=1e-12)


def test_operator_norms_names_the_matrix_whose_svd_fails():
    # A NaN entry makes LAPACK's SVD fail; the stack's other norms are unaffected.
    stack = np.stack([np.eye(2), np.diag([np.nan, 1.0]), 2.0 * np.eye(2), np.diag([1.0, np.nan])])
    with pytest.raises(ConvergenceError, match="^SVD did not converge for stack matrix 1$") as err:
        operator_norms(stack)
    assert err.value.index == 1
    assert np.array_equal(operator_norms(stack[[0, 2]]), [1.0, 2.0])


def test_joint_norms_name_the_point_of_the_first_failing_matrix():
    # Three 5-point stacks in one SVD: the second fails at point 3, the third at point 1.
    # The first failing matrix of the concatenation is the second stack's, at point 3.
    def joint_norms(*stacks, start=0):  # operator norms of the stacks, concatenated, in one SVD
        return linalg._Norms(stacks, (True,) * len(stacks), start).lo

    eye = np.stack([np.eye(2)] * 5)
    second, third = eye.copy(), eye.copy()
    second[3] = third[1] = np.diag([np.nan, 1.0])
    with pytest.raises(ConvergenceError, match="^SVD did not converge for stack matrix 3$") as err:
        joint_norms(eye, second, third)
    assert err.value.index == 3
    with pytest.raises(ConvergenceError, match="^SVD did not converge for stack matrix 43$") as err:
        joint_norms(eye, second, third, start=40)
    assert err.value.index == 43
    norms = joint_norms(eye, 2.0 * eye, np.eye(2)[None])
    assert norms.tolist() == [1.0] * 5 + [2.0] * 5 + [1.0]


def test_operator_norms_of_zero_matrices_are_positive_zero_without_an_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda X, *a, **kw: calls.append(1) or svd(X, *a, **kw))
    for X in (np.zeros((2, 2)), np.zeros((3, 4, 4), dtype=complex), -np.zeros((1, 1, 1))):
        norms = operator_norms(X)
        assert norms.shape == X.shape[:-2]
        assert (norms == 0.0).all() and not np.signbit(norms).any()
    assert calls == []
    assert operator_norms(np.stack([np.zeros((2, 2)), 3.0 * np.eye(2)])).tolist() == [0.0, 3.0]
    assert len(calls) == 1


def test_operator_norms_name_the_stack_position_after_zero_matrices():
    # the zero matrices take no SVD; the index still counts them
    stack = np.stack([np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2), np.diag([np.nan, 1.0]),
                      np.zeros((2, 2)), np.diag([1.0, np.nan])])
    with pytest.raises(ConvergenceError, match="^SVD did not converge for stack matrix 3$") as err:
        operator_norms(stack)
    assert err.value.index == 3


def test_bounded_norms_take_non_finite_matrices_in_the_joint_svd_order():
    # Stack 0 is only bounded, stack 1 taken exact. The NaN matrix of stack 0 at point 3
    # comes first in the concatenation, ahead of stack 1's at point 1, and names point 3.
    eye = np.stack([np.eye(2)] * 5)
    first, second = eye.copy(), eye.copy()
    first[3] = second[1] = np.diag([np.nan, 1.0])
    with pytest.raises(ConvergenceError, match="^SVD did not converge for stack matrix 23$") as err:
        linalg._Norms((first, second), (False, True), start=20)
    assert err.value.index == 23


def _magnitudes(rng, shape, lo_exp, hi_exp):
    """Complex entries with moduli 10**U(lo_exp, hi_exp) and uniform phases."""
    return 10.0 ** rng.uniform(lo_exp, hi_exp, shape) * np.exp(2j * np.pi * rng.random(shape))


@settings(max_examples=300, deadline=None)
@given(dim=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["dense", "real", "rank-one", "flat", "single", "zero"]),
       exps=st.tuples(st.integers(-300, 300), st.integers(-300, 300)))
def test_norm_bounds_contain_the_svd_norm(dim, seed, kind, exps):
    # entries from 1e-300 to 1e300; the bracket holds np.linalg.norm(A, 2) as computed
    rng = np.random.default_rng(seed)
    lo_exp, hi_exp = sorted(exps)
    if kind == "dense":
        A = _magnitudes(rng, (dim, dim), lo_exp, hi_exp)
    elif kind == "real":
        A = 10.0 ** rng.uniform(lo_exp, hi_exp, (dim, dim)) * rng.choice([-1.0, 1.0], (dim, dim))
    elif kind == "rank-one":  # each factor's moduli in 10**[e/2, f/2]: the products stay in range
        u, v = (_magnitudes(rng, dim, lo_exp / 2, hi_exp / 2) for _ in range(2))
        A = np.outer(u, v)
    elif kind == "flat":  # every modulus equal and rank one: ||A|| = d * max|a_ij|, the upper bound
        A = 10.0 ** lo_exp * np.outer(_magnitudes(rng, dim, 0, 0), _magnitudes(rng, dim, 0, 0))
    else:
        A = np.zeros((dim, dim), dtype=complex)
        if kind == "single":
            A[rng.integers(dim), rng.integers(dim)] = _magnitudes(rng, (), lo_exp, hi_exp)
    norms = linalg._Norms((np.stack([A, 2.0 * np.eye(dim)]),), (False,))
    sigma = np.linalg.norm(A, 2)
    assert norms.lo[0] <= sigma <= norms.hi[0]
    assert norms.lo[0] < norms.hi[0] or sigma == norms.lo[0] == 0.0


def _around(rng, t: np.ndarray, dim: int) -> np.ndarray:
    """One value per point at, next to, inside the bracket around, or far from the threshold
    ``t``, or NaN or zero."""
    kinds = rng.integers(0, 8, t.shape)
    spread = 10.0 ** rng.uniform(-9, np.log10(dim + 1), t.shape)  # within the bracket or past it
    return np.select(
        [kinds == 0, kinds == 1, kinds == 2, kinds == 3, kinds == 4, kinds == 5, kinds == 6],
        [t, np.nextafter(t, 0.0), np.nextafter(t, np.inf), t * (1.0 + spread), t / (1.0 + spread),
         np.full(t.shape, np.nan), np.zeros(t.shape)],
        t * 10.0 ** rng.uniform(-3, 3, t.shape))


@settings(max_examples=300, deadline=None)
@given(dim=st.integers(1, 8), n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1),
       tol=st.sampled_from([3e-16, 1e-10, 0.5]), floor=st.sampled_from([0.0, 1e-300, 1.0]),
       scale=st.sampled_from([1e-6, 0.3, 1.0, 1e6]))
def test_norm_decisions_equal_the_exact_comparison(dim, n, seed, tol, floor, scale):
    # x <= tol*max(||A||, floor), x <= tol*max(||A||*||B||, floor) and x > tol*||A||,
    # decided from the bracket, against the exact SVD norms: ties, neighbours and NaN included
    rng = np.random.default_rng(seed)
    A = scale * _magnitudes(rng, (n, dim, dim), -1, 0.5)
    B = _magnitudes(rng, (n, dim, dim), -1, 0.5)
    A[rng.random(n) < 0.2] = 0.0
    nA, nB = operator_norms(A), operator_norms(B)
    checks = [
        (lambda x, a, b: x <= tol * np.maximum(a, floor), tol * np.maximum(nA, floor)),
        (lambda x, a, b: x <= tol * np.maximum(a * b, floor), tol * np.maximum(nA * nB, floor)),
        (lambda x, a, b: x > tol * a, tol * nA),
    ]
    for check, t in checks:
        x = _around(rng, t, dim)
        norms = linalg._Norms((A, B), (False, False))
        assert np.array_equal(norms.decide(lambda a, b: check(x, a, b), 0, 1), check(x, nA, nB))


@settings(max_examples=300, deadline=None)
@given(dim=st.integers(1, 8), n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1),
       tol=st.sampled_from([3e-16, 1e-10, 0.5]), floor=st.sampled_from([0.0, 1e-300, 1.0]),
       scale=st.sampled_from([1e-6, 0.3, 1.0, 1e6]))
def test_norm_decisions_falling_with_a_norm_equal_the_exact_comparison(dim, n, seed, tol, floor,
                                                                       scale):
    # ||R|| <= tol*max(||A||, floor) and ||R|| > tol*max(||A||*||B||, floor), decided from the
    # brackets: each falls with one norm and rises with the others, or the reverse. R is
    # scaled so that its norm lands at, next to or inside the bracket around the threshold.
    rng = np.random.default_rng(seed)
    A = scale * _magnitudes(rng, (n, dim, dim), -1, 0.5)
    B = _magnitudes(rng, (n, dim, dim), -1, 0.5)
    A[rng.random(n) < 0.2] = 0.0
    R = _magnitudes(rng, (n, dim, dim), -1, 0.5)
    nA, nB, unit = operator_norms(A), operator_norms(B), operator_norms(R)
    checks = [
        (lambda a, b, r: r <= tol * np.maximum(a, floor), (2,), tol * np.maximum(nA, floor)),
        (lambda a, b, r: r > tol * np.maximum(a * b, floor), (0, 1),
         tol * np.maximum(nA * nB, floor)),
    ]
    for check, falling, t in checks:
        with np.errstate(invalid="ignore", over="ignore"):  # a NaN or infinite target
            target = R * (np.nan_to_num(_around(rng, t, dim), posinf=0.0) / unit)[:, None, None]
        nR = operator_norms(target)
        norms = linalg._Norms((A, B, target), (False, False, False))
        assert np.array_equal(norms.decide(check, 0, 1, 2, falling=falling), check(nA, nB, nR))


# ---------------------------------------------------------- family_derivative

def _derivative(F, t):
    """dF/dt at one time through the stacked kernel."""
    return family_derivatives(F, [t])[0][0]


def test_family_grid_stack_is_kept_read_only_and_not_kept_when_it_raises():
    seen = []
    M = np.array([[1.0, 2.0j], [0.5, -1.0]])

    def evaluate(t):
        seen.append(t)
        return M * (math.nan if t == 2.0 else t)

    fam = OperatorFamily(0.0, 3.0, evaluate)
    grid = np.linspace(0.0, 1.0, 5)
    stack = fam.on_grid(grid)
    assert np.array_equal(stack, fam.stack(grid)) and not stack.flags.writeable
    assert fam.on_grid(list(grid)) is stack and seen == [*grid, *grid]
    with pytest.raises(ValueError, match="strictly increasing"):
        fam.on_grid([0.0, 0.0])
    with pytest.raises(ValueError) as err:
        fam.on_grid([1.0, 2.0, 3.0])
    assert str(err.value) == "family value at t=2.0 contains non-finite entries"
    assert fam.on_grid(grid) is stack  # the failed grid kept nothing
    assert fam.on_grid(grid[:3]) is not stack and fam.on_grid(grid) is not stack


def test_family_derivative_constant_and_linear():
    M = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    const = OperatorFamily(0.0, 10.0, lambda t: M)
    assert np.allclose(_derivative(const, 5.0), 0.0)
    linear = OperatorFamily(0.0, 10.0, lambda t: t * M)
    assert np.allclose(_derivative(linear, 5.0), M, atol=1e-10)


def test_family_derivative_analytic_wins():
    M = np.eye(2, dtype=complex)
    fam = OperatorFamily(0.0, 1.0, lambda t: t * M, lambda t: 7.0 * M)
    assert np.allclose(_derivative(fam, 0.5), 7.0 * M)


def test_family_derivative_two_level_metric_operator():
    # central difference of C(alpha(t)) against alpha' * (tan(a) C + i diag(1,-1))
    omega = 0.8

    def C_of_t(t):
        return two_level_matrices(1.0, omega * t)[1]

    fam = OperatorFamily(-10.0, 10.0, C_of_t)
    t = 0.45
    a = omega * t
    C = C_of_t(t)
    expected = omega * (math.tan(a) * C + 1j * np.diag([1.0, -1.0]))
    got = _derivative(fam, t)
    assert operator_norm(got - expected) < 1e-8


def test_family_derivative_quadratic_convergence():
    # the step is 1e-5 * |t| for |t| > 1: the same function, shifted to t = 100 and t = 50,
    # is differenced at 0.7 with steps 1e-3 and 5e-4
    def shifted(t0):
        return OperatorFamily(-200.0, 200.0, lambda t: np.array(
            [[np.sin(t - t0 + 0.7), 0], [0, np.cos(2 * (t - t0 + 0.7))]], dtype=complex))

    t = 0.7
    exact = np.array([[np.cos(t), 0], [0, -2 * np.sin(2 * t)]], dtype=complex)
    err_h = operator_norm(_derivative(shifted(100.0), 100.0) - exact)
    err_h2 = operator_norm(_derivative(shifted(50.0), 50.0) - exact)
    ratio = err_h / err_h2
    assert 4.0 * 0.8 <= ratio <= 4.0 * 1.2


def test_family_derivative_one_sided_at_edge():
    fam = OperatorFamily(0.0, 1.0, lambda t: np.array([[np.sin(t)]], dtype=complex))
    values, one_sided = family_derivatives(fam, [0.0])
    assert one_sided == 1
    assert abs(values[0][0, 0] - 1.0) < 1e-6


# --------------------------------------------------------- family_derivatives

STENCIL_M = np.array([[1.0, 2.0 - 1.0j], [0.5j, -3.0]])
DIFFERENCED = OperatorFamily(0.0, 1.0, lambda t: np.sin(3.0 * t) * STENCIL_M + t * t * STENCIL_M.T)
ANALYTIC = OperatorFamily(0.0, 1.0, lambda t: np.sin(t) * STENCIL_M,
                          lambda t: np.cos(t) * STENCIL_M)
# interior times, both ends, and times closer to an end than one step
STENCIL_TIMES = np.array([0.0, 3e-6, 0.25, 0.5, 0.7, 1.0 - 3e-6, 1.0, 0.999, 1e-3])


@pytest.mark.parametrize("fam", [DIFFERENCED, ANALYTIC], ids=["differenced", "analytic"])
@pytest.mark.parametrize("h", [None, 1e-3, 0.2], ids=["default-h", "h=1e-3", "h=0.2"])
def test_family_derivatives_bit_identical_to_one_point_stencil(fam, h):
    # h is the step as a share of the domain: on |t| <= 1 the step is 1e-5, so the family is
    # taken on [0, 1e-5 / h], and the stencil times with it
    width = 1.0 if h is None else 1e-5 / h
    scaled = OperatorFamily(0.0, width, lambda t: fam.evaluate(t / width),
                            fam.derivative and (lambda t: fam.derivative(t / width) / width))
    times = STENCIL_TIMES * width
    values, one_sided = family_derivatives(scaled, times)
    ref = [reference_derivative_stencil(scaled, t) for t in times]
    assert same_bits(values, np.array([value for value, _ in ref]))
    assert one_sided == sum(edge for _, edge in ref)
    if fam is DIFFERENCED:
        assert 0 < one_sided < STENCIL_TIMES.size


def _stencil_error(fam, t):
    with pytest.raises(ValueError) as err:
        reference_derivative_stencil(fam, t)
    return str(err.value)


def test_family_derivatives_raise_the_earliest_one_point_error():
    tiny = OperatorFamily(0.0, 1e-5, lambda t: t * STENCIL_M)
    with pytest.raises(ValueError) as err:
        family_derivatives(tiny, [0.5e-5, 0.0])
    assert str(err.value) == _stencil_error(tiny, 0.5e-5)
    assert "too small for step" in str(err.value)
    # a stencil time outside the domain (forward from t = -0.5) comes first
    with pytest.raises(ValueError) as err:
        family_derivatives(DIFFERENCED, [0.5, -0.5, 2.0])
    assert str(err.value) == _stencil_error(DIFFERENCED, -0.5)
    assert "outside family domain" in str(err.value)
    # a non-finite value at an earlier time wins over a later domain error
    holes = OperatorFamily(0.0, 1.0, lambda t: STENCIL_M * (math.nan if t > 0.6 else 1.0))
    with pytest.raises(ValueError) as err:
        family_derivatives(holes, [0.5, 0.7, -0.5])
    assert str(err.value) == _stencil_error(holes, 0.7)
    bad = OperatorFamily(0.0, 1.0, lambda t: STENCIL_M, lambda t: np.full((2, 2), math.nan))
    with pytest.raises(ValueError) as err:
        family_derivatives(bad, [0.25, 0.5])
    assert str(err.value) == _stencil_error(bad, 0.25)


def test_family_derivatives_name_the_failing_time_in_index():
    # a stencil node's failure names the time it is differenced for, as does a domain error
    holes = OperatorFamily(0.0, 1.0, lambda t: STENCIL_M * (math.nan if t > 0.6 else 1.0))
    with pytest.raises(NonFiniteError) as err:
        family_derivatives(holes, [0.25, 0.5, 0.6 - 0.5e-5, 0.9])  # central at 0.6 - 5e-6
    assert err.value.index == 2 and "t=0.60000" in str(err.value)
    edge = OperatorFamily(0.0, 1.0, lambda t: STENCIL_M * (math.nan if t == 1.0 else 1.0))
    with pytest.raises(NonFiniteError) as err:
        family_derivatives(edge, [0.0, 0.5, 1.0])  # backward from t = 1: t is its first node
    assert err.value.index == 2 and str(err.value) == _stencil_error(edge, 1.0)
    with pytest.raises(ValueError, match="outside family domain") as err:
        family_derivatives(DIFFERENCED, [0.5, 0.7, -0.5])
    assert err.value.index == 2
    tiny = OperatorFamily(0.0, 1e-5, lambda t: t * STENCIL_M)
    with pytest.raises(ValueError, match="too small for step") as err:
        family_derivatives(tiny, [0.0, 0.5e-5])
    assert err.value.index == 0
    bad = OperatorFamily(0.0, 1.0, lambda t: STENCIL_M,
                         lambda t: STENCIL_M * (math.nan if t == 0.5 else 1.0))
    with pytest.raises(NonFiniteError) as err:
        family_derivatives(bad, [0.25, 0.5])
    assert err.value.index == 1


@pytest.mark.parametrize("vectorized", [False, True])
def test_analytic_derivatives_obey_the_family_domain(vectorized):
    # With or without its analytic derivative, a family differenced past its domain raises
    # the error its stack raises there, naming that time and its position; the analytic
    # derivative is not called there. Inside the domain its values are the derivative's.
    seen = []

    def derivative(t):
        seen.append(t)
        return np.cos(t)[..., None, None] * STENCIL_M

    analytic = OperatorFamily(0.0, 1.0, lambda t: np.sin(t)[..., None, None] * STENCIL_M,
                              derivative, vectorized=vectorized)
    for fam in (analytic, DIFFERENCED):
        with pytest.raises(ValueError) as err:
            family_derivatives(fam, [0.5, 2.0])
        assert str(err.value) == "t=2.0 outside family domain [0.0, 1.0]" and err.value.index == 1
    with pytest.raises(ValueError) as err:
        analytic.stack([0.5, 2.0])
    assert str(err.value) == "t=2.0 outside family domain [0.0, 1.0]" and err.value.index == 1
    assert 2.0 not in np.hstack(seen)
    values, one_sided = family_derivatives(analytic, [0.25, 0.5])
    assert same_bits(values, np.array([ANALYTIC.derivative(t) for t in (0.25, 0.5)]))
    assert one_sided == 0


# ---------------------------------------------------------- AntilinearOperator

def test_antilinear_operator_apply():
    # T is held as the complex matrix K of x -> K conj(x), checked as any operator
    K = np.array([[0.0, 1.0], [1.0, 0.0]])
    T = AntilinearOperator(K)
    assert T.conj_matrix.dtype == complex and np.array_equal(T.conj_matrix, K)
    with pytest.raises(ValueError, match="conj_matrix must be square"):
        AntilinearOperator(np.ones((2, 3)))


def test_antilinear_conjugation():
    T = AntilinearOperator.conjugation(3)
    assert T.conj_matrix.dtype == complex and np.array_equal(T.conj_matrix, np.eye(3))


# ---------------------------------------------------------- OperatorFamily.stack

def _call_error(fam, t):
    with pytest.raises(ValueError) as err:
        fam(t)
    return str(err.value)


def test_family_stack_matches_pointwise_calls():
    M = np.array([[1.0, 2.0j], [0.5, -1.0]])
    fam = OperatorFamily(0.0, 1.0, lambda t: np.sin(t) * M)
    times = np.linspace(0.0, 1.0, 7)
    stacked = fam.stack(times)
    assert stacked.shape == (7, 2, 2) and stacked.dtype == complex
    assert np.array_equal(stacked, np.array([fam(t) for t in times]))


def test_family_stack_errors_name_the_earliest_offending_time():
    M = np.eye(2)
    bad = {0.25, 0.5}
    fam = OperatorFamily(0.0, 0.8, lambda t: M * (math.nan if t in bad else 1.0))
    times = np.array([0.0, 0.25, 0.5, 0.9, 1.0])
    with pytest.raises(ValueError) as err:
        fam.stack(times)
    assert str(err.value) == _call_error(fam, 0.25)
    # a non-finite value before the domain's end wins; after it, the domain error
    with pytest.raises(ValueError) as err:
        fam.stack(times[[0, 3, 4]])
    assert str(err.value) == _call_error(fam, 0.9)
    calls = []
    counted = OperatorFamily(0.0, 0.8, lambda t: calls.append(t) or M)
    with pytest.raises(ValueError, match="outside family domain"):
        counted.stack(times)
    assert calls == [0.0, 0.25, 0.5]
    with pytest.raises(ValueError) as err:
        OperatorFamily(0.0, 1.0, lambda t: np.ones((2, 3))).stack(times)
    assert str(err.value) == _call_error(OperatorFamily(0.0, 1.0, lambda t: np.ones((2, 3))), 0.0)
    ragged = OperatorFamily(0.0, 1.0, lambda t: np.eye(2) if t < 0.5 else np.ones((1, 2)))
    with pytest.raises(ValueError) as err:
        ragged.stack(times)
    assert str(err.value) == _call_error(ragged, 0.5)


def test_family_stack_names_the_time_a_value_changes_shape():
    mixed = OperatorFamily(0.0, 1.0, lambda t: np.eye(2) if t < 0.5 else np.eye(3))
    with pytest.raises(ValueError) as err:
        mixed.stack(np.linspace(0.0, 1.0, 5))
    assert str(err.value) == "family value at t=0.5 has shape (3, 3), expected (2, 2)"
    # a value the one-point check rejects, before the shape changes, is raised first
    early = OperatorFamily(0.0, 1.0, lambda t: np.eye(3) if t > 0.5 else np.full((2, 2), np.nan))
    with pytest.raises(NonFiniteError, match="^family value at t=0.0 contains non-finite"):
        early.stack(np.linspace(0.0, 1.0, 5))


def _nan_then_raise(t):
    if t == 0.25:
        return np.full((2, 2), math.nan)
    if t == 0.5:
        raise ValueError("evaluate failed at t=0.5")
    return np.eye(2)


@pytest.mark.parametrize("evaluate, first", [
    (_nan_then_raise, 0.25),
    (lambda t: np.eye(2) if t < 0.4 else _nan_then_raise(0.5), 0.5),
], ids=["non-finite-first", "evaluate-error-first"])
def test_family_stack_reports_a_bad_value_before_an_evaluate_error(evaluate, first):
    # evaluate raising at a later time than a rejected value: the one-point
    # loop stops at the rejected value, and so does the stack
    fam = OperatorFamily(0.0, 1.0, evaluate)
    with pytest.raises(ValueError) as err:
        fam.stack(np.linspace(0.0, 1.0, 5))
    assert str(err.value) == _call_error(fam, first)


@pytest.mark.parametrize("vectorized", [False, True], ids=["per-point", "vectorized"])
def test_family_stack_errors_carry_their_position(vectorized):
    times = np.linspace(0.0, 1.0, 5)
    cases = [  # (evaluate, times, index, message)
        (lambda t: np.eye(2) * (math.nan if t == 0.5 else 1.0), times, 2,
         "family value at t=0.5 contains non-finite entries"),
        (lambda t: np.eye(2) if t < 0.5 else np.eye(3), times, 2,
         "family value at t=0.5 has shape (3, 3), expected (2, 2)"),
        (lambda t: np.ones((2, 3)), times, 0,
         "family value at t=0.0 must be square, got shape (2, 3)"),
        (_nan_then_raise, times, 1, "family value at t=0.25 contains non-finite entries"),
        (lambda t: np.eye(2), np.array([0.0, 0.5, 2.0]), 2,
         "t=2.0 outside family domain [0.0, 1.0]"),
    ]
    for evaluate, at, index, message in cases:
        def stacked(t, evaluate=evaluate):  # the array form: one value per time
            return np.array([evaluate(x) for x in t]) if np.ndim(t) else evaluate(t)
        fam = OperatorFamily(0.0, 1.0, stacked if vectorized else evaluate, vectorized=vectorized)
        with pytest.raises(ValueError) as err:
            fam.stack(at)
        assert (err.value.index, str(err.value)) == (index, message)


def test_vectorized_callback_raising_on_the_array_is_taken_one_time_at_a_time():
    # the earliest time whose value fails, or raises; else the array's own error, at index 0
    def raising(t):
        if np.ndim(t):
            raise ValueError("no array form")
        if t == 0.75:
            raise ValueError(f"no value at t={t}")
        return np.eye(2) * (math.nan if t == 0.5 else 1.0)

    times = np.linspace(0.0, 1.0, 5)
    fam = OperatorFamily(0.0, 1.0, raising, vectorized=True)
    with pytest.raises(NonFiniteError, match=r"^family value at t=0\.5 contains") as err:
        fam.stack(times)
    assert err.value.index == 2
    with pytest.raises(ValueError, match=r"^no value at t=0\.75$") as err:
        fam.stack(times[[0, 1, 3]])
    assert err.value.index == 2
    with pytest.raises(ValueError, match="^no array form$") as err:
        fam.stack(times[:2])
    assert err.value.index == 0
