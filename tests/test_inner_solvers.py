"""Direct and LSQR inner solves, pseudoinverse applications, certificates."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import varproj as vp
from varproj import cli, inner_solvers
from varproj.inner_solvers import (
    LSQR_MAX_ITERATIONS,
    DirectFactorization,
    NumericalBreakdownError,
    SingularSystemError,
    _Gram,
    _norm,
    _sym_ortho,
)
from varproj.linops import normal_band

from conftest import band_route_stack, decaying_band_stack, random_stacked


EPS = np.finfo(float).eps


def _identity_stack(n, lam=1.0):
    return vp.stack(vp.DenseOperator(np.eye(n)), vp.DenseOperator(np.eye(n)), lam)


def svd_condition_number(op):
    """kappa_2 of the materialized operator from numpy's SVD, independent of
    the Gram matrix; None when sigma_min <= max(m, n) eps sigma_max, the
    default rank tolerance of ``numpy.linalg.matrix_rank``."""
    s = np.linalg.svd(op.to_dense(), compute_uv=False)
    return None if s[-1] <= max(op.shape) * EPS * s[0] else float(s[0] / s[-1])


def gram_spectrum(op):
    """lo, hi and delta of ``condition_number(op)``: the extreme computed
    eigenvalues of its Gram and their error bound, delta restated here from
    the Gram's rounding terms as ``_Gram.condition_number`` documents it."""
    gram = _Gram(op)
    g, bound, dropped = gram._rounding()
    delta = (g * bound + dropped + op.cols * EPS * (1.0 + g) * bound) * (1.0 + 16.0 * EPS)
    return (*gram.extreme_eigenvalues(), delta)


def assert_certified_kappa(op):
    """``condition_number`` raises ``SingularSystemError`` exactly when the
    smallest computed Gram eigenvalue lo is at most its error bound delta.
    Otherwise the SVD's kappa lies below the returned kappa_bar, and
    kappa_bar below it times (1 + b) / (1 - b), b = delta / lo, both up to
    the SVD's own error of about max(m, n) eps kappa and 8 eps for the last
    factor and the rounding of kappa_bar. Returns the relative gap
    kappa_bar / kappa_svd - 1, or None when it raised."""
    lo, _, delta = gram_spectrum(op)
    expected = svd_condition_number(op)
    if not lo > delta:
        with pytest.raises(SingularSystemError, match=r"set \[schedules\] epsilon0"):
            vp.condition_number(op)
        return None
    kappa = vp.condition_number(op)
    assert expected is not None
    b = delta / lo
    slack = (max(op.shape) * expected + 8.0) * EPS
    gap = kappa / expected - 1.0
    assert -slack <= gap <= 2.0 * b / (1.0 - b) + slack
    return gap


class TestDirectSolve:
    def test_identity_plus_identity(self):
        op = _identity_stack(3)
        b = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(DirectFactorization(op).solve_rhs(b), b / 2.0, rtol=1e-14)

    def test_diagonal_with_zero_lambda(self):
        op = vp.stack(vp.DenseOperator(np.diag([2.0, 1.0])),
                      vp.DenseOperator(np.eye(2)), 0.0)
        np.testing.assert_allclose(DirectFactorization(op).solve_rhs(np.array([4.0, 3.0])),
                                   np.array([2.0, 3.0]), rtol=1e-14)

    def test_benchmark_normal_equation_residual(self, problem):
        op = vp.stacked_operator(problem, 3.0)
        x = DirectFactorization(op).solve_rhs(problem.b)
        dense = op.to_dense()
        rhs = dense[:128].T @ problem.b
        lhs = dense.T @ (dense @ x)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_solve_then_multiply_round_trip(self):
        rng = np.random.default_rng(11)
        op = vp.stack(vp.DenseOperator(rng.standard_normal((8, 4))),
                      vp.DenseOperator(rng.standard_normal((3, 4))), 0.7)
        fact = DirectFactorization(op)
        normal = op.to_dense().T @ op.to_dense()
        for _ in range(5):
            v = rng.standard_normal(4)
            np.testing.assert_allclose(normal @ fact.solve_normal(v), v,
                                       rtol=0, atol=1e-8 * np.linalg.norm(v))

    def test_singular_system_names_pivot(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        op = vp.stack(vp.DenseOperator(a), vp.DenseOperator(np.zeros((1, 2))), 0.0)
        with pytest.raises(SingularSystemError, match="smallest eigenvalue"):
            DirectFactorization(op).solve_rhs(np.array([1.0, 1.0]))

    def test_singular_band_system_names_pivot(self):
        op = vp.stack(vp.SymmetricToeplitzOperator(np.zeros(16)),
                      vp.FirstDifferenceOperator(np.ones(15)), 0.0)
        assert normal_band(op) is not None
        with pytest.raises(SingularSystemError, match="smallest eigenvalue"):
            DirectFactorization(op)

    @pytest.mark.parametrize("n", [128, 1024])
    def test_overflowed_gram_is_a_singular_system(self, n):
        # lam = 1e160 squares past the largest double: in dsyrk on the dense
        # route (n = 128), and on the band route (n = 1024) in add_gram. No
        # factorization or eigensolver gets the Gram, and the Gram's own
        # check is the one verdict: numpy does not warn of the overflow.
        op = vp.stacked_operator(vp.build_problem(vp.BenchConfig(n=n, lam=1e160)), 2.0)
        for build in (DirectFactorization, vp.condition_number):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SingularSystemError, match="non-finite entry"):
                    build(op)

    @pytest.mark.parametrize("n,y", [(512, 2.0), (1024, 2.0), (1024, 4.0)])
    def test_band_path_matches_dense(self, n, y):
        problem = vp.build_problem(vp.BenchConfig(n=n))
        op = vp.stacked_operator(problem, y)
        assert normal_band(op) is not None
        fact = DirectFactorization(op)
        s = op.to_dense()
        dense = scipy.linalg.cho_factor(s.T @ s, lower=True)
        # Both solve S^T S x = v backward stably, so they agree to about
        # eps kappa_2(S^T S) = eps kappa_2(S)^2 (1e-9 to 3e-9 here).
        tol = EPS * vp.condition_number(op) ** 2
        rng = np.random.default_rng(16)
        for _ in range(3):
            v = rng.standard_normal(n)
            expected = scipy.linalg.cho_solve(dense, v)
            assert np.linalg.norm(fact.solve_normal(v) - expected) <= tol * np.linalg.norm(expected)
        expected = scipy.linalg.cho_solve(dense, s[:n].T @ problem.b)
        assert np.linalg.norm(fact.solve_rhs(problem.b) - expected) <= tol * np.linalg.norm(expected)

    @pytest.mark.parametrize("y", [2.0, 2.9, 3.07, 4.0])
    def test_band_solve_matches_lstsq(self, y):
        # The band keeps 24 to 49 of the 106 to 212 diagonals of S^T S here;
        # the solution still agrees with an SVD-based least-squares solve.
        problem = vp.build_problem(vp.BenchConfig(n=1024))
        op = vp.stacked_operator(problem, y)
        fact = DirectFactorization(op)
        assert fact.banded and fact.normal.shape[0] - 1 < 2 * op.top._band_k
        d = np.concatenate([problem.b, np.zeros(op.bottom.rows)])
        expected = np.linalg.lstsq(op.to_dense(), d, rcond=None)[0]
        x = fact.solve_rhs(problem.b)
        assert np.linalg.norm(x - expected) <= 1e-9 * np.linalg.norm(expected)

    @pytest.mark.parametrize("n", [48, 128])
    def test_dense_normal_is_the_lower_triangle_of_the_gram(self, n):
        # dsyrk fills the lower triangle bit for bit as numpy's dense.T @ dense
        # and leaves zeros above it. At n = 128 the widths up to 1.2 are
        # block-applied, so their Gram takes the band route instead.
        problem = vp.build_problem(vp.BenchConfig(n=n))
        for y in np.linspace(1.0, 4.0, 31):
            op = vp.stacked_operator(problem, float(y))
            fact = DirectFactorization(op)
            assert fact.banded == (n == 128 and y < 1.25)
            if fact.banded:
                continue
            dense = op.to_dense()
            np.testing.assert_array_equal(fact.normal, np.tril(dense.T @ dense))


@pytest.fixture()
def random_fact():
    rng = np.random.default_rng(12)
    op = vp.stack(vp.DenseOperator(rng.standard_normal((9, 4))),
                  vp.DenseOperator(rng.standard_normal((3, 4))), 0.5)
    return DirectFactorization(op), rng


def _pinv(fact, z):
    """S^dagger z = (S^T S)^{-1} S^T z through the factorization's solve, the
    way ``exact_jacobian`` applies it."""
    return fact.solve_normal(fact.op.rmatvec(z))


def _pinv_transpose(fact, w):
    """(S^dagger)^T w = S (S^T S)^{-1} w."""
    return fact.op.matvec(fact.solve_normal(w))


def _projector_perp(fact, z):
    """P_perp z = z - S S^dagger z, the projection onto the complement of range(S)."""
    return z - fact.op.matvec(_pinv(fact, z))


class TestPinvApplications:
    # The pieces of each Jacobian column, from DirectFactorization.solve_normal
    # and the operator alone, at vectors the Jacobian oracle does not reach.
    def test_left_inverse_property(self, random_fact):
        fact, rng = random_fact
        w = rng.standard_normal(4)
        z = fact.op.matvec(w)
        np.testing.assert_allclose(_pinv(fact, z), w,
                                   rtol=0, atol=1e-8 * np.linalg.norm(w))

    def test_annihilates_orthogonal_complement(self, random_fact):
        fact, rng = random_fact
        dense = fact.op.to_dense()
        u, _, _ = np.linalg.svd(dense, full_matrices=True)
        z = u[:, -1]  # orthogonal to range(S)
        out = _pinv(fact, z)
        assert np.linalg.norm(out) <= 1e-8

    def test_matches_svd_pseudoinverse(self, random_fact):
        fact, rng = random_fact
        pinv = np.linalg.pinv(fact.op.to_dense())
        for _ in range(5):
            z = rng.standard_normal(fact.op.rows)
            expected = pinv @ z
            np.testing.assert_allclose(_pinv(fact, z), expected,
                                       rtol=0, atol=1e-8 * np.linalg.norm(expected))

    def test_transpose_recovers_range_vector(self, random_fact):
        fact, rng = random_fact
        w0 = rng.standard_normal(4)
        z = fact.op.matvec(w0)  # z in range(S)
        w = fact.op.rmatvec(z)
        np.testing.assert_allclose(_pinv_transpose(fact, w), z,
                                   rtol=0, atol=1e-8 * np.linalg.norm(z))

    def test_transpose_result_in_range(self, random_fact):
        fact, rng = random_fact
        for _ in range(5):
            w = rng.standard_normal(4)
            out = _pinv_transpose(fact, w)
            perp = _projector_perp(fact, out)
            assert np.linalg.norm(perp) <= 1e-8 * max(np.linalg.norm(out), 1e-30)

    def test_transpose_matches_svd_oracle(self, random_fact):
        fact, rng = random_fact
        pinv_t = np.linalg.pinv(fact.op.to_dense()).T
        for _ in range(5):
            w = rng.standard_normal(4)
            expected = pinv_t @ w
            np.testing.assert_allclose(_pinv_transpose(fact, w), expected,
                                       rtol=0, atol=1e-8 * np.linalg.norm(expected))

    def test_projector_annihilates_range(self, random_fact):
        fact, rng = random_fact
        z = fact.op.matvec(rng.standard_normal(4))
        assert np.linalg.norm(_projector_perp(fact, z)) <= 1e-8 * np.linalg.norm(z)

    def test_projector_idempotent(self, random_fact):
        fact, rng = random_fact
        z = rng.standard_normal(fact.op.rows)
        once = _projector_perp(fact, z)
        twice = _projector_perp(fact, once)
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-8 * np.linalg.norm(once))

    def test_projector_matches_thin_svd(self, random_fact):
        fact, rng = random_fact
        u, _, _ = np.linalg.svd(fact.op.to_dense(), full_matrices=False)
        for _ in range(5):
            z = rng.standard_normal(fact.op.rows)
            expected = z - u @ (u.T @ z)
            np.testing.assert_allclose(_projector_perp(fact, z), expected,
                                       rtol=0, atol=1e-8 * np.linalg.norm(z))


@st.composite
def stacked_with_rank(draw):
    """A random stacked operator [A; lam L] and whether it is rank deficient.

    The top A is m x n with m >= n and its first z columns zeroed; L is a
    random q x n matrix. Such a stack has full column rank (almost surely)
    unless z > 0 and the bottom cannot cover the zeroed columns, that is
    lam = 0 or q < z.
    """
    n = draw(st.integers(1, 8))
    m = draw(st.integers(n, 16))
    q = draw(st.integers(0, 6))
    z = draw(st.integers(0, min(2, n)))
    lam = draw(st.one_of(st.just(0.0), st.floats(0.1, 2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = rng.standard_normal((m, n))
    top[:, :z] = 0.0
    op = vp.stack(vp.DenseOperator(top), vp.DenseOperator(rng.standard_normal((q, n))), lam)
    return op, z > 0 and (lam == 0.0 or q < z)


@st.composite
def band_stacks(draw):
    """A ``band_route_stack`` or a ``decaying_band_stack`` at n = 64 to 256,
    with lam = 0 or drawn from [1e-3, 2]."""
    n = draw(st.integers(64, 256))
    seed = draw(st.integers(0, 2**32 - 1))
    lam = draw(st.one_of(st.just(0.0), st.floats(1e-3, 2.0)))
    if draw(st.booleans()):
        return decaying_band_stack(n, seed, lam)
    return band_route_stack(n, draw(st.integers(0, (n // 2 - 1) // 4)), seed, lam)


class TestConditionNumber:
    def test_identity(self):
        op = vp.stack(vp.DenseOperator(np.eye(3)), vp.DenseOperator(np.zeros((0, 3))), 0.0)
        assert vp.condition_number(op) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        op = vp.stack(vp.DenseOperator(np.diag([3.0, 1.0])),
                      vp.DenseOperator(np.eye(2)), 0.0)
        assert vp.condition_number(op) == pytest.approx(3.0, rel=1e-12)

    def test_benchmark_regularization_tames_conditioning(self, problem):
        op = vp.stacked_operator(problem, 3.0)
        kappa_stacked = vp.condition_number(op)
        s = np.linalg.svd(problem.model.operator(np.array([3.0])).to_dense(),
                          compute_uv=False)
        kappa_forward = s[0] / s[-1]
        assert np.isfinite(kappa_stacked)
        assert kappa_stacked < 1e-4 * kappa_forward
        # recorded fixture value for the shipped signal and weights
        assert kappa_stacked == pytest.approx(5609.002, rel=1e-5)

    @pytest.mark.parametrize("n,banded", [(128, False), (512, True)])
    def test_factorization_answers_from_its_own_gram(self, n, banded, monkeypatch):
        # kappa_bar and lambda_max come from the Gram the factorization holds:
        # no second Gram, no second materialization, one eigen-solve for both.
        op = vp.stacked_operator(vp.build_problem(vp.BenchConfig(n=n)), 2.0)
        expected = vp.condition_number(op)
        sigma = np.linalg.svd(op.to_dense(), compute_uv=False)
        fact = DirectFactorization(op)
        assert fact.banded == banded
        solves = []

        def refuse(*args, **kwargs):
            raise AssertionError("built a second Gram or materialized S again")

        def counting(original):
            def wrapper(*args, **kwargs):
                solves.append(args)
                return original(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(_Gram, "__init__", refuse)
        monkeypatch.setattr(vp.StackedOperator, "to_dense", refuse)
        for name in ("eigvals_banded", "eigvalsh"):
            monkeypatch.setattr(scipy.linalg, name, counting(getattr(scipy.linalg, name)))
        assert fact.condition_number() == expected
        lo, hi = fact.extreme_eigenvalues()
        assert math.sqrt(hi) == pytest.approx(sigma[0], rel=1e-12)
        assert lo == pytest.approx(sigma[-1] ** 2, rel=1e-5)
        assert len(solves) == 1
        assert fact.condition_number_below(1.02 * expected)

    @pytest.mark.parametrize("n,banded", [(128, False), (512, True)])
    def test_condition_number_is_the_factorizations_without_factoring(self, n, banded,
                                                                      monkeypatch):
        # condition_number(op) builds the same Gram as a DirectFactorization
        # and answers as it does, bit for bit, with no Cholesky factorization.
        op = vp.stacked_operator(vp.build_problem(vp.BenchConfig(n=n)), 2.0)
        fact = DirectFactorization(op)
        assert fact.banded == banded

        def refuse(*args, **kwargs):
            raise AssertionError("condition_number ran a Cholesky factorization")
        with monkeypatch.context() as patch:
            for name in ("cho_factor", "cholesky_banded"):
                patch.setattr(scipy.linalg, name, refuse)
            kappa = vp.condition_number(op)
        assert kappa == fact.condition_number()

    def test_rank_deficiency(self):
        op = vp.stack(vp.DenseOperator(np.zeros((3, 2))), vp.DenseOperator(np.zeros((1, 2))), 1.0)
        with pytest.raises(SingularSystemError):
            vp.condition_number(op)

    # Every case takes the band route: the blur is block-applied at these
    # widths from n = 426 on. b = delta / lo was 9.6e-7 to 3.1e-6.
    @pytest.mark.parametrize("n,y", [(n, y) for n in (512, 1024)
                                     for y in (2.0, 2.9, 3.07, 4.0)])
    def test_band_route_within_its_bound_of_the_svd(self, n, y):
        op = vp.stacked_operator(vp.build_problem(vp.BenchConfig(n=n)), y)
        lo, _, delta = gram_spectrum(op)
        assert delta / lo <= 1e-5
        assert_certified_kappa(op)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(band_stacks())
    def test_band_bound_holds_on_random_band_stacks(self, op):
        assert normal_band(op) is not None
        assert_certified_kappa(op)

    def test_band_route_materializes_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("condition_number materialized S or took an SVD")
        for cls in (vp.LinearOperator, vp.DenseOperator, vp.SymmetricToeplitzOperator,
                    vp.FirstDifferenceOperator, vp.StackedOperator):
            monkeypatch.setattr(cls, "to_dense", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        problem = vp.build_problem(vp.BenchConfig(n=1024))
        for y in (2.0, 2.9, 3.07, 4.0):
            vp.condition_number(vp.stacked_operator(problem, y))
        # The set-up of the large-n1024 benchmark workload: eps0 from kappa0
        # at y0 = 2, then one exact outer iteration.
        eps0 = vp.initial_tolerance(vp.condition_number(vp.stacked_operator(problem, 2.0)))
        assert 4e-5 < eps0 < 5e-5
        vp.genvarpro(problem.model, problem.b, problem.L, problem.lam, np.array([2.0]),
                     vp.OuterOptions(max_outer_iterations=1))

    # The dense route's value is the SVD's within its certified bound; the
    # SVD is the oracle. b = delta / lo was 8.0e-7 to 6.4e-6 here.
    @pytest.mark.parametrize("n,y", [(48, 2.0), (128, 1.5), (128, 2.0), (128, 4.0),
                                     (512, 5.0)])
    def test_dense_route_is_the_svd(self, n, y):
        op = vp.stacked_operator(vp.build_problem(vp.BenchConfig(n=n)), y)
        assert normal_band(op) is None
        lo, _, delta = gram_spectrum(op)
        assert delta / lo <= 1e-5
        assert_certified_kappa(op)

    # Decaying band stacks at n = 256 so ill-conditioned that an earlier
    # 1e-4 gate on the band route's bound sent them to an SVD. Their
    # b = delta / lo is finite, 1.9e-4 to 2.5e-2, and kappa_bar is 0.93e-4 to
    # 1.3e-2 above the SVD's kappa.
    @pytest.mark.parametrize("seed,lam", [(28, 0.0), (28, 1e-8), (137, 0.0), (137, 1e-8)])
    def test_band_route_falls_back_to_the_svd(self, seed, lam):
        op = decaying_band_stack(256, seed, lam)
        lo, _, delta = gram_spectrum(op)
        assert normal_band(op) is not None and 1e-4 < delta / lo < 0.1
        assert assert_certified_kappa(op) is not None

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_rank_deficient_band_stack(self, lam):
        # A zero top block over W D: S = 0, or of rank n - 1 (D kills constants).
        op = vp.stack(vp.SymmetricToeplitzOperator(np.zeros(64)),
                      vp.FirstDifferenceOperator(np.linspace(1.0, 3.0, 63)), lam)
        lo, _, delta = gram_spectrum(op)
        assert normal_band(op) is not None and not lo > delta
        with pytest.raises(SingularSystemError):
            vp.condition_number(op)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(stacked_with_rank().map(lambda case: case[0]), band_stacks()))
    def test_certified_upper_bound_or_singular(self, op):
        assert_certified_kappa(op)


@st.composite
def exactly_rank_deficient(draw):
    """A stacked operator [A; lam L] whose last column is an integer
    combination of the others, exactly: small integer entries and a power of
    two lam keep every product and Gram entry exact, and the rounding of the
    Cholesky factorization often lets the singular normal matrix factor."""
    n = draw(st.integers(2, 8))
    m = draw(st.integers(n, 16))
    q = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    full = rng.integers(-3, 4, size=(m + q, n)).astype(float)
    full[:, -1] = full[:, :-1] @ rng.integers(-2, 3, size=n - 1)
    lam = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return vp.stack(vp.DenseOperator(full[:m]), vp.DenseOperator(full[m:] / lam), lam)


# Limits kappa (1 + s) around the SVD's kappa: a certificate below kappa
# would be unsound, one just above it may or may not be given.
RELATIVE_MARGINS = st.floats(-1e-2, 1e-1)


class TestConditionNumberBound:
    """``condition_number_below`` certifies kappa_2(S) < limit only when it is."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(stacked_with_rank(), RELATIVE_MARGINS)
    def test_bounds_svd_condition_number(self, case, s):
        # test_rank_deficient_never_certified covers the rank-deficient stacks.
        op, deficient = case
        if deficient:
            with pytest.raises(SingularSystemError):
                vp.condition_number(op)
            return
        kappa = svd_condition_number(op)
        limit = kappa * (1.0 + s)
        assert kappa < limit or not DirectFactorization(op).condition_number_below(limit)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(24, 96), st.data())
    def test_bounds_condition_number_on_band_route(self, n, data):
        # k is small enough that the Gram band is taken.
        op = band_route_stack(n, data.draw(st.integers(0, (n // 2 - 1) // 4)),
                              data.draw(st.integers(0, 2**32 - 1)),
                              data.draw(st.floats(1e-3, 2.0)))
        assert normal_band(op) is not None
        s = data.draw(RELATIVE_MARGINS)
        kappa = svd_condition_number(op)
        if kappa is None:
            try:
                fact = DirectFactorization(op)
            except SingularSystemError:
                return
            assert not fact.condition_number_below(1e150)
        else:
            limit = kappa * (1.0 + s)
            assert kappa < limit or not DirectFactorization(op).condition_number_below(limit)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(64, 256), st.integers(0, 2**32 - 1), st.floats(1e-3, 2.0),
           RELATIVE_MARGINS)
    def test_bounds_condition_number_on_trimmed_band(self, n, seed, lam, s):
        # The band drops the far diagonals of these Gram matrices.
        op = decaying_band_stack(n, seed, lam)
        try:
            fact = DirectFactorization(op)
        except SingularSystemError:
            return
        assert fact.banded and fact.normal.shape[0] - 1 < 2 * op.top._band_k
        kappa = svd_condition_number(op)
        if kappa is None:
            assert not fact.condition_number_below(1e150)
        else:
            limit = kappa * (1.0 + s)
            assert kappa < limit or not fact.condition_number_below(limit)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(exactly_rank_deficient(), st.floats(1.0, 1e300, exclude_min=True))
    def test_rank_deficient_never_certified(self, op, limit):
        try:
            fact = DirectFactorization(op)
        except SingularSystemError:
            return
        assert not fact.condition_number_below(limit)

    # n = 512 and 1024 take the band route. The margin needed is at most
    # 1.6e-2 at n = 48 (M overestimates lambda_max by 3%), 2.0e-3 at
    # n = 128, 1.3e-4 at n = 512 and 4.5e-5 at n = 1024.
    @pytest.mark.parametrize("y,n", [(y, n) for n in (48, 128, 512, 1024)
                                     for y in (1.5, 2.0, 3.07, 4.0)])
    def test_tight_on_benchmark_operators(self, y, n):
        op = vp.stacked_operator(vp.build_problem(vp.BenchConfig(n=n)), y)
        kappa = svd_condition_number(op)
        fact = DirectFactorization(op)
        assert fact.condition_number_below(1.02 * kappa)
        assert not fact.condition_number_below(kappa)
        if fact.banded:
            assert fact.condition_number_below((1.0 + 2e-4) * kappa)

    @pytest.mark.parametrize("n,banded", [(128, False), (512, True)])
    def test_reads_the_factorizations_normal_matrix(self, n, banded):
        fact = DirectFactorization(vp.stacked_operator(vp.build_problem(vp.BenchConfig(n=n)), 2.0))
        assert fact.banded == banded
        before = fact.normal.copy()
        assert fact.condition_number_below(1e4)
        assert not fact.normal.flags.writeable
        np.testing.assert_array_equal(fact.normal, before)


def exact_gram(op):
    """S^T S in exact rationals, for the S that the certificates of
    ``op``'s Gram speak of: the materialized ``op.to_dense()`` on the dense
    route; on the band route the Toeplitz A of the first row over the
    difference rows with the exact products lam w_i, which ``add_gram``
    rounds."""
    n = op.cols
    if normal_band(op) is None:
        rows = [[Fraction(value) for value in row] for row in op.to_dense()]
    else:
        first = [Fraction(value) for value in op.top.first_row]
        rows = [[first[abs(i - j)] for j in range(n)] for i in range(n)]
        for i, weight in enumerate(op.bottom.weights):
            scaled = Fraction(op.lam) * Fraction(weight)
            rows.append([-scaled if j == i else scaled if j == i + 1 else 0 for j in range(n)])
    return [[sum(row[i] * row[j] for row in rows) for j in range(n)] for i in range(n)]


def eigenvalues_below(gram, t):
    """How many eigenvalues of the exact symmetric ``gram`` lie below t: the
    negative pivots of the LDL^T factorization of gram - t I, by Sylvester's
    law of inertia. Eliminates the lower triangle only."""
    n = len(gram)
    a = [[gram[i][j] - (t if i == j else 0) for j in range(i + 1)] for i in range(n)]
    negative = 0
    for k in range(n):
        pivot = a[k][k]
        assert pivot != 0, "a zero pivot leaves the inertia undecided"
        negative += pivot < 0
        for i in range(k + 1, n):
            factor = a[i][k] / pivot
            for j in range(k + 1, i + 1):
                a[i][j] -= factor * a[j][k]
    return negative


def eigenvalue_bracket(gram, index, estimate):
    """Exact lo < hi with lo <= lambda_index < hi, eigenvalues counted from
    the smallest, hi - lo <= 2^-70 hi, by bisection from a float estimate."""
    lo = hi = Fraction(estimate)
    step = abs(lo) * Fraction(1, 2**20)
    while eigenvalues_below(gram, lo) > index:
        lo, step = lo - step, 2 * step
    while eigenvalues_below(gram, hi) <= index:
        hi, step = hi + step, 2 * step
    while hi - lo > hi / 2**70:
        mid = (lo + hi) / 2
        if eigenvalues_below(gram, mid) > index:
            hi = mid
        else:
            lo = mid
    return lo, hi


class TestExactArithmeticOracle:
    """kappa_bar and the kappa0 certificate against kappa_2(S) bracketed in
    exact rationals, on both storages: numpy.linalg rejects longdouble, so
    the reference is the exact S^T S and the exact inertia of its shifts."""

    @pytest.mark.parametrize("route", ["dense", "band"])
    def test_certificates_hold_against_exact_kappa(self, route):
        rng = np.random.default_rng(31)
        certified_above = 0
        for case in range(8):
            if route == "dense":
                # A square top: kappa reaches the hundreds, not just 1-3.
                n = int(rng.integers(2, 7))
                op = random_stacked(rng, m=n, n=n)
            else:
                op = band_route_stack(8, 1, int(rng.integers(2**32)), float(rng.uniform(0.1, 2.0)))
            fact = DirectFactorization(op)
            assert fact.banded == (route == "band")
            gram = exact_gram(op)
            estimates = np.linalg.eigvalsh(np.array(gram, dtype=float))
            lo_min, hi_min = eigenvalue_bracket(gram, 0, estimates[0])
            lo_max, hi_max = eigenvalue_bracket(gram, op.cols - 1, estimates[-1])
            # kappa_2(S)^2 = lambda_max / lambda_min lies in [below, above].
            below, above = lo_max / hi_min, hi_max / lo_min
            assert Fraction(fact.condition_number()) ** 2 >= above
            kappa = math.sqrt(float(below))
            limits = [kappa * (1.0 + sign * 10.0**-j) for j in (1, 3, 6) for sign in (-1, 1)]
            for limit in [*limits, 2.0 * kappa]:
                square = Fraction(limit) ** 2
                assert square <= below or square > above  # the bracket decides
                certified = fact.condition_number_below(limit)
                assert not (certified and square <= below), (case, limit)
                certified_above += certified
        # The certificate is not vacuous: it holds for some limits above kappa.
        assert certified_above > 0


class TestLsqr:
    def test_identity_stack_converges_immediately(self):
        op = vp.stack(vp.DenseOperator(np.eye(3)), vp.DenseOperator(np.eye(3)), 0.0)
        d = np.array([4.0, 5.0, 6.0, 0.0, 0.0, 0.0])
        sol = vp.lsqr_solve(op, d, 1e-8)
        assert sol.converged
        assert sol.iterations <= 3
        assert sol.achieved_criterion == 0.0
        np.testing.assert_allclose(sol.x_bar, np.array([4.0, 5.0, 6.0]), rtol=1e-12)

    def test_zero_rhs(self):
        op = _identity_stack(3)
        sol = vp.lsqr_solve(op, np.zeros(6), 1e-10)
        assert sol.converged
        assert sol.iterations == 0
        np.testing.assert_array_equal(sol.x_bar, np.zeros(3))

    def test_rhs_orthogonal_to_range(self):
        # range of [I; 0] stacked with lam=0 is the top block only
        op = vp.stack(vp.DenseOperator(np.eye(2)), vp.DenseOperator(np.eye(2)), 0.0)
        d = np.array([0.0, 0.0, 1.0, -1.0])
        sol = vp.lsqr_solve(op, d, 1e-10)
        assert sol.converged
        assert sol.iterations == 0
        np.testing.assert_array_equal(sol.x_bar, np.zeros(2))

    def test_matches_direct_solve_within_bound(self):
        rng = np.random.default_rng(13)
        op = vp.stack(vp.DenseOperator(rng.standard_normal((5, 3))),
                      vp.DenseOperator(rng.standard_normal((3, 3))), 0.8)
        b = rng.standard_normal(5)
        d = np.concatenate([b, np.zeros(3)])
        eps = 1e-12
        sol = vp.lsqr_solve(op, d, eps, operator_norm=np.linalg.norm(op.to_dense(), 2))
        assert sol.converged
        x = DirectFactorization(op).solve_rhs(b)
        kappa = vp.condition_number(op)
        bound = vp.solution_bound(kappa, np.linalg.norm(d), np.linalg.norm(op.to_dense(), 2), eps)
        assert np.linalg.norm(x - sol.x_bar) <= bound

    def test_matrix_free(self, monkeypatch):
        # LSQR only applies the operator: it never materializes it and
        # takes no SVD, with or without a given operator norm.
        class ApplyOnly(vp.LinearOperator):
            def __init__(self, op):
                super().__init__(op.rows, op.cols)
                self.op = op

            def _matvec(self, v):
                return self.op.matvec(v)

            def _rmatvec(self, w):
                return self.op.rmatvec(w)

            def to_dense(self):
                raise AssertionError("lsqr_solve materialized its operator")

        def no_svd(*args, **kwargs):
            raise AssertionError("lsqr_solve took an SVD")

        rng = np.random.default_rng(14)
        op = random_stacked(rng, m=30, n=15, q=5)
        d = rng.standard_normal(op.rows)
        norm = float(np.linalg.svd(op.to_dense(), compute_uv=False)[0])
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for operator_norm in (None, norm):
            sol = vp.lsqr_solve(ApplyOnly(op), d, 1e-8, operator_norm=operator_norm)
            assert sol.converged
            np.testing.assert_array_equal(
                sol.x_bar, vp.lsqr_solve(op, d, 1e-8, operator_norm=operator_norm).x_bar)

    def test_converged_implies_criterion_below_tolerance(self, certificate_corpus):
        for entry in certificate_corpus:
            sol = entry["sol"]
            if sol.converged:
                assert sol.achieved_criterion < entry["eps"]

    def test_criterion_history_finite_nonnegative(self, certificate_corpus):
        for entry in certificate_corpus[:50]:
            hist = entry["sol"].criterion_history
            assert np.all(np.isfinite(hist))
            assert np.all(hist >= 0.0)

    def test_iteration_cap_returns_best_iterate(self, monkeypatch):
        # The last allowed iteration is always checked, so a capped solve
        # has a true criterion to report.
        rng = np.random.default_rng(15)
        op = random_stacked(rng, m=30, n=15, q=5)
        d = rng.standard_normal(op.rows)
        monkeypatch.setattr(inner_solvers, "LSQR_MAX_ITERATIONS", 3)
        sol = vp.lsqr_solve(op, d, 1e-15)
        assert not sol.converged
        assert sol.iterations == 3
        assert len(sol.criterion_history) >= 1
        assert sol.achieved_criterion == np.min(sol.criterion_history)

    def test_compatible_system_stops_at_the_floor(self):
        rng = np.random.default_rng(17)
        op = random_stacked(rng, m=30, n=15, q=5)
        x = rng.standard_normal(op.cols)
        sol = vp.lsqr_solve(op, op.matvec(x), 1e-15)
        assert sol.converged
        assert sol.achieved_criterion == 0.0
        assert sol.criterion_history[-1] == 0.0
        np.testing.assert_allclose(sol.x_bar, x, rtol=0, atol=1e-10 * np.linalg.norm(x))

    def test_exactly_zero_gradient_stops_above_the_floor(self):
        # S = [1; 0; 0]: the first step reaches the least-squares x = 2, where
        # S^T r computes to exactly 0, so the solve stops as converged with
        # criterion 0 although ||r|| = sqrt(10) is some 2.5e14 times the
        # rounding floor 10 eps (||d|| + ||S|| ||x||) of the compatible case.
        op = vp.stack(vp.DenseOperator([[1.0], [0.0]]), vp.DenseOperator(np.zeros((1, 1))), 0.0)
        d = np.array([2.0, -3.0, 1.0])
        sol = vp.lsqr_solve(op, d, 0.01)
        assert sol.converged
        assert sol.iterations == 1
        assert sol.achieved_criterion == 0.0
        np.testing.assert_array_equal(sol.criterion_history, [0.0])
        np.testing.assert_array_equal(sol.x_bar, [2.0])
        r = d - op.matvec(sol.x_bar)
        np.testing.assert_array_equal(op.rmatvec(r), [0.0])
        floor = 10 * EPS * (np.linalg.norm(d) + 2.0)
        assert np.linalg.norm(r) == math.sqrt(10.0) > 1e14 * floor

    def test_rejects_nonfinite_rhs(self):
        op = _identity_stack(2)
        with pytest.raises(ValueError):
            vp.lsqr_solve(op, np.array([1.0, np.nan, 0.0, 0.0]), 1e-6)

    def test_numerical_breakdown_raises(self):
        # An operator that starts emitting non-finite values mid-run must
        # surface as a breakdown error, not silently converge.
        class EvilOperator(vp.LinearOperator):
            def __init__(self):
                super().__init__(4, 2)
                self.calls = 0
                self.applies = 0

            a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 9.0]])

            def _matvec(self, v):
                self.calls += 1
                self.applies += 1
                out = self.a @ v
                if self.calls > 1:
                    out[0] = np.inf
                return out

            def _rmatvec(self, w):
                self.applies += 1
                return self.a.T @ w

        op = EvilOperator()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalBreakdownError, match="non-finite vector norm"):
                vp.lsqr_solve(op, np.array([1.0, 2.0, 3.0, 4.0]), 1e-14)
        # The second Golub-Kahan step makes beta infinite, and the solve
        # raises before it divides by it, with no numpy warning.
        assert op.applies == 4

    @pytest.mark.parametrize("name,value", [
        ("tolerance", 0.0), ("tolerance", math.inf), ("tolerance", math.nan),
        ("operator_norm", 0.0), ("operator_norm", math.inf), ("operator_norm", math.nan),
    ])
    def test_argument_validation(self, name, value):
        kwargs = {"tolerance": 1e-6, name: value}
        with pytest.raises(ValueError, match=name):
            vp.lsqr_solve(_identity_stack(2), np.ones(4), **kwargs)


def _reference_lsqr(op, d, tolerance, operator_norm=None):
    """LSQR with the true criterion at every iteration: the loop that
    ``lsqr_solve`` ran before it screened. Returns (x_bar, iterations,
    achieved_criterion, converged) for a nonzero ``d`` not orthogonal to the
    range of ``op``."""
    beta = d_norm = _norm(d)
    u = d / beta
    v = op.rmatvec(u)
    alfa = _norm(v)
    crit = alfa / (alfa if operator_norm is None else operator_norm)
    if crit < tolerance:
        return np.zeros(op.cols), 0, crit, True
    v = v / alfa
    w = v.copy()
    x = best_x = np.zeros(op.cols)
    rhobar, phibar, anorm2 = alfa, beta, 0.0
    best_crit, stall, itn = math.inf, 0, 0
    while itn < LSQR_MAX_ITERATIONS:
        itn += 1
        u = op.matvec(v) - alfa * u
        beta = _norm(u)
        anorm2 += alfa * alfa + beta * beta
        if beta > 0.0:
            u = u / beta
            v = op.rmatvec(u) - beta * v
            alfa = _norm(v)
            if alfa > 0.0:
                v = v / alfa
        c, s, rho = _sym_ortho(rhobar, beta)
        theta = s * alfa
        rhobar = -c * alfa
        phi = c * phibar
        phibar = s * phibar
        x = x + (phi / rho) * w
        w = v - (theta / rho) * w
        r = d - op.matvec(x)
        rnorm = _norm(r)
        grad_norm = _norm(op.rmatvec(r))
        op_norm = math.sqrt(anorm2) if operator_norm is None else operator_norm
        floor = 10.0 * EPS * (d_norm + op_norm * _norm(x))
        crit = 0.0 if rnorm <= floor else grad_norm / (rnorm * op_norm)
        stall = 0 if crit < 0.9 * best_crit else stall + 1
        if crit < best_crit:
            best_crit, best_x = crit, x
        if crit < tolerance:
            return x, itn, crit, True
        if beta == 0.0 or alfa == 0.0 or stall >= max(200, 4 * op.cols):
            break
    return best_x, itn, best_crit, False


def _assert_same_solve(op, d, tolerance, operator_norm=None):
    sol = vp.lsqr_solve(op, d, tolerance, operator_norm=operator_norm)
    x, iterations, achieved, converged = _reference_lsqr(op, d, tolerance, operator_norm)
    assert (sol.iterations, sol.converged, sol.achieved_criterion) == (
        iterations, converged, achieved)
    assert sol.x_bar.tobytes() == x.tobytes()
    return sol


class TestScreenedLsqr:
    """The screen changes which iterations are checked, never the result:
    iterations, convergence, criterion and iterate are those of the loop that
    checks every iteration, bit for bit."""

    @pytest.mark.parametrize("y", [2.0, 3.0754, 4.0])
    def test_matches_every_iteration_loop_at_n128(self, problem, y):
        op = vp.stacked_operator(problem, y)
        d = np.concatenate([problem.b, np.zeros(problem.L.rows)])
        norm = float(np.linalg.svd(op.to_dense(), compute_uv=False)[0])
        unconverged = 0
        for tolerance in (1e-2, 1e-6, 1e-9, 1e-11, 1e-13, 1e-15):
            for operator_norm in (None, norm):
                sol = _assert_same_solve(op, d, tolerance, operator_norm)
                unconverged += not sol.converged
        # 1e-13 and 1e-15 are below the rounding floor: those solves stall.
        assert unconverged == 4

    @pytest.mark.parametrize("tolerance", [1e-4, 1e-8])
    def test_matches_every_iteration_loop_on_band_operator(self, tolerance):
        problem = vp.build_problem(vp.BenchConfig(n=1024))
        op = vp.stacked_operator(problem, 2.0)
        assert normal_band(op) is not None
        sol = _assert_same_solve(op, np.concatenate([problem.b, np.zeros(problem.L.rows)]),
                                 tolerance)
        assert sol.converged
        assert len(sol.criterion_history) < sol.iterations


@st.composite
def screened_systems(draw):
    """A random stacked system [A; lam L], data d and tolerance epsilon.

    With ``conditioned``, the stack is U diag(s) V^T with log-spaced singular
    values and kappa within a factor of ten of 1 / epsilon (lam = 0 gives
    [A; 0] with A of that form); otherwise A and L are Gaussian. d is in the
    range of the stack when ``compatible``, else Gaussian.
    """
    n = draw(st.integers(1, 10))
    q = draw(st.integers(0, 6))
    lam = draw(st.one_of(st.just(0.0), st.floats(0.1, 2.0)))
    m = draw(st.integers(max(n - q, 1) if lam > 0.0 else n, 16))
    tolerance = 10.0 ** draw(st.floats(-14.0, -2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = m + q if lam > 0.0 else m
    if draw(st.booleans()):
        kappa = min(10.0 ** draw(st.floats(-1.0, 1.0)) / tolerance, 1e12)
        u, _ = np.linalg.qr(rng.standard_normal((rows, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        full = (u * np.geomspace(1.0, 1.0 / max(kappa, 1.0), n)) @ v.T
    else:
        full = rng.standard_normal((rows, n))
    bottom = full[m:] / lam if lam > 0.0 else rng.standard_normal((q, n))
    op = vp.stack(vp.DenseOperator(full[:m]), vp.DenseOperator(bottom), lam)
    if draw(st.booleans()):
        d = op.matvec(rng.standard_normal(n))
    else:
        d = rng.standard_normal(op.rows)
    return op, d, tolerance


class TestScreenedLsqrProperties:
    """Extends the fixed 200-system corpus of ``certificate_corpus``."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(screened_systems())
    def test_certificate_from_the_true_residual(self, case):
        op, d, tolerance = case
        dense = op.to_dense()
        norm = float(np.linalg.svd(dense, compute_uv=False)[0])
        if norm == 0.0:
            return
        sol = vp.lsqr_solve(op, d, tolerance, operator_norm=norm)
        if not sol.converged:
            assert sol.achieved_criterion == np.min(sol.criterion_history)
            return
        # Recompute the criterion of the returned iterate, as lsqr_solve
        # computes it, from its true residual.
        r = d - op.matvec(sol.x_bar)
        rnorm = np.linalg.norm(r)
        floor = 10.0 * EPS * (np.linalg.norm(d) + norm * np.linalg.norm(sol.x_bar))
        if sol.achieved_criterion == 0.0:
            assert rnorm <= floor or sol.iterations == 0
            return
        criterion = np.linalg.norm(op.rmatvec(r)) / (rnorm * norm)
        assert criterion == sol.achieved_criterion < tolerance
        E = vp.backward_perturbation(dense, sol.x_bar, d)
        assert np.linalg.norm(E, 2) <= tolerance * norm

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(screened_systems())
    def test_converged_solves_within_error_bounds(self, case):
        # Where the bounds must hold: a converged solve with eps kappa < 1 at
        # a tolerance above the CLI's must-hold floor.
        op, d, tolerance = case
        dense = op.to_dense()
        s = np.linalg.svd(dense, compute_uv=False)
        if s[-1] <= max(dense.shape) * EPS * s[0]:
            return
        norm, kappa = float(s[0]), float(s[0] / s[-1])
        if not (tolerance * kappa < 1.0 and tolerance > cli.MUST_HOLD_EPSILON):
            return
        sol = vp.lsqr_solve(op, d, tolerance, operator_norm=norm)
        if not sol.converged:
            return
        x = np.linalg.lstsq(dense, d, rcond=None)[0]
        d_norm = float(np.linalg.norm(d))
        assert np.linalg.norm(sol.x_bar - x) <= vp.solution_bound(kappa, d_norm, norm, tolerance)
        assert np.linalg.norm(dense @ (sol.x_bar - x)) <= vp.residual_bound(kappa, d_norm,
                                                                             tolerance)


class TestCertificate:
    def test_backward_error_certificate_on_corpus(self, certificate_corpus):
        # Backward-error certificate: E = -r r^T M / ||r||^2 makes x_bar
        # exactly optimal for the perturbed operator, and ||E|| < eps ||M||.
        checked = 0
        for entry in certificate_corpus:
            sol = entry["sol"]
            if not sol.converged or sol.achieved_criterion == 0.0:
                continue
            M, d, x_bar = entry["dense"], entry["d"], sol.x_bar
            E = vp.backward_perturbation(M, x_bar, d)
            assert np.linalg.norm(E, 2) < entry["eps"] * entry["norm"]
            perturbed = (M + E).T @ (d - (M + E) @ x_bar)
            tol = 1e-8 * entry["norm"] ** 2 * np.linalg.norm(x_bar)
            assert np.linalg.norm(perturbed) <= tol
            checked += 1
        assert checked >= 150

    def test_solution_and_residual_bounds_on_corpus(self, certificate_corpus):
        for entry in certificate_corpus:
            sol = entry["sol"]
            if not sol.converged:
                continue
            op, d, eps = entry["op"], entry["d"], entry["eps"]
            x = np.linalg.lstsq(entry["dense"], d, rcond=None)[0]
            d_norm = np.linalg.norm(d)
            x_err = np.linalg.norm(x - sol.x_bar)
            r_err = np.linalg.norm(entry["dense"] @ (sol.x_bar - x))
            assert x_err < vp.solution_bound(entry["kappa"], d_norm, entry["norm"], eps)
            assert r_err < vp.residual_bound(entry["kappa"], d_norm, eps)


def test_lsqr_rejects_wrong_rhs_length():
    with pytest.raises(ValueError, match="right-hand side must have length 4"):
        vp.lsqr_solve(_identity_stack(2), np.ones(3), 1e-6)


@pytest.mark.parametrize("b", [2.5, -2.5])
def test_sym_ortho_with_zero_first_entry(b):
    # The rotation of (0, b) onto (|b|, 0) is a pure sign: c = 0, s = sign(b).
    assert _sym_ortho(0.0, b) == (0.0, math.copysign(1.0, b), 2.5)
