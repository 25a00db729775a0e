"""Operator construction, adjoint consistency, and kernel derivatives."""

import gc
import math
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import varproj as vp
from varproj import linops
from varproj.linops import normal_band

from conftest import band_route_stack, decaying_band_stack

# Kernel entries below sqrt(tiny) are set to zero.
FLUSH = np.sqrt(np.finfo(float).tiny)
EPS = np.finfo(float).eps


def manual_gaussian_row(sigma, n):
    # Independent entrywise evaluation of c * exp(-(j-1)^2 / (2 sigma^2)).
    g = [math.exp(-(k * k) / (2.0 * sigma * sigma)) for k in range(n)]
    c = 1.0 / sum(g)
    return [c * gk for gk in g]


def manual_gaussian_row_derivative(sigma, n):
    # Quotient rule through the normalizer: d/ds [g_k / S] with
    # g_k' = g_k k^2 / s^3 and S' = sum_k g_k'.
    g = [math.exp(-(k * k) / (2.0 * sigma * sigma)) for k in range(n)]
    S = sum(g)
    dg = [gk * k * k / sigma**3 for k, gk in enumerate(g)]
    dS = sum(dg)
    return [dg[k] / S - g[k] * dS / S**2 for k in range(n)]


class TestGaussianToeplitz:
    def test_3x3_matches_hand_evaluation(self):
        expected_row = manual_gaussian_row(1.0, 3)
        dense = vp.gaussian_toeplitz(1.0, 3).to_dense()
        for i in range(3):
            for j in range(3):
                assert dense[i, j] == pytest.approx(expected_row[abs(i - j)], rel=1e-15)

    def test_first_row_sums_to_one(self):
        for sigma, n in [(3.0, 128), (1.0, 16), (0.25, 64), (10.0, 200)]:
            row = vp.gaussian_toeplitz(sigma, n).first_row
            assert abs(row.sum() - 1.0) <= 1e-14
            assert np.all(row >= 0.0)
            # Positive exactly where the formula's entry is at least sqrt(tiny):
            # at sigma = 0.25 entry 7 is about 1e-170 and is dropped.
            g = np.exp(-(np.arange(n, dtype=float) ** 2) / (2.0 * sigma**2))
            formula = g / float(g.sum())
            assert np.all((row > 0.0) == (formula >= FLUSH))

    def test_toeplitz_structure_exact(self):
        op = vp.gaussian_toeplitz(2.0, 20)
        dense = op.to_dense()
        for i in range(20):
            for j in range(20):
                assert dense[i, j] == op.first_row[abs(i - j)]

    def test_tiny_sigma_collapses_to_identity(self):
        dense = vp.gaussian_toeplitz(1e-3, 4).to_dense()
        off_diag = dense - np.diag(np.diag(dense))
        assert np.max(np.abs(off_diag)) < 1e-10
        assert np.allclose(np.diag(dense), 1.0)

    def test_benchmark_conditioning(self):
        s = np.linalg.svd(vp.gaussian_toeplitz(3.0, 128).to_dense(), compute_uv=False)
        assert s[0] / s[-1] >= 1e12

    @pytest.mark.parametrize("sigma,n", [(2.0, 128), (3.07, 128), (3.0, 128), (2.0, 1024),
                                         (0.25, 64), (10.0, 200)])
    def test_tail_truncated_below_smallest_normal(self, sigma, n):
        # The untruncated rows from the kernels' formulas, in the same
        # floating-point operations; at (2, 1024) both hold entries in the
        # dropped range, subnormal ones among them.
        offsets = np.arange(n, dtype=float)
        g = np.exp(-(offsets**2) / (2.0 * sigma**2))
        total = float(g.sum())
        dg = g * offsets**2 / sigma**3
        rows = {
            vp.gaussian_toeplitz: g / total,
            vp.gaussian_toeplitz_derivative: dg / total - g * (float(dg.sum()) / total**2),
        }
        if (sigma, n) == (2.0, 1024):
            assert all(np.any((row != 0.0) & (np.abs(row) < FLUSH)) for row in rows.values())
        for kernel, formula in rows.items():
            row = kernel(sigma, n).first_row
            assert not np.any((row != 0.0) & (np.abs(row) < FLUSH))
            kept = np.abs(formula) >= FLUSH
            assert np.all(row[kept] == formula[kept])
            assert np.all(row[~kept] == 0.0)

    # The band apply is taken when the first row's last nonzero index k has
    # 2k + 1 <= n/2: k = 53 / 81 / 106 at sigma = 2 / 3.07 / 4 (82 for the
    # sigma = 3.07 derivative), k = 13 at sigma = 0.5, and k = 0 at
    # sigma = 1e-3, where the derivative row is all zero. (2, 213) and
    # (2, 214) straddle the switch. At n = 1000 and 1023 the block size
    # B = k = 53 does not divide n, so the last block is zero-padded.
    @pytest.mark.parametrize("sigma,n,banded", [
        (2.0, 1024, True), (3.07, 1024, True), (4.0, 1024, True), (0.5, 96, True),
        (1e-3, 4, True), (2.0, 302, True), (2.0, 214, True), (2.0, 213, False),
        (3.0, 128, False), (0.5, 32, False), (2.0, 1000, True), (2.0, 1023, True),
    ])
    def test_band_apply_matches_dense(self, sigma, n, banded):
        rng = np.random.default_rng(6)
        for kernel in (vp.gaussian_toeplitz, vp.gaussian_toeplitz_derivative):
            op = kernel(sigma, n)
            assert (op._band_k is not None) == banded
            dense = op.to_dense()
            # Each entry of either product sums at most m = 2k + 1 nonzero
            # terms, so each lies within gamma_m (|A| |v|)_i of the exact
            # value (Higham, Accuracy and Stability, sec. 3.1). The block
            # apply also multiplies by the zero entries of its k x k blocks,
            # but such a product is an exact zero and adding it is exact, so
            # it still sums only the row's nonzero terms, in some order.
            m = int(np.count_nonzero(dense, axis=1).max())
            gamma = m * (EPS / 2) / (1.0 - m * EPS / 2)
            for _ in range(10):
                v = rng.standard_normal(n)
                expected = dense @ v
                for out in (op.matvec(v), op.rmatvec(v)):
                    if banded:
                        assert np.all(np.abs(out - expected) <= 2 * gamma * (np.abs(dense) @ np.abs(v)))
                    else:
                        assert np.all(out == expected)

    @pytest.mark.parametrize("sigma,n", [(-1.0, 8), (0.0, 8), (3.0, 1)])
    def test_invalid_arguments(self, sigma, n):
        with pytest.raises(ValueError):
            vp.gaussian_toeplitz(sigma, n)
        with pytest.raises(ValueError):
            vp.gaussian_toeplitz_derivative(sigma, n)


class TestNormalBand:
    # The Gram band is taken exactly when the blur is block-applied, 2k + 1
    # <= n/2: k = 26 / 53 / 79 / 106 at widths 1 / 2 / 3 / 4, so n >= 106 /
    # 214 / 318 / 426. (2, 213) and (2, 214) straddle the switch. It keeps
    # kd' = 12 / 24 / 37 / 49 of the Gram's kd = 2k = 52 / 106 / 158 / 212
    # diagonals.
    @pytest.mark.parametrize("sigma,n,banded", [
        (1.0, 256, True), (2.0, 256, True), (3.0, 256, False), (4.0, 256, False),
        (1.0, 512, True), (2.0, 512, True), (3.0, 512, True), (4.0, 512, True),
        (1.0, 1024, True), (2.0, 1024, True), (3.0, 1024, True), (4.0, 1024, True),
        (2.0, 425, True), (2.0, 426, True), (2.0, 213, False), (2.0, 214, True),
    ])
    def test_within_rounding_of_dense_gram(self, sigma, n, banded):
        # A randomly weighted difference, and the plain D (unit weights).
        rng = np.random.default_rng(8)
        weights = 10.0 ** rng.uniform(-1.0, 4.0, size=n - 1)
        top = vp.gaussian_toeplitz(sigma, n)
        for bottom in (vp.FirstDifferenceOperator(weights),
                       vp.FirstDifferenceOperator(np.ones(n - 1))):
            op = vp.stack(top, bottom, 0.0379)
            band = normal_band(op)
            assert (band is not None) == banded == (top._band_k is not None)
            if not banded:
                continue
            kd = 2 * top._band_k
            kept = band.shape[0] - 1
            assert kept == KEPT_DIAGONALS[sigma]
            s = op.to_dense()
            gram = s.T @ s
            # Both band and gram are fl(S^T S) summed in different orders, so
            # each lies within gamma_m (|S|^T |S|) of S^T S entrywise
            # (Higham, Accuracy and Stability, sec. 3.5).
            m = s.shape[0]
            gamma = m * (EPS / 2) / (1.0 - m * EPS / 2)
            slack = 2 * gamma * (np.abs(s).T @ np.abs(s))
            for d in range(kept + 1):
                assert np.all(np.abs(band[d, : n - d] - np.diagonal(gram, -d))
                              <= np.diagonal(slack, -d))
                assert np.all(band[d, n - d:] == 0.0)
            assert not np.any(np.tril(gram, -kd - 1))
            assert_trim_bound(gram, kept, top.first_row)

    @pytest.mark.parametrize("sigma", [1.0, 2.0, 3.0, 4.0])
    def test_kept_width_is_the_smallest_within_the_bound(self, sigma):
        row = vp.gaussian_toeplitz(sigma, 1024).first_row
        k = int(np.flatnonzero(row)[-1])
        kept = linops.kept_diagonals(row)
        assert kept == KEPT_DIAGONALS[sigma]
        # c_d summed term by term over the symmetric row a_-k..a_k.
        full = np.abs(np.concatenate([row[k:0:-1], row[: k + 1]]))
        c = [sum(full[t] * full[t + d] for t in range(2 * k + 1 - d)) for d in range(2 * k + 1)]
        assert 2 * sum(c[kept + 1:]) <= EPS / 2 * c[0] / 2
        assert 2 * sum(c[kept:]) > EPS / 2 * c[0] / 2

    @pytest.mark.parametrize("fixture", ["problem", "small_problem"])
    def test_kept_width_never_falls_as_the_width_grows(self, request, fixture):
        # The grid scan takes one kd' per block of widths, from the block's
        # widest kernel; that covers the block when kd' never decreases
        # along the scan's lattice.
        n = request.getfixturevalue(fixture).config.n
        kept = [linops.kept_diagonals(linops.gaussian_row(y, n))
                for y in 2.0 + 1e-4 * np.arange(20001)]
        assert np.all(np.diff(kept) >= 0)
        assert kept[0] < kept[-1]

    @pytest.mark.parametrize("y", [1.5, 2.0, 3.07, 4.0])
    def test_n128_benchmark_operators_take_dense_path(self, problem, y):
        assert normal_band(vp.stacked_operator(problem, y)) is None

    @pytest.mark.parametrize("n", [128, 213, 214, 256, 425, 426, 512, 1024])
    def test_eligibility_rule_unchanged(self, n):
        # The band is taken exactly when the blur is block-applied, that is
        # 2k + 1 <= n/2 on the kernel's own k, however few diagonals it keeps.
        for sigma in np.arange(1, 81) / 20.0:
            op = vp.stack(vp.gaussian_toeplitz(sigma, n),
                          vp.FirstDifferenceOperator(np.ones(n - 1)), 0.0379)
            k = op.top._band_k
            assert (k is not None) == (4 * int(np.flatnonzero(op.top.first_row)[-1]) + 2 <= n)
            assert (normal_band(op) is not None) == (k is not None)

    def test_other_blocks_take_dense_path(self):
        rng = np.random.default_rng(9)
        top = vp.gaussian_toeplitz(1.0, 256)
        diff = vp.FirstDifferenceOperator(np.ones(255))
        assert normal_band(top) is None
        # The plain D is the weighted difference with W = I: banded.
        assert normal_band(vp.stack(top, diff, 0.5)) is not None
        assert normal_band(vp.stack(vp.DenseOperator(top.to_dense()), diff, 0.5)) is None
        assert normal_band(vp.stack(top, vp.DenseOperator(diff.to_dense()), 0.5)) is None
        assert normal_band(vp.stack(top, vp.DenseOperator(rng.standard_normal((3, 256))),
                                    0.5)) is None

    @pytest.mark.parametrize("y", [1.0, 2.0, 3.0, 3.07, 4.0])
    @pytest.mark.parametrize("n", [512, 1024, 2048])
    def test_first_row_band_equals_dense_slice_band(self, n, y):
        op = vp.stacked_operator(vp.build_problem(vp.BenchConfig(n=n)), y)
        expected = dense_slice_band(op)
        band = normal_band(op)
        assert band is not None and expected is not None
        kept = band.shape[0] - 1
        assert kept == KEPT_DIAGONALS[y] < expected.shape[0] - 1
        assert np.array_equal(band, expected[: kept + 1])
        assert_trim_bound(band_to_dense(expected), kept, op.top.first_row)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(24, 96), st.data())
    def test_first_row_band_equals_dense_slice_band_on_random_stacks(self, n, data):
        op = band_route_stack(n, data.draw(st.integers(0, (n // 2 - 1) // 4)),
                              data.draw(st.integers(0, 2**32 - 1)),
                              data.draw(st.floats(1e-3, 2.0)))
        assert np.array_equal(normal_band(op), dense_slice_band(op))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(24, 256), st.data())
    def test_wide_band_stacks_match_dense_slice_band_and_lstsq(self, n, data):
        # k from just past the (n/2 - 1)/4 that the other random band stacks
        # stay within, up to the block apply's limit (n/2 - 1)/2.
        seed = data.draw(st.integers(0, 2**32 - 1))
        op = band_route_stack(n, data.draw(st.integers((n // 2 - 1) // 4 + 1, (n - 2) // 4)),
                              seed, data.draw(st.floats(1e-3, 2.0)))
        assert op.top._band_k is not None
        assert np.array_equal(normal_band(op), dense_slice_band(op))
        b = np.random.default_rng(seed).standard_normal(n)
        expected = np.linalg.lstsq(op.to_dense(), np.concatenate([b, np.zeros(n - 1)]),
                                   rcond=None)[0]
        x = vp.DirectFactorization(op).solve_rhs(b)
        # The normal equations solve S^T S x = S^T d backward stably, so x is
        # within about eps kappa_2(S)^2 of the least-squares solution.
        tol = EPS * vp.condition_number(op) ** 2
        assert np.linalg.norm(x - expected) <= tol * np.linalg.norm(expected)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(64, 512), st.integers(0, 2**32 - 1), st.floats(1e-3, 2.0))
    def test_trim_bound_on_decaying_stacks(self, n, seed, lam):
        op = decaying_band_stack(n, seed, lam)
        band = normal_band(op)
        expected = dense_slice_band(op)
        kept = band.shape[0] - 1
        assert kept < 2 * op.top._band_k
        assert np.array_equal(band, expected[: kept + 1])
        s = op.to_dense()
        assert_trim_bound(s.T @ s, kept, op.top.first_row)
        assert_trim_bound(band_to_dense(expected), kept, op.top.first_row)


# kd' of gaussian_toeplitz(sigma, n) for every n at which its band is taken.
KEPT_DIAGONALS = {1.0: 12, 2.0: 24, 3.0: 37, 3.07: 37, 4.0: 49}


def assert_trim_bound(gram, kept, first_row):
    """The part of the symmetric n x n ``gram`` outside diagonals -kept..kept
    has infinity norm at most u c_0 / 2, c_0 the squared 2-norm of the
    symmetric row a_-k..a_k: the bound ``normal_band`` keeps its band to.
    The slack 1e-10 covers the rounding of a computed Gram and of the sums."""
    c0 = 2.0 * float(first_row @ first_row) - first_row[0] ** 2
    n = gram.shape[0]
    i = np.arange(n)
    dropped = np.abs(np.where(np.abs(i[:, None] - i) > kept, gram, 0.0))
    assert dropped.sum(axis=1).max() <= (1 + 1e-10) * (EPS / 2) * c0 / 2


def band_to_dense(band):
    """The symmetric n x n matrix whose lower band storage is ``band``."""
    n = band.shape[1]
    dense = np.zeros((n, n))
    for d in range(band.shape[0]):
        dense[np.arange(d, n), np.arange(n - d)] = band[d, : n - d]
    return dense + np.tril(dense, -1).T


def dense_slice_band(op):
    """The Gram band as ``normal_band`` built it, with all kd = max(2k, 1)
    diagonals, when it sliced the dense Toeplitz matrix, kept as an oracle.
    The band read from the first row takes the same gemms on the same
    entries, with the rows of the dropped diagonals left out of the first
    factor, and its kept rows are bit-identical."""
    if normal_band(op) is None:
        return None
    n, k = op.cols, op.top._band_k
    kd = max(2 * k, 1)
    a = scipy.linalg.toeplitz(op.top.first_row)
    band = np.zeros((kd + 1, n), order="F")
    for j0 in range(0, n, linops._GRAM_BLOCK):
        j1 = min(j0 + linops._GRAM_BLOCK, n)
        w = j1 - j0
        i0, i1, r1 = max(j0 - k, 0), min(j1 + k, n), min(j1 + 2 * k, n)
        block = np.zeros((w + 2 * k, w))
        np.matmul(a[i0:i1, j0:r1].T, a[i0:i1, j0:j1], out=block[: r1 - j0])
        cols = np.arange(w)
        band[: 2 * k + 1, j0:j1] = block[np.arange(2 * k + 1)[:, None] + cols, cols]
    sq = (op.lam * op.bottom.weights) ** 2
    band[0, :-1] += sq
    band[0, 1:] += sq
    band[1, :-1] -= sq
    return band


class TestBandRouteMemory:
    @pytest.mark.parametrize("kernel", [vp.gaussian_toeplitz, vp.gaussian_toeplitz_derivative])
    def test_build_holds_no_dense_matrix(self, kernel):
        # The dense 4096 x 4096 matrix would take 128 MiB.
        tracemalloc.start()
        try:
            op = kernel(2.0, 4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op._band_k is not None
        assert peak < 2 * 2**20

    def test_to_dense_on_request_and_not_kept(self):
        op = vp.gaussian_toeplitz(2.0, 512)
        assert op._band_k is not None
        first, second = op.to_dense(), op.to_dense()
        assert first is not second
        assert not first.flags.writeable
        assert np.array_equal(first, scipy.linalg.toeplitz(op.first_row))
        dense_route = vp.gaussian_toeplitz(3.0, 128)
        assert dense_route._band_k is None
        assert dense_route.to_dense() is dense_route.to_dense()


class TestGaussianToeplitzDerivative:
    @pytest.mark.parametrize("sigma,n", [(3.0, 128), (1.0, 16), (0.7, 32)])
    def test_derivative_row_sums_to_zero(self, sigma, n):
        row = vp.gaussian_toeplitz_derivative(sigma, n).first_row
        assert abs(row.sum()) <= 1e-12

    def test_matches_central_finite_difference(self):
        sigma, n, h = 3.0, 128, 1e-5
        exact = vp.gaussian_toeplitz_derivative(sigma, n).to_dense()
        fd = (vp.gaussian_toeplitz(sigma + h, n).to_dense()
              - vp.gaussian_toeplitz(sigma - h, n).to_dense()) / (2 * h)
        # The difference quotient's own truncation error grows like
        # (h k^2 / sigma^3)^2 and only stays below 1e-6 where entries exceed
        # ~1e-150; the absolute floor silences the vacuous deep tail.
        np.testing.assert_allclose(fd, exact, rtol=1e-6, atol=1e-150)

    def test_3x3_matches_hand_differentiation(self):
        expected_row = manual_gaussian_row_derivative(1.0, 3)
        dense = vp.gaussian_toeplitz_derivative(1.0, 3).to_dense()
        for i in range(3):
            for j in range(3):
                assert dense[i, j] == pytest.approx(expected_row[abs(i - j)], rel=1e-14)


class TestKernelWidthRange:
    # sigma**3 must be a positive finite double. Below about 1.7e-108 it
    # underflows to zero and the derivative divided by it (and, below about
    # 2.2e-162, the kernel by 2 sigma^2) to NaN rows; above about 5.6e102 it
    # overflows.
    @pytest.mark.parametrize("build", [vp.gaussian_toeplitz, vp.gaussian_toeplitz_derivative])
    @pytest.mark.parametrize("sigma", [1e-120, 1e-200, 5e-324, 1e103, 1e200, 0.0, -1.0,
                                       math.nan, math.inf])
    def test_rejects_widths_whose_cube_is_zero_or_infinite(self, build, sigma):
        with pytest.raises(ValueError, match="kernel width must be positive"):
            build(sigma, 8)

    @pytest.mark.parametrize("sigma", [2e-108, 1e-100, 1e100, 5e102])
    def test_accepts_widths_at_the_ends_of_the_range(self, sigma):
        for build in (vp.gaussian_toeplitz, vp.gaussian_toeplitz_derivative):
            assert np.all(np.isfinite(build(sigma, 8).first_row))


class TestWeightedDifference:
    def test_weighted_equals_weights_times_unweighted(self):
        rng = np.random.default_rng(5)
        diff = vp.FirstDifferenceOperator(np.ones(29))
        weights = rng.uniform(0.5, 2.0, size=29)
        op = vp.FirstDifferenceOperator(weights)
        for _ in range(20):
            v = rng.standard_normal(30)
            w = rng.standard_normal(29)
            assert np.all(op.matvec(v) == weights * diff.matvec(v))
            assert np.all(op.rmatvec(w) == diff.rmatvec(weights * w))
        assert np.all(op.to_dense() == weights[:, None] * diff.to_dense())

    @pytest.mark.parametrize("n", [2, 3, 40, 128])
    def test_add_gram_is_tridiagonal_of_dense_gram(self, n):
        # add_gram adds the diagonal and subdiagonal of lam^2 (WD)^T (WD);
        # each entry sums at most two products, so it is within a few ulps.
        rng = np.random.default_rng(n)
        op = vp.FirstDifferenceOperator(10.0 ** rng.uniform(-1.0, 4.0, size=n - 1))
        lam = 0.0379
        scaled = lam * op.to_dense()
        gram = scaled.T @ scaled
        diagonal, subdiagonal = np.zeros(n), np.zeros(n - 1)
        op.add_gram(lam, diagonal, subdiagonal)
        np.testing.assert_allclose(diagonal, np.diagonal(gram), rtol=4 * EPS, atol=0.0)
        np.testing.assert_allclose(subdiagonal, np.diagonal(gram, -1), rtol=4 * EPS, atol=0.0)
        assert not np.any(np.tril(gram, -2))

    @pytest.mark.parametrize("weights", [[], [[1.0]]])
    def test_rejects_bad_weights(self, weights):
        with pytest.raises(ValueError, match="weights"):
            vp.FirstDifferenceOperator(weights)


class TestFirstDifference:
    def test_constant_in_null_space(self):
        out = vp.FirstDifferenceOperator(np.ones(2)).matvec(np.ones(3))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_forced_by_definition(self):
        out = vp.FirstDifferenceOperator(np.ones(3)).matvec(np.array([0.0, 1.0, 3.0, 6.0]))
        np.testing.assert_array_equal(out, np.array([1.0, 2.0, 3.0]))

    def test_dense_layout(self):
        dense = vp.FirstDifferenceOperator(np.ones(3)).to_dense()
        expected = np.array([[-1.0, 1.0, 0.0, 0.0],
                             [0.0, -1.0, 1.0, 0.0],
                             [0.0, 0.0, -1.0, 1.0]])
        np.testing.assert_array_equal(dense, expected)

    @pytest.mark.parametrize("n", [2, 3, 40])
    def test_adjoint_matches_dense_transpose(self, n):
        op = vp.FirstDifferenceOperator(np.ones(n - 1))
        rng = np.random.default_rng(n)
        for _ in range(10):
            w = rng.standard_normal(n - 1)
            assert np.all(op.rmatvec(w) == op.to_dense().T @ w)

    def test_null_space_dimension_is_one(self):
        s = np.linalg.svd(vp.FirstDifferenceOperator(np.ones(127)).to_dense(), compute_uv=False)
        # All n-1 singular values positive: rank n-1, null dimension exactly 1.
        assert np.all(s > 1e-12)

    def test_rejects_small_n(self):
        # n = 1 leaves no difference and no weight.
        with pytest.raises(ValueError, match="nonempty 1-d array"):
            vp.FirstDifferenceOperator(np.ones(0))


class TestStack:
    def test_identity_stacking(self):
        op = vp.stack(vp.DenseOperator(np.eye(2)), vp.DenseOperator(np.eye(2)), 1.0)
        np.testing.assert_array_equal(op.matvec(np.array([1.0, 2.0])),
                                      np.array([1.0, 2.0, 1.0, 2.0]))

    def test_zero_lambda_bottom_block_identically_zero(self):
        rng = np.random.default_rng(0)
        op = vp.stack(vp.DenseOperator(rng.standard_normal((3, 2))),
                      vp.DenseOperator(rng.standard_normal((4, 2))), 0.0)
        out = op.matvec(rng.standard_normal(2))
        np.testing.assert_array_equal(out[3:], np.zeros(4))

    def test_forward_bit_identical_to_block_concatenation(self):
        rng = np.random.default_rng(1)
        top = vp.gaussian_toeplitz(2.0, 40)
        bottom = vp.FirstDifferenceOperator(rng.uniform(0.5, 2.0, size=39))
        for lam in (0.5, 0.0):
            op = vp.stack(top, bottom, lam)
            for _ in range(20):
                v = rng.standard_normal(40)
                assert np.all(op.matvec(v)
                              == np.concatenate([top.matvec(v), lam * bottom.matvec(v)]))

    def test_adjoint_bit_identical_to_block_sum(self):
        rng = np.random.default_rng(2)
        top = vp.gaussian_toeplitz(2.0, 40)
        bottom = vp.FirstDifferenceOperator(rng.uniform(0.5, 2.0, size=39))
        for lam in (0.5, 0.0):
            op = vp.stack(top, bottom, lam)
            for _ in range(20):
                w = rng.standard_normal(79)
                assert np.all(op.rmatvec(w)
                              == top.rmatvec(w[:40]) + lam * bottom.rmatvec(w[40:]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            vp.stack(vp.DenseOperator(np.eye(2)), vp.DenseOperator(np.eye(3)), 1.0)

    def test_negative_lambda(self):
        with pytest.raises(ValueError):
            vp.stack(vp.DenseOperator(np.eye(2)), vp.DenseOperator(np.eye(2)), -0.1)

    # A stack on the band route (n = 1024, width 2) is rejected the same way,
    # before any Gram is formed.
    @pytest.mark.parametrize("n", [2, 1024])
    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_non_finite_lambda(self, n, lam):
        top = vp.DenseOperator(np.eye(2)) if n == 2 else vp.gaussian_toeplitz(2.0, n)
        with pytest.raises(ValueError, match="lambda must be nonnegative and finite"):
            vp.stack(top, vp.FirstDifferenceOperator(np.ones(n - 1)), lam)

    def test_empty_bottom_block(self):
        rng = np.random.default_rng(2)
        top = vp.DenseOperator(rng.standard_normal((4, 3)))
        op = vp.stack(top, vp.DenseOperator(np.zeros((0, 3))), 1.0)
        assert op.rows == 4 and op.bottom.rows == 0
        v = rng.standard_normal(3)
        np.testing.assert_array_equal(op.matvec(v), top.matvec(v))
        np.testing.assert_allclose(op.rmatvec(top.matvec(v)), top.rmatvec(top.matvec(v)))

    def test_full_rank_with_trivial_joint_nullspace(self):
        # A annihilates high frequencies, L annihilates constants; together
        # they cover R^n, so the stack has rank n.
        op = vp.stack(vp.gaussian_toeplitz(3.0, 32), vp.FirstDifferenceOperator(np.ones(31)), 0.05)
        s = np.linalg.svd(op.to_dense(), compute_uv=False)
        assert s[-1] > 1e-8


def _sample_operators():
    rng = np.random.default_rng(3)
    ops = [
        vp.DenseOperator(rng.standard_normal((7, 4))),
        vp.gaussian_toeplitz(1.5, 12),
        vp.FirstDifferenceOperator(np.ones(11)),
        vp.FirstDifferenceOperator(rng.uniform(0.5, 2.0, size=11)),
        vp.stack(vp.gaussian_toeplitz(1.5, 12), vp.FirstDifferenceOperator(np.ones(11)), 0.3),
        # narrow enough for the band apply: 2k + 1 = 37 <= n/2 = 40
        vp.gaussian_toeplitz(0.5, 80),
        vp.stack(vp.gaussian_toeplitz(0.5, 80), vp.FirstDifferenceOperator(np.ones(79)), 0.3),
    ]
    return ops


@pytest.mark.parametrize("op", _sample_operators())
def test_adjoint_consistency(op):
    rng = np.random.default_rng(4)
    fro = np.linalg.norm(op.to_dense(), "fro")
    for _ in range(100):
        u = rng.standard_normal(op.cols)
        v = rng.standard_normal(op.rows)
        lhs = float(op.matvec(u) @ v)
        rhs = float(u @ op.rmatvec(v))
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(v) * fro


@pytest.mark.parametrize("op", _sample_operators())
def test_dense_matches_action_on_basis_vectors(op):
    dense = op.to_dense()
    for j in range(op.cols):
        e = np.zeros(op.cols)
        e[j] = 1.0
        col = op.matvec(e)
        np.testing.assert_allclose(dense[:, j], col, rtol=1e-14, atol=0.0)


def test_matvec_rejects_wrong_length():
    op = vp.gaussian_toeplitz(1.0, 8)
    with pytest.raises(ValueError):
        op.matvec(np.ones(9))
    with pytest.raises(ValueError):
        op.rmatvec(np.ones(7))


def test_band_operator_freed_by_reference_counting():
    # The band-route apply is stored on the instance. Had it been a bound
    # method, each operator would sit in a reference cycle, and its 8 MB
    # dense matrix (n = 1024) would live until the cyclic collector ran, so
    # a run that builds an operator per outer iteration would hold many of
    # them at once. Reference counting alone must free the operator and
    # its stack.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        n = 1024
        op = vp.gaussian_toeplitz(2.0, n)
        assert op._band_k is not None
        weights = np.linspace(0.5, 2.0, n - 1)
        s = vp.stack(op, vp.FirstDifferenceOperator(weights), 0.1)
        s.rmatvec(s.matvec(np.ones(n)))
        refs = [weakref.ref(op), weakref.ref(s)]
        del op, s
        assert [r() for r in refs] == [None, None]
    finally:
        if was_enabled:
            gc.enable()


def test_band_operator_shared_across_threads():
    # The block apply allocates its work arrays per call, so one operator
    # applied from more threads than cores gives the serial results.
    op = vp.gaussian_toeplitz(2.0, 1000)
    assert op._band_k is not None
    vs = np.random.default_rng(8).standard_normal((64, 1000))
    serial = [op.matvec(v) for v in vs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(op.matvec, np.repeat(vs, 4, axis=0), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for i, out in enumerate(results):
        assert np.array_equal(out, serial[i // 4])


class MatrixFreeOperator(vp.LinearOperator):
    """An operator known only by its applies, as a custom model gives one."""

    def __init__(self, a):
        super().__init__(*a.shape)
        self.a = a

    def _matvec(self, v):
        return self.a @ v

    def _rmatvec(self, w):
        return self.a.T @ w


def test_matrix_free_operator_materializes_column_by_column():
    # The generic to_dense applies the operator to each unit vector, which
    # gives every column exactly; the dense direct solve of a stack built on
    # it then agrees with a least-squares solve of the same matrix.
    rng = np.random.default_rng(11)
    a = rng.standard_normal((9, 6))
    top = MatrixFreeOperator(a)
    np.testing.assert_array_equal(top.to_dense(), a)
    op = vp.stack(top, vp.FirstDifferenceOperator(np.ones(5)), 0.5)
    fact = vp.DirectFactorization(op)
    assert not fact.banded
    b = rng.standard_normal(9)
    expected = np.linalg.lstsq(op.to_dense(), np.concatenate([b, np.zeros(5)]), rcond=None)[0]
    np.testing.assert_allclose(fact.solve_rhs(b), expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("build,message", [
    (lambda: vp.LinearOperator(-1, 3), r"invalid operator shape \(-1, 3\)"),
    (lambda: vp.LinearOperator(3, 0), r"invalid operator shape \(3, 0\)"),
    (lambda: vp.DenseOperator(np.ones(3)), "2-d array"),
    (lambda: vp.SymmetricToeplitzOperator([]), "nonempty 1-d array"),
])
def test_constructors_reject_bad_shapes(build, message):
    with pytest.raises(ValueError, match=message):
        build()
