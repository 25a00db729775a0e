"""Benchmark construction: signals, regularizer weighting, noise, determinism."""

import math

import numpy as np
import pytest
from scipy.linalg.blas import dgemv, dsyrk
from scipy.linalg.lapack import dpotrf, dpotrs

import varproj as vp
from varproj import deconv, linops
from varproj.deconv import ConfigError

# Frozen output of the benchmark signal at n = 16; regenerating must
# reproduce it bit for bit.
PIECEWISE_16 = np.array([
    0.0, 0.0, 0.0,
    0.75, 0.75, 0.75,
    0.0, 0.09999999999999999, 0.4999999999999999,
    0.0, 0.0,
    0.5522642316338257, 0.9045084971874735, 0.04322727117869962,
    0.0, 0.0,
])


# Lattice argmins of the reduced functional over [2, 4] at resolution 1e-4,
# by seed, from the full scan with the dense Cholesky of the full Gram.
GRID_ARGMIN = {1: 3.0754, 2: 2.9982, 3: 3.0177, 4: 2.9141, 5: 2.8298}


def dense_objective(problem, y):
    """The reduced functional f(y) from the dense Cholesky of the full Gram
    A^T A + lam^2 L^T L: the scan's formula before it factored a band, kept
    as the oracle of ``objective_grid``."""
    a = problem.model.operator(np.array([float(y)])).to_dense().T
    n = a.shape[0]
    normal = dsyrk(1.0, a, trans=1, lower=1)
    flat = normal.reshape(-1, order="F")
    problem.L.add_gram(problem.lam, flat[:: n + 1], flat[1 :: n + 1])
    chol, info = dpotrf(normal, lower=1, overwrite_a=1)
    assert info == 0
    b = problem.b
    x, _ = dpotrs(chol, dgemv(1.0, a, b), lower=1)
    misfit = dgemv(1.0, a, x, beta=-1.0, y=b, trans=1)
    penalty = problem.lam * problem.L.matvec(x)
    return 0.5 * float(misfit @ misfit + penalty @ penalty)


class TestDefaultSignal:
    @pytest.mark.parametrize("n", [8, 16, 128, 301])
    def test_zero_boundaries_and_range(self, n):
        x = deconv._signal(n)
        assert x[0] == 0.0 and x[-1] == 0.0
        assert np.all(x >= 0.0) and np.all(x <= 1.0)

    def test_piecewise_exercises_both_weight_regimes(self):
        x = deconv._signal(128)
        d = vp.first_difference(128).matvec(x)
        assert np.sum(d == 0.0) >= 1          # plateau: exact zeros
        assert np.sum(np.abs(d) >= 0.05) >= 1  # jump: order-one difference

    def test_frozen_fixture_n16(self):
        np.testing.assert_array_equal(deconv._signal(16), PIECEWISE_16)

    def test_rejects_small_n(self):
        # The signal needs n >= 8, which the configuration checks before
        # any signal is built.
        with pytest.raises(ConfigError, match="n must be at least 8"):
            vp.build_problem(vp.BenchConfig(n=4))


class TestRegularizer:
    def test_constant_signal_gives_scaled_difference(self):
        n, tau = 12, 1e-8
        L = deconv._regularizer(np.full(n, 0.3), tau)
        expected = tau ** (-0.5) * vp.first_difference(n).to_dense()
        np.testing.assert_allclose(L.to_dense(), expected, rtol=1e-12)

    def test_weighted_norm_approximates_total_variation(self):
        x = deconv._signal(128)
        L = deconv._regularizer(x, 1e-8)
        lx2 = float(np.sum(L.matvec(x) ** 2))
        tv = float(np.sum(np.abs(vp.first_difference(128).matvec(x))))
        assert 0.5 * tv <= lx2 <= tv

    def test_single_jump_signal(self):
        x = np.concatenate([np.zeros(8), np.ones(8)])
        L = deconv._regularizer(x, 1e-8)
        lx2 = float(np.sum(L.matvec(x) ** 2))
        assert lx2 == pytest.approx(1.0, abs=1e-7)

    def test_rejects_nonpositive_tau(self):
        # The weights need a positive finite tau, which the configuration
        # checks before the regularizer is built.
        with pytest.raises(ConfigError, match="tau"):
            vp.build_problem(vp.BenchConfig(tau=0.0))
        with pytest.raises(ConfigError, match="tau"):
            vp.build_problem(vp.BenchConfig(tau=np.inf))


class TestBuildProblem:
    @pytest.mark.parametrize("sigma", [1e-120, 1e120, 0.0])
    def test_rejects_kernel_widths_out_of_range(self, sigma):
        # The kernel's rule on its width, reported as a configuration error.
        with pytest.raises(ConfigError, match="sigma_true: kernel width must be positive"):
            vp.BenchConfig(sigma_true=sigma)

    @pytest.mark.parametrize("y", [1e-120, 1e103, 0.0, math.nan])
    def test_feasible_region_is_the_kernel_width_range(self, small_problem, y):
        # A width the kernel rejects is infeasible, so an iterate that lands
        # there ends the run as infeasible-iterate instead of escaping the
        # loop as the kernel's ValueError.
        assert not small_problem.model.is_feasible(np.array([y]))
        assert not linops.is_kernel_width(y)
        with pytest.raises(ValueError, match="kernel width must be positive"):
            small_problem.model.operator(np.array([y]))

    @pytest.mark.parametrize("y", [1e-100, 2.0, 1e100])
    def test_feasible_inside_the_kernel_width_range(self, small_problem, y):
        assert small_problem.model.is_feasible(np.array([y]))

    def test_start_outside_the_kernel_width_range_is_infeasible(self, small_problem):
        p = small_problem
        with pytest.raises(ValueError, match=r"initial guess \[1\.e-120\] is infeasible"):
            vp.genvarpro(p.model, p.b, p.L, p.lam, np.array([1e-120]))

    def test_noise_ratio_exact(self, problem):
        assert abs(problem.noise_ratio - 0.05) <= 1e-12
        measured = np.linalg.norm(problem.b - problem.b_true) / np.linalg.norm(problem.b_true)
        assert abs(measured - 0.05) <= 1e-12

    def test_zero_noise_level(self):
        p = vp.build_problem(vp.BenchConfig(noise_level=0.0))
        np.testing.assert_array_equal(p.b, p.b_true)

    def test_b_true_recomputes(self, problem):
        A = problem.model.operator(np.array([problem.config.sigma_true]))
        recomputed = A.matvec(problem.x_true)
        assert np.linalg.norm(recomputed - problem.b_true) <= 1e-14 * np.linalg.norm(problem.b_true)

    def test_deterministic_rebuild(self):
        cfg = vp.BenchConfig(rng_seed=42)
        p1 = vp.build_problem(cfg)
        p2 = vp.build_problem(cfg)
        np.testing.assert_array_equal(p1.b, p2.b)
        np.testing.assert_array_equal(p1.x_true, p2.x_true)
        np.testing.assert_array_equal(p1.L.to_dense(), p2.L.to_dense())

    def test_different_seeds_differ(self):
        p1 = vp.build_problem(vp.BenchConfig(rng_seed=1))
        p2 = vp.build_problem(vp.BenchConfig(rng_seed=2))
        assert not np.array_equal(p1.b, p2.b)

    def test_stacked_operator_full_rank(self, problem):
        op = vp.stacked_operator(problem, problem.config.sigma_true)
        s = np.linalg.svd(op.to_dense(), compute_uv=False)
        assert s[-1] > 0.0

    @pytest.mark.parametrize("field,value,message", [
        ("n", 1, "n"),
        ("n", 7, "n must be at least 8"),
        ("sigma_true", -1.0, "sigma_true"),
        ("noise_level", -0.1, "noise_level"),
        ("lam", 0.0, "lambda"),
        ("tau", 0.0, "tau"),
        ("sigma_true", np.inf, "sigma_true"),
        ("noise_level", np.inf, "noise_level"),
        ("lam", np.inf, "lambda"),
        ("tau", np.inf, "tau"),
        ("rng_seed", -1, "seed"),
    ])
    def test_config_errors_name_field(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            vp.BenchConfig(**{field: value})


class TestReducedObjective:
    def test_grid_minimizer_near_true_width(self, problem):
        # Coarse scan: the reduced functional's minimizer sits near the true
        # kernel width (the regularizer was built for this x_true).
        ys, fs = vp.objective_grid(problem, 2.0, 4.0, 0.01)
        y_star = ys[int(np.argmin(fs))]
        assert abs(y_star - 3.0) <= 0.2
        # interior minimum, not a boundary artifact
        assert fs[0] > fs.min() and fs[-1] > fs.min()

    def test_reduced_objective_matches_solver_record(self, problem):
        # The two paths assemble the normal matrix differently (dense S^T S
        # vs A^T A + lam^2 L^T L), so agreement is limited by kappa(N)*eps;
        # checked at both ends of the scan and at its minimizer.
        for y in (2.0, 3.0754, 4.0):
            trace = vp.genvarpro(problem.model, problem.b, problem.L, problem.lam,
                                 np.array([y]), vp.OuterOptions(max_outer_iterations=1))
            rec = trace.records[0]
            assert rec.y[0] == y
            _, (value,) = vp.objective_grid(problem, y, y, 1.0)
            assert value == pytest.approx(rec.f_value, rel=1e-8)

    def test_grid_stays_within_bounds(self, small_problem):
        # (3 - 2) / 0.35 rounds up to 3, which would place a point at 3.05.
        ys, fs = vp.objective_grid(small_problem, 2.0, 3.0, 0.35)
        np.testing.assert_array_equal(ys, 2.0 + 0.35 * np.arange(3))
        assert len(fs) == 3 and ys[-1] <= 3.0

    def test_benchmark_grid_keeps_every_point(self, monkeypatch, problem):
        # The reference scan's 20,001 points, bit for bit, and a grid whose
        # (0.3 - 0.1) / 0.1 rounds to just below 2 keeps its end point.
        monkeypatch.setattr(deconv, "_objective_block", lambda problem, ys: np.zeros(ys.size))
        ys, _ = vp.objective_grid(problem, 2.0, 4.0, 1e-4)
        np.testing.assert_array_equal(ys, 2.0 + 1e-4 * np.arange(20001))
        assert len(vp.objective_grid(problem, 0.1, 0.3, 0.1)[0]) == 3

    def test_singular_point_raises_the_solvers_error(self, monkeypatch, small_problem):
        # A Cholesky that fails raises SingularSystemError, as every solver
        # path does (the CLI maps it to exit 2), and names the width.
        monkeypatch.setattr(deconv, "dpbtrf", lambda band, **kwargs: (band, 3))
        with pytest.raises(vp.SingularSystemError, match=r"at y = 2\.5$"):
            vp.objective_grid(small_problem, 2.5, 2.5, 1.0)

    @pytest.mark.parametrize("fixture", ["problem", "small_problem"])
    def test_scan_matches_the_dense_oracle(self, request, fixture):
        # Every 100th point of the [2, 4] lattice, scanned alone (its own
        # kd') and in one block (the kd' of width 4). Both sum and factor in
        # another order than the oracle, so they agree to rounding only.
        problem = request.getfixturevalue(fixture)
        ys = 2.0 + 1e-4 * np.arange(0, 20001, 100)
        expected = np.array([dense_objective(problem, y) for y in ys])
        alone = np.array([vp.objective_grid(problem, y, y, 1.0)[1][0] for y in ys])
        block_ys, block = vp.objective_grid(problem, 2.0, 4.0, 0.01)
        assert block_ys.size == ys.size
        np.testing.assert_allclose(alone, expected, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(block, [dense_objective(problem, y) for y in block_ys],
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("seed", sorted(GRID_ARGMIN))
    def test_lattice_argmin_by_seed(self, seed):
        # A window of +-0.05 around each seed's minimizer of the full scan.
        problem = vp.build_problem(vp.BenchConfig(rng_seed=seed))
        y_star = GRID_ARGMIN[seed]
        found = vp.grid_minimizer(problem, y_star - 0.05, y_star + 0.05, 1e-4)
        assert abs(found - y_star) < 5e-5

    def test_scan_builds_no_operator_per_point(self, monkeypatch, problem):
        built = []
        init = linops.SymmetricToeplitzOperator.__init__

        def counting(self, first_row):
            built.append(1)
            init(self, first_row)
        monkeypatch.setattr(linops.SymmetricToeplitzOperator, "__init__", counting)
        ys, _ = vp.objective_grid(problem, 2.0, 4.0, 0.01)
        assert ys.size == 201 and built == []

    @pytest.mark.parametrize("lo,hi,resolution,message", [
        (3.0, 2.0, 0.1, "lo must not exceed hi"),
        (2.0, math.inf, 0.1, "hi must be finite"),
        (2.0, math.nan, 0.1, "hi must be finite"),
        (math.nan, 4.0, 0.1, "lo must be finite"),
        (-math.inf, 4.0, 0.1, "lo must be finite"),
        (2.0, 4.0, 0.0, "resolution must be positive"),
        (2.0, 4.0, -0.1, "resolution must be positive"),
    ])
    def test_grid_rejects_bad_bounds(self, small_problem, lo, hi, resolution, message):
        for scan in (vp.objective_grid, vp.grid_minimizer):
            with pytest.raises(ValueError, match=message):
                scan(small_problem, lo, hi, resolution)

    def test_conditioning_of_forward_operator(self, problem):
        s = np.linalg.svd(problem.model.operator(np.array([3.0])).to_dense(),
                          compute_uv=False)
        assert s[0] / s[-1] >= 1e12
