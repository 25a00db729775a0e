"""Closed-form bound evaluators and the backward-error certificate matrix."""

import numpy as np
import pytest

import varproj as vp
from varproj.bounds import BoundInvalidError

from conftest import exact_at


class TestFormulas:
    def test_solution_bound_direct_evaluation(self):
        # 2 * 1 / 0.9 * 1 * 0.1
        assert vp.solution_bound(1.0, 1.0, 1.0, 0.1) == pytest.approx(2.0 / 9.0, rel=1e-15)

    def test_residual_bound_direct_evaluation(self):
        # 2 * 2 / 0.5 * 1 * 0.25
        assert vp.residual_bound(2.0, 1.0, 0.25) == pytest.approx(2.0, rel=1e-15)

    def test_jacobian_bound_direct_evaluation(self):
        # 4 * sqrt(1*1) * 1 * 1/0.9 * 1 * 0.1
        assert vp.jacobian_bound(1, 1, 0, 1.0, 1.0, 1.0, 1.0, 0.1) == \
            pytest.approx(4.0 / 9.0, rel=1e-15)

    def test_jacobian_bound_zero_derivative(self):
        assert vp.jacobian_bound(2, 5, 3, 0.0, 10.0, 1.0, 1.0, 1e-3) == 0.0

    def test_bounds_vanish_as_epsilon_vanishes(self):
        tiny = 1e-300
        assert vp.solution_bound(10.0, 1.0, 1.0, tiny) < 1e-290
        assert vp.residual_bound(10.0, 1.0, tiny) < 1e-290
        assert vp.jacobian_bound(1, 4, 2, 1.0, 10.0, 1.0, 1.0, tiny) < 1e-290

    def test_monotone_increasing_in_epsilon(self):
        kappa = 50.0
        eps_grid = np.linspace(1e-8, 0.9 / kappa, 40)
        sol = [vp.solution_bound(kappa, 2.0, 3.0, e) for e in eps_grid]
        res = [vp.residual_bound(kappa, 2.0, e) for e in eps_grid]
        jac = [vp.jacobian_bound(2, 6, 3, 1.5, kappa, 2.0, 3.0, e) for e in eps_grid]
        for seq in (sol, res, jac):
            assert np.all(np.diff(seq) > 0.0)

    @pytest.mark.parametrize("eps,kappa", [(0.5, 2.0), (1.0, 1.0), (2.0, 10.0)])
    def test_hypothesis_violation_raises(self, eps, kappa):
        with pytest.raises(BoundInvalidError):
            vp.solution_bound(kappa, 1.0, 1.0, eps)
        with pytest.raises(BoundInvalidError):
            vp.residual_bound(kappa, 1.0, eps)
        with pytest.raises(BoundInvalidError):
            vp.jacobian_bound(1, 2, 1, 1.0, kappa, 1.0, 1.0, eps)


class TestBackwardPerturbation:
    def test_exact_solution_gives_negligible_norm(self):
        rng = np.random.default_rng(21)
        M = rng.standard_normal((6, 3))
        d = rng.standard_normal(6)
        x = np.linalg.lstsq(M, d, rcond=None)[0]
        E = vp.backward_perturbation(M, x, d)
        assert np.linalg.norm(E, 2) <= 1e-10 * np.linalg.norm(M, 2)

    def test_zero_residual_gives_zero_matrix(self):
        rng = np.random.default_rng(22)
        M = rng.standard_normal((5, 2))
        x = rng.standard_normal(2)
        E = vp.backward_perturbation(M, x, M @ x)
        np.testing.assert_array_equal(E, np.zeros_like(M))

    def test_perturbed_problem_solved_exactly(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            M = rng.standard_normal((6, 3))
            d = rng.standard_normal(6)
            x_bar = np.linalg.lstsq(M, d, rcond=None)[0] + 0.01 * rng.standard_normal(3)
            E = vp.backward_perturbation(M, x_bar, d)
            resid = (M + E).T @ (d - (M + E) @ x_bar)
            tol = 1e-10 * np.linalg.norm(M, 2) ** 2 * (np.linalg.norm(x_bar) + 1.0)
            assert np.linalg.norm(resid) <= tol

    def test_norm_identity(self):
        # ||E||_2 = ||M^T rbar|| / ||rbar|| for the rank-one construction.
        rng = np.random.default_rng(24)
        M = rng.standard_normal((7, 4))
        d = rng.standard_normal(7)
        x_bar = rng.standard_normal(4)
        rbar = d - M @ x_bar
        E = vp.backward_perturbation(M, x_bar, d)
        expected = np.linalg.norm(M.T @ rbar) / np.linalg.norm(rbar)
        assert np.linalg.norm(E, 2) == pytest.approx(expected, rel=1e-12)


class TestInitialTolerance:
    def test_examples(self):
        assert vp.initial_tolerance(10.0) == pytest.approx(0.01, rel=1e-15)
        assert vp.initial_tolerance(1.0) == pytest.approx(0.1, rel=1e-15)

    def test_rejects_small_kappa(self):
        with pytest.raises(ValueError):
            vp.initial_tolerance(0.5)

    def test_benchmark_within_two_orders_of_shipped_default(self, problem):
        kappa0 = vp.condition_number(vp.stacked_operator(problem, 2.0))
        suggested = vp.initial_tolerance(kappa0)
        ratio = suggested / 1.8718e-4
        assert 1e-2 <= ratio <= 1e2


class TestBenchmarkDominance:
    def test_solution_bound_dominates_along_fixed_small_run(self, problem, s_trace_y2):
        # The fixed tolerance 1e-11 keeps eps*kappa tiny at every iterate, so
        # the solution bound must hold throughout.
        b_norm = np.linalg.norm(problem.b)
        checked = 0
        for rec in s_trace_y2.records:
            if not rec.inner_converged:
                continue
            exact = exact_at(problem, rec.y)
            measured = np.linalg.norm(exact.x - rec.x)
            bound = vp.solution_bound(exact.kappa, b_norm, exact.op_norm, rec.epsilon)
            assert measured < bound
            checked += 1
        assert checked >= 45

    def test_noise_free_large_tolerance_bound(self):
        # Even with a coarse tolerance on exact data the bound dominates.
        p = vp.build_problem(vp.BenchConfig(n=48, sigma_true=2.0, noise_level=0.0,
                                            lam=0.02, rng_seed=5))
        op = vp.stacked_operator(p, 2.0)
        kappa = vp.condition_number(op)
        eps = min(1e-3, 0.4 / kappa)
        d = np.concatenate([p.b, np.zeros(p.L.rows)])
        sol = vp.lsqr_solve(op, d, eps, operator_norm=np.linalg.norm(op.to_dense(), 2))
        assert sol.converged
        x = vp.DirectFactorization(op).solve_rhs(p.b)
        measured = np.linalg.norm(x - sol.x_bar)
        assert measured < vp.solution_bound(kappa, np.linalg.norm(p.b),
                                            np.linalg.norm(op.to_dense(), 2), eps)
