"""Reduced residual, Jacobians, Gauss-Newton steps, and the outer loops."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import varproj as vp
from varproj import varpro
from varproj.cli import DEFAULT_INITIAL_TOLERANCES
from varproj.inner_solvers import DirectFactorization
from varproj.linops import normal_band
from varproj.varpro import SingularStepError, ToleranceWarning


class MaterializedError(RuntimeError):
    """Raised by a patched ``to_dense``: something materialized an operator."""


def _dense_builder(mats):
    a0, parts = mats[0], mats[1:]

    def build(y):
        acc = a0.copy()
        for coeff, part in zip(y, parts):
            acc = acc + coeff * part
        return vp.DenseOperator(acc)

    return build


def toy_linear_model(seed=0, m=4, n=3, r=2):
    """A(y) = A0 + y_0 A1 + y_1 A2 with constant derivatives."""
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((m, n)) for _ in range(r + 1)]
    return vp.SeparableModel(
        m=m, r=r,
        operator=_dense_builder(mats),
        derivative=lambda y, j: vp.DenseOperator(mats[j + 1]),
    )


def toy_trig_model(seed=1, m=6, n=4):
    """A(y) = A0 + sin(y_0) A1 + exp(y_1) A2, analytic derivatives."""
    rng = np.random.default_rng(seed)
    a0, a1, a2 = (rng.standard_normal((m, n)) for _ in range(3))

    def operator(y):
        return vp.DenseOperator(a0 + np.sin(y[0]) * a1 + np.exp(y[1]) * a2)

    def derivative(y, j):
        if j == 0:
            return vp.DenseOperator(np.cos(y[0]) * a1)
        return vp.DenseOperator(np.exp(y[1]) * a2)

    return vp.SeparableModel(m=m, r=2, operator=operator, derivative=derivative)


def constant_model(seed=2, m=5, n=3):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    return vp.SeparableModel(
        m=m, r=1,
        operator=lambda y: vp.DenseOperator(a),
        derivative=lambda y, j: vp.DenseOperator(np.zeros((m, n))),
    )


def _columns(model):
    """The number of columns n of the model's m x n operators."""
    return model.operator(np.zeros(model.r)).cols


def _toy_setup(model, seed=3, lam=0.3):
    rng = np.random.default_rng(seed)
    q = 2
    L = vp.DenseOperator(rng.standard_normal((q, _columns(model))))
    b = rng.standard_normal(model.m)
    return L, b, lam


def _fd_jacobian(model, y, b, L, lam, h=1e-6):
    cols = []
    for j in range(model.r):
        yp, ym = y.copy(), y.copy()
        yp[j] += h
        ym[j] -= h
        fp = vp.exact_residual(model, yp, b, L, lam)[2]
        fm = vp.exact_residual(model, ym, b, L, lam)[2]
        cols.append((fp - fm) / (2 * h))
    return np.column_stack(cols)


class TestReducedResidual:
    def test_zero_x(self):
        # b orthogonal to the range of A: the exact inner solution is x = 0
        # and the reduced residual is [-b; 0].
        a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        model = vp.SeparableModel(m=3, r=1,
                                  operator=lambda y: vp.DenseOperator(a),
                                  derivative=lambda y, j: vp.DenseOperator(np.zeros((3, 2))))
        L = vp.DenseOperator(np.eye(2))
        b = np.array([0.0, 0.0, 2.0])
        _, x, out = vp.exact_residual(model, np.array([0.3]), b, L, 0.5)
        np.testing.assert_array_equal(x, np.zeros(2))
        np.testing.assert_array_equal(out[: model.m], -b)
        np.testing.assert_array_equal(out[model.m :], np.zeros(L.rows))

    def test_consistent_system_zero_residual(self):
        # Square invertible A, lam = 0, b = A x_star: the inner solution
        # reproduces x_star and the residual vanishes.
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        model = vp.SeparableModel(m=4, r=1,
                                  operator=lambda y: vp.DenseOperator(a),
                                  derivative=lambda y, j: vp.DenseOperator(np.zeros((4, 4))))
        L = vp.DenseOperator(rng.standard_normal((2, 4)))
        x_star = rng.standard_normal(4)
        b = a @ x_star
        _, x, fvec = vp.exact_residual(model, np.array([1.0]), b, L, 0.0)
        assert np.linalg.norm(fvec) <= 1e-8 * np.linalg.norm(b)

    def test_value_matches_dense_assembly_oracle(self, problem):
        y = np.array([2.7])
        _, x, fvec = vp.exact_residual(problem.model, y, problem.b, problem.L, problem.lam)
        dense = vp.stacked_operator(problem, y[0]).to_dense()
        d = np.concatenate([problem.b, np.zeros(problem.L.rows)])
        oracle = dense @ x - d
        value = 0.5 * float(fvec @ fvec)
        expected = 0.5 * float(oracle @ oracle)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        model = toy_linear_model()
        L, b, lam = _toy_setup(model)
        with pytest.raises(ValueError):
            vp.exact_residual(model, np.array([0.1, 0.2, 0.3]), b, L, lam)
        with pytest.raises(ValueError):
            vp.exact_residual(model, np.array([0.1, 0.2]), np.append(b, 1.0), L, lam)


class TestJacobians:
    def test_constant_model_zero_jacobian(self):
        model = constant_model()
        L, b, lam = _toy_setup(model)
        fact, x, _ = vp.exact_residual(model, np.array([0.7]), b, L, lam)
        J = vp.exact_jacobian(model, np.array([0.7]), fact, x, b)
        np.testing.assert_array_equal(J, np.zeros_like(J))

    @pytest.mark.parametrize("maker,seed", [(toy_linear_model, 10), (toy_trig_model, 11)])
    def test_matches_dense_pinv_oracle_off_the_inner_solution(self, maker, seed):
        # Column j is P_perp [dA/dy_j x; 0] + (S^dagger)^T dA/dy_j^T (b - A x)
        # at any x, here one that is not the inner solution, with the
        # pseudoinverse of the materialized stack from numpy's pinv.
        model = maker(seed=seed, m=9, n=5)
        L, b, lam = _toy_setup(model, seed=seed)
        rng = np.random.default_rng(seed)
        y = rng.uniform(-0.8, 0.8, size=model.r)
        fact, x_exact, _ = vp.exact_residual(model, y, b, L, lam)
        x = x_exact + rng.standard_normal(x_exact.size)
        J = vp.exact_jacobian(model, y, fact, x, b)
        S = fact.op.to_dense()
        pinv = np.linalg.pinv(S)
        perp = np.eye(S.shape[0]) - S @ pinv
        residual = b - model.operator(y).to_dense() @ x
        for j in range(model.r):
            dA = model.derivative(y, j).to_dense()
            u = np.concatenate([dA @ x, np.zeros(L.rows)])
            expected = perp @ u + pinv.T @ (dA.T @ residual)
            np.testing.assert_allclose(J[:, j], expected, rtol=0,
                                       atol=1e-10 * np.linalg.norm(expected))

    @pytest.mark.parametrize("maker,seed", [(toy_linear_model, 5), (toy_trig_model, 6)])
    def test_matches_finite_differences_on_toys(self, maker, seed):
        model = maker()
        L, b, lam = _toy_setup(model, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            y = rng.uniform(-0.8, 0.8, size=model.r)
            fact, x, _ = vp.exact_residual(model, y, b, L, lam)
            J = vp.exact_jacobian(model, y, fact, x, b)
            J_fd = _fd_jacobian(model, y, b, L, lam)
            assert np.linalg.norm(J - J_fd, 2) <= 1e-5 * max(1.0, np.linalg.norm(J, 2))

    def test_benchmark_gradient_matches_finite_differences(self, problem):
        h = 1e-6 * 3.0
        for y0 in (2.0, 3.0, 4.0):
            y = np.array([y0])
            op = vp.stacked_operator(problem, y0)
            fact = DirectFactorization(op)
            x = fact.solve_rhs(problem.b)
            d = np.concatenate([problem.b, np.zeros(problem.L.rows)])
            fvec = op.matvec(x) - d
            J = vp.exact_jacobian(problem.model, y, fact, x, problem.b)
            grad = vp.gradient(J, fvec)

            def value(yv):
                opv = vp.stacked_operator(problem, yv)
                xv = DirectFactorization(opv).solve_rhs(problem.b)
                fv = opv.matvec(xv) - d
                return 0.5 * float(fv @ fv)

            fd = (value(y0 + h) - value(y0 - h)) / (2 * h)
            assert abs(grad[0] - fd) <= 1e-5 * max(1.0, abs(grad[0]))

    def test_approx_equals_exact_bitwise_for_exact_x(self, problem):
        y = np.array([2.4])
        op = vp.stacked_operator(problem, y[0])
        fact = DirectFactorization(op)
        x = fact.solve_rhs(problem.b)
        J = vp.exact_jacobian(problem.model, y, fact, x, problem.b)
        J_bar = varpro.approx_jacobian(problem.model, y, fact, x, problem.b)
        np.testing.assert_array_equal(J, J_bar)

    def test_approx_jacobian_close_at_tight_tolerance(self, problem):
        y = np.array([2.0])
        op = vp.stacked_operator(problem, y[0])
        fact = DirectFactorization(op)
        d = np.concatenate([problem.b, np.zeros(problem.L.rows)])
        sol = vp.lsqr_solve(op, d, 1e-11)
        assert sol.converged
        x = fact.solve_rhs(problem.b)
        J = vp.exact_jacobian(problem.model, y, fact, x, problem.b)
        J_bar = vp.exact_jacobian(problem.model, y, fact, sol.x_bar, problem.b)
        assert np.linalg.norm(J_bar - J, 2) <= 1e-6 * np.linalg.norm(J, 2)

    def test_approx_jacobian_error_below_closed_form_bound(self, problem):
        y = np.array([2.0])
        op = vp.stacked_operator(problem, y[0])
        fact = DirectFactorization(op)
        d = np.concatenate([problem.b, np.zeros(problem.L.rows)])
        eps = 1e-6
        sol = vp.lsqr_solve(op, d, eps, operator_norm=np.linalg.norm(op.to_dense(), 2))
        assert sol.converged
        x = fact.solve_rhs(problem.b)
        J = vp.exact_jacobian(problem.model, y, fact, x, problem.b)
        J_bar = vp.exact_jacobian(problem.model, y, fact, sol.x_bar, problem.b)
        kappa = vp.condition_number(op)
        deriv_norm = np.linalg.norm(problem.model.derivative(y, 0).to_dense(), 2)
        bound = vp.jacobian_bound(1, 128, 127, deriv_norm, kappa,
                                  np.linalg.norm(problem.b), np.linalg.norm(op.to_dense(), 2), eps)
        assert np.linalg.norm(J_bar - J, 2) <= bound

    def test_gradient_property_random_models(self):
        for maker, seed in [(toy_linear_model, 7), (toy_trig_model, 8)]:
            model = maker()
            L, b, lam = _toy_setup(model, seed=seed)
            rng = np.random.default_rng(seed + 100)
            for _ in range(10):
                y = rng.uniform(-0.7, 0.7, size=model.r)
                fact, x, fvec = vp.exact_residual(model, y, b, L, lam)
                J = vp.exact_jacobian(model, y, fact, x, b)
                grad = vp.gradient(J, fvec)

                def value(yv):
                    _, _, fv = vp.exact_residual(model, yv, b, L, lam)
                    return 0.5 * float(fv @ fv)

                fd = np.empty(model.r)
                for j in range(model.r):
                    h = 1e-6 * max(1.0, abs(y[j]))
                    yp, ym = y.copy(), y.copy()
                    yp[j] += h
                    ym[j] -= h
                    fd[j] = (value(yp) - value(ym)) / (2 * h)
                assert np.linalg.norm(grad - fd) <= 1e-4 * (1.0 + np.linalg.norm(grad))


class TestGradientAndStep:
    def test_gradient_zero_residual(self):
        J = np.ones((5, 2))
        np.testing.assert_array_equal(vp.gradient(J, np.zeros(5)), np.zeros(2))

    def test_gradient_matches_dense_multiply_oracle(self):
        rng = np.random.default_rng(9)
        J = rng.standard_normal((7, 3))
        f = rng.standard_normal(7)
        oracle = np.array([float(J[:, j] @ f) for j in range(3)])
        np.testing.assert_allclose(vp.gradient(J, f), oracle, rtol=1e-13)

    def test_step_zero_rhs(self):
        J = np.array([[1.0], [2.0]])
        np.testing.assert_array_equal(varpro.gauss_newton_step(J, np.zeros(2)), np.zeros(1))

    def test_step_scalar_projection(self):
        J = np.array([[1.0], [0.0], [0.0]])
        g = np.array([-3.0, 0.0, 0.0])
        np.testing.assert_allclose(varpro.gauss_newton_step(J, g), np.array([3.0]), rtol=1e-14)

    def test_step_satisfies_normal_equations(self):
        rng = np.random.default_rng(10)
        J = rng.standard_normal((10, 2))
        g = rng.standard_normal(10)
        t = varpro.gauss_newton_step(J, g)
        lhs = J.T @ J @ t
        rhs = -J.T @ g
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_step_rank_deficient(self):
        with pytest.raises(SingularStepError):
            varpro.gauss_newton_step(np.zeros((4, 2)), np.ones(4))


class TestToleranceSchedule:
    def test_kinds(self):
        c = vp.ToleranceSchedule("constant", 1e-3)
        assert [c.value(k) for k in range(4)] == [1e-3] * 4
        l = vp.ToleranceSchedule("linear", 1e-3)
        assert l.value(0) == 1e-3
        assert l.value(4) == 1e-3 / 4
        e = vp.ToleranceSchedule("exponential", 1e-3)
        for k in range(1, 20):
            assert e.value(k) == e.value(k - 1) / 2
        s = vp.ToleranceSchedule("fixed-small")
        assert s.value(0) == 1e-11 and s.value(100) == 1e-11

    def test_exponential_clamps_at_floor(self):
        e = vp.ToleranceSchedule("exponential", 1e-3)
        assert e.value(500) == np.finfo(float).eps
        assert e.value(500) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            vp.ToleranceSchedule("geometric", 1e-3)
        with pytest.raises(ValueError):
            vp.ToleranceSchedule("constant", 0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="epsilon0"):
                vp.ToleranceSchedule("constant", bad)
        with pytest.raises(ValueError, match="iteration index must be nonnegative"):
            vp.ToleranceSchedule("constant", 1e-3).value(-1)

    @pytest.mark.parametrize("kind", ["constant", "linear", "exponential"])
    def test_epsilon0_required_where_read(self, kind):
        with pytest.raises(ValueError, match=f"a {kind} schedule needs epsilon0"):
            vp.ToleranceSchedule(kind)


class TestOuterLoops:
    def test_constant_model_stops_at_start(self):
        model = constant_model()
        L, b, lam = _toy_setup(model)
        trace = vp.genvarpro(model, b, L, lam, np.array([0.4]),
                             vp.OuterOptions(max_outer_iterations=10))
        assert trace.status == "gradient-tolerance"
        assert len(trace) == 1
        np.testing.assert_array_equal(trace.records[0].y, np.array([0.4]))
        np.testing.assert_array_equal(trace.records[0].gradient, np.zeros(1))

    def test_noise_free_lambda_zero_gradient_vanishes_at_truth(self):
        # Mildly blurred exact data with lam = 0: at the true kernel width
        # the reduced functional and its gradient vanish to rounding. (With
        # square invertible A and no noise the reduced functional is ~0
        # everywhere, so a full Gauss-Newton step from there would be a
        # ratio of rounding noise.)
        p = vp.build_problem(vp.BenchConfig(n=32, sigma_true=1.0, noise_level=0.0))
        y = np.array([1.0])
        fact, x, fvec = vp.exact_residual(p.model, y, p.b, p.L, 0.0)
        J = vp.exact_jacobian(p.model, y, fact, x, p.b)
        assert 0.5 * float(fvec @ fvec) <= 1e-12
        assert np.linalg.norm(vp.gradient(J, fvec)) <= 1e-10

    def test_record_count_and_finite_f(self, gp_trace_y2):
        assert len(gp_trace_y2) <= 50 + 1
        assert all(np.isfinite(rec.f_value) for rec in gp_trace_y2.records)

    def test_infeasible_y0_rejected(self, problem):
        with pytest.raises(ValueError):
            vp.genvarpro(problem.model, problem.b, problem.L, problem.lam,
                         np.array([-1.0]), vp.OuterOptions())

    @pytest.mark.parametrize("solver", [vp.genvarpro, vp.inexact_genvarpro])
    def test_infinite_lambda_rejected(self, small_problem, solver):
        p = small_problem
        opts = vp.OuterOptions(schedule=vp.ToleranceSchedule("fixed-small"))
        with pytest.raises(ValueError, match="lambda must be nonnegative and finite"):
            solver(p.model, p.b, p.L, math.inf, np.array([1.6]), opts)

    def test_nan_data_rejected(self, small_problem):
        # The factorization skips scipy's scan of the finite Gram and factor,
        # and a solve checks its right-hand side alone: NaN data is still a
        # ValueError, from the exact solve and from LSQR.
        p = small_problem
        b = p.b.copy()
        b[3] = math.nan
        y0 = np.array([1.6])
        with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
            vp.genvarpro(p.model, b, p.L, p.lam, y0)
        with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
            vp.exact_residual(p.model, y0, b, p.L, p.lam)
        opts = vp.OuterOptions(schedule=vp.ToleranceSchedule("fixed-small"))
        with pytest.raises(ValueError, match="right-hand side must be finite"):
            vp.inexact_genvarpro(p.model, b, p.L, p.lam, y0, opts)

    def test_inner_failure_gives_partial_trace(self):
        # Rank-deficient A with lam = 0 makes the normal equations singular.
        a = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        model = vp.SeparableModel(m=3, r=1,
                                  operator=lambda y: vp.DenseOperator(a),
                                  derivative=lambda y, j: vp.DenseOperator(np.zeros((3, 2))))
        L = vp.DenseOperator(np.zeros((1, 2)))
        trace = vp.genvarpro(model, np.ones(3), L, 0.0, np.array([1.0]),
                             vp.OuterOptions(max_outer_iterations=3))
        assert trace.status == "inner-failure"
        assert trace.failed
        assert len(trace) == 0
        assert trace.warnings
        opts = vp.OuterOptions(max_outer_iterations=3,
                               schedule=vp.ToleranceSchedule("fixed-small"))
        inexact = vp.inexact_genvarpro(model, np.ones(3), L, 0.0, np.array([1.0]), opts)
        assert inexact.status == "inner-failure"
        assert len(inexact) == 0
        assert inexact.warnings == trace.warnings

    @pytest.mark.parametrize("field,value,message", [
        ("max_outer_iterations", 0, "max_outer_iterations"),
        ("step_tolerance", -1.0, "stopping tolerances"),
        ("step_tolerance", math.nan, "stopping tolerances"),
        ("norm_estimate_mode", "bogus", "norm_estimate_mode"),
    ])
    def test_options_validated_at_construction(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            vp.OuterOptions(**{field: value})

    def test_inexact_requires_schedule(self, problem):
        with pytest.raises(ValueError):
            vp.inexact_genvarpro(problem.model, problem.b, problem.L, problem.lam,
                                 np.array([2.0]), vp.OuterOptions())

    def test_inexact_warns_when_tolerance_too_large(self, small_problem):
        p = small_problem
        opts = vp.OuterOptions(max_outer_iterations=1,
                               schedule=vp.ToleranceSchedule("constant", 0.5))
        with pytest.warns(ToleranceWarning) as caught:
            vp.inexact_genvarpro(p.model, p.b, p.L, p.lam, np.array([1.5]), opts)
        # attributed to the caller of inexact_genvarpro, not to the library
        assert [w.filename for w in caught] == [__file__]

    @pytest.mark.parametrize("margin", [1e-6, -1e-6, -0.05])
    def test_warning_decided_by_certificate(self, small_problem, margin):
        # The warning fires exactly when the certificate fails. At
        # n = 48 the shifted Cholesky certifies kappa0 < limit only from
        # about limit = 1.0154 kappa0, so it also fires for eps0 kappa0
        # just below 1, and not for eps0 kappa0 = 0.95.
        p = small_problem
        op = vp.stacked_operator(p, 1.5)
        kappa0 = vp.condition_number(op)
        eps0 = (1.0 + margin) / kappa0
        certified = DirectFactorization(op).condition_number_below(1.0 / eps0)
        assert certified == (margin < -0.01)
        opts = vp.OuterOptions(max_outer_iterations=1,
                               schedule=vp.ToleranceSchedule("constant", eps0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            vp.inexact_genvarpro(p.model, p.b, p.L, p.lam, np.array([1.5]), opts)
        messages = [str(w.message) for w in caught if issubclass(w.category, ToleranceWarning)]
        assert messages == ([] if certified else
                            [f"could not certify eps0 * kappa0 < 1 for eps0 = {eps0:.3g}; "
                             "inner-solve error bounds may not apply"])

    def test_kappa0_check_needs_no_svd(self, small_problem, monkeypatch):
        # eps0 = 0.5 is far past 1 / kappa0, so the check fails and warns,
        # without the SVD the warning was once decided by.
        def refuse(*args, **kwargs):
            raise AssertionError("SVD called")
        monkeypatch.setattr(varpro, "condition_number", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        p = small_problem
        opts = vp.OuterOptions(max_outer_iterations=3,
                               schedule=vp.ToleranceSchedule("constant", 0.5))
        with pytest.warns(ToleranceWarning, match="could not certify"):
            trace = vp.inexact_genvarpro(p.model, p.b, p.L, p.lam, np.array([1.5]), opts)
        assert len(trace) == 4
        assert not trace.failed

    @pytest.fixture
    def no_materializing(self, monkeypatch):
        def refuse(self):
            raise MaterializedError(type(self).__name__)
        for cls in (vp.LinearOperator, vp.DenseOperator, vp.SymmetricToeplitzOperator,
                    vp.FirstDifferenceOperator, vp.StackedOperator):
            monkeypatch.setattr(cls, "to_dense", refuse)

    def test_band_route_solves_materialize_nothing(self, no_materializing):
        # At n = 512 and widths 2 to 2.1 the normal equations take the band
        # route, so neither solver needs any operator as a matrix.
        p = vp.build_problem(vp.BenchConfig(n=512, sigma_true=2.0))
        y0 = np.array([2.0])
        assert normal_band(vp.stacked_operator(p, 2.0)) is not None
        exact = vp.genvarpro(p.model, p.b, p.L, p.lam, y0, vp.OuterOptions(max_outer_iterations=3))
        opts = vp.OuterOptions(max_outer_iterations=3,
                               schedule=vp.ToleranceSchedule("linear", 1e-6))
        inexact = vp.inexact_genvarpro(p.model, p.b, p.L, p.lam, y0, opts)
        for trace in (exact, inexact):
            assert trace.status == "max-iterations"
            assert len(trace) == 4

    @pytest.mark.parametrize("schedule", [None, vp.ToleranceSchedule("fixed-small")],
                             ids=["genvarpro", "inexact_genvarpro"])
    def test_dense_route_materializes_in_the_factorization(self, problem, no_materializing,
                                                            schedule):
        # The n = 128 normal equations are dense: DirectFactorization
        # materializes S in the constructor of its ``_Gram`` base to form
        # them, and the solver lets the error through.
        solve = vp.genvarpro if schedule is None else vp.inexact_genvarpro
        with pytest.raises(MaterializedError) as caught:
            solve(problem.model, problem.b, problem.L, problem.lam, np.array([2.0]),
                  vp.OuterOptions(schedule=schedule))
        assert str(caught.value) == "StackedOperator"
        assert [(entry.path.name, entry.name) for entry in caught.traceback][-3:] == [
            ("inner_solvers.py", "__init__"), ("inner_solvers.py", "__init__"),
            ("test_varpro.py", "refuse")]

    def test_one_materialization_per_factorization(self, problem, monkeypatch):
        # Each outer iteration materializes the dense n = 128 S once, in its
        # factorization; the kappa0 check at k = 0 reads the S it kept.
        calls = []

        def counting(op, _original=vp.StackedOperator.to_dense):
            calls.append(op)
            return _original(op)
        monkeypatch.setattr(vp.StackedOperator, "to_dense", counting)
        opts = vp.OuterOptions(max_outer_iterations=1,
                               schedule=vp.ToleranceSchedule("constant", 1e-6))
        trace = vp.inexact_genvarpro(problem.model, problem.b, problem.L, problem.lam,
                                     np.array([2.0]), opts)
        assert len(trace) == 2 and trace.warnings == []
        assert len(calls) == 2

    def test_unconverged_inner_solves_reported_without_a_cause(self, small_problem):
        # Eleven inner solves stop unconverged after 512-514 iterations, far
        # below the cap of 10,000. Their records hold the count, criterion
        # and tolerance; the run did not abort, so there is no warning.
        p = small_problem
        opts = vp.OuterOptions(max_outer_iterations=40,
                               schedule=vp.ToleranceSchedule("exponential", 1e-4))
        trace = vp.inexact_genvarpro(p.model, p.b, p.L, p.lam, np.array([1.5]), opts)
        assert not trace.failed
        unconverged = [rec for rec in trace.records if not rec.inner_converged]
        assert len(unconverged) == 11
        for rec in unconverged:
            assert 512 <= rec.inner_iterations <= 514
            assert rec.inner_criterion >= rec.epsilon
        assert trace.warnings == []

    def test_fixed_small_matches_exact_trace(self, small_problem):
        p = small_problem
        opts_exact = vp.OuterOptions(max_outer_iterations=12)
        exact = vp.genvarpro(p.model, p.b, p.L, p.lam, np.array([1.5]), opts_exact)
        opts_in = vp.OuterOptions(max_outer_iterations=12,
                                  schedule=vp.ToleranceSchedule("fixed-small"))
        inexact = vp.inexact_genvarpro(p.model, p.b, p.L, p.lam, np.array([1.5]), opts_in)
        assert len(exact) == len(inexact)
        for re_, ri in zip(exact.records, inexact.records):
            assert abs(re_.y[0] - ri.y[0]) <= 1e-6
            assert ri.f_value == pytest.approx(re_.f_value, rel=1e-8)

    def test_explicit_norm_on_band_path(self):
        # At n = 256 and width 1 the normal equations take the band path, and
        # the explicit norm comes from the band Gram's largest eigenvalue.
        p = vp.build_problem(vp.BenchConfig(n=256, sigma_true=1.0))
        assert normal_band(vp.stacked_operator(p, 1.0)) is not None
        opts = vp.OuterOptions(max_outer_iterations=2,
                               norm_estimate_mode="explicit-2norm",
                               schedule=vp.ToleranceSchedule("constant", 1e-6))
        trace = vp.inexact_genvarpro(p.model, p.b, p.L, p.lam, np.array([1.0]), opts)
        assert not trace.failed
        assert len(trace) == 3
        assert all(rec.inner_converged for rec in trace.records)

    def test_zero_step_termination_on_noise_free_data(self):
        # Starting at the true kernel width with exact data and a small
        # regularization weight, the first step is below the tolerance, so
        # every solver stops at iterate y^(1).
        p = vp.build_problem(vp.BenchConfig(n=48, sigma_true=2.0, noise_level=0.0,
                                            lam=1e-3, rng_seed=3))
        opts = vp.OuterOptions(max_outer_iterations=8, step_tolerance=1e-4)
        traces = {"genvarpro": vp.genvarpro(p.model, p.b, p.L, p.lam, np.array([2.0]), opts)}
        for kind in varpro.SCHEDULE_KINDS:
            scheduled = replace(opts, schedule=vp.ToleranceSchedule(kind, 1e-5))
            traces[kind] = vp.inexact_genvarpro(p.model, p.b, p.L, p.lam, np.array([2.0]),
                                                scheduled)
        for name, trace in traces.items():
            assert trace.status == "step-tolerance", name
            assert [rec.k for rec in trace.records] == [0, 1], name

    def test_inexact_trace_records_schedule(self, small_problem):
        p = small_problem
        sched = vp.ToleranceSchedule("exponential", 1e-4)
        opts = vp.OuterOptions(max_outer_iterations=5, schedule=sched)
        trace = vp.inexact_genvarpro(p.model, p.b, p.L, p.lam, np.array([1.5]), opts)
        for rec in trace.records:
            assert rec.epsilon == sched.value(rec.k)
            assert rec.inner_criterion is not None
            assert rec.inner_iterations >= 0

    def test_final_gradient_small_at_convergence(self, gp_trace_y2):
        assert np.linalg.norm(gp_trace_y2.records[-1].gradient) <= 1e-4

    def test_benchmark_gradient_small_by_fifth_iteration(self, gp_trace_y2):
        assert np.linalg.norm(gp_trace_y2.records[5].gradient) <= 1e-4

    def test_fixed_small_f_values_track_exact_on_benchmark(self, gp_trace_y2, s_trace_y2):
        count = min(len(gp_trace_y2), len(s_trace_y2))
        for k in range(count):
            exact = gp_trace_y2.records[k].f_value
            inexact = s_trace_y2.records[k].f_value
            assert abs(inexact - exact) <= 1e-8 * abs(exact)


# The accuracy bands of the benchmark's paper-n128 workload, _PAPER_BANDS in
# bench/workloads.py, which tier-1 does not import: the largest |y - y*|
# after 50 steps from y0, as a share of |y0 - y*|.
PAPER_BANDS = {"constant": 0.5, "linear": 1e-2, "exponential": 1e-5, "fixed-small": 1e-5}


@pytest.mark.parametrize("kind", sorted(PAPER_BANDS))
def test_default_norm_schedules_within_benchmark_bands(problem, gp_trace_y2, kind):
    # The runs of `compare`, `table` and the benchmark: LSQR stops on its
    # bidiagonal norm estimate, unlike the 2-norm runs of the acceptance
    # fixtures. y* is the exact solver's limit.
    y_star = gp_trace_y2.records[-1].y[0]
    opts = vp.OuterOptions(schedule=vp.ToleranceSchedule(kind, DEFAULT_INITIAL_TOLERANCES[2.0]))
    trace = vp.inexact_genvarpro(problem.model, problem.b, problem.L, problem.lam,
                                 np.array([2.0]), opts)
    assert trace.status == "max-iterations" and len(trace) == 51
    for rec in trace.records:
        assert not rec.inner_converged or rec.inner_criterion < rec.epsilon
    assert abs(trace.records[-1].y[0] - y_star) / abs(2.0 - y_star) <= PAPER_BANDS[kind]


def _identical_derivatives_model():
    """r = 2 with dA/dy_0 = dA/dy_1, so every Jacobian has two equal columns."""
    rng = np.random.default_rng(21)
    a0, a1 = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
    return vp.SeparableModel(
        m=5, r=2,
        operator=lambda y: vp.DenseOperator(a0 + (y[0] + y[1]) * a1),
        derivative=lambda y, j: vp.DenseOperator(a1),
    ), np.array([0.2, 0.1])


def _leaves_start_model():
    """Feasible only at its starting point, so the first step leaves the region."""
    model = toy_linear_model()
    y0 = np.array([0.3, -0.2])
    return vp.SeparableModel(m=model.m, r=model.r, operator=model.operator,
                             derivative=model.derivative,
                             feasible=lambda y: bool(np.array_equal(y, y0))), y0


def _singular_after_start_model():
    """Full rank at y0 = 1 and rank one everywhere else; with lam = 0 the
    normal equations are singular after the first step."""
    rng = np.random.default_rng(22)
    full, deriv = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
    singular = full.copy()
    singular[:, 1:] = 0.0
    return vp.SeparableModel(
        m=5, r=1,
        operator=lambda y: vp.DenseOperator(full if y[0] == 1.0 else singular),
        derivative=lambda y, j: vp.DenseOperator(deriv),
    ), np.array([1.0])


@pytest.mark.parametrize("solver", [vp.genvarpro, vp.inexact_genvarpro])
@pytest.mark.parametrize("make,status", [
    (_identical_derivatives_model, "singular-step"),
    (_leaves_start_model, "infeasible-iterate"),
    (_singular_after_start_model, "inner-failure"),
])
def test_abort_status_and_partial_trace(solver, make, status):
    model, y0 = make()
    rng = np.random.default_rng(23)
    b = rng.standard_normal(model.m)
    lam = 0.0 if status == "inner-failure" else 0.3
    n = _columns(model)
    L = vp.DenseOperator(np.zeros((2, n)) if lam == 0.0 else rng.standard_normal((2, n)))
    opts = vp.OuterOptions(max_outer_iterations=5,
                           schedule=vp.ToleranceSchedule("fixed-small"))
    trace = solver(model, b, L, lam, y0, opts)
    assert trace.status == status
    assert trace.failed
    assert len(trace) == 1
    assert trace.warnings


@pytest.mark.parametrize("solver", [vp.genvarpro, vp.inexact_genvarpro])
def test_wrong_data_length_rejected(solver, small_problem):
    p = small_problem
    opts = vp.OuterOptions(schedule=vp.ToleranceSchedule("fixed-small"))
    with pytest.raises(ValueError, match=f"b must have length {p.model.m}"):
        solver(p.model, np.append(p.b, 1.0), p.L, p.lam, np.array([2.0]), opts)
