"""Reduced-functional machinery and the outer Gauss-Newton loop.

Eliminating the linear variable of a separable problem through the inner
least-squares solution leaves a reduced functional f(y) = 0.5 ||F(y)||^2,
where F(y) stacks the data misfit and the scaled regularizer residual.
Both solvers minimize it by the same Gauss-Newton loop and differ only in
the inner solve: ``genvarpro`` solves exactly and uses the analytic
Jacobian; ``inexact_genvarpro`` runs LSQR stopped at a scheduled tolerance
and assembles the matching approximate Jacobian from the LSQR iterate.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import scipy.linalg

from .inner_solvers import (
    DirectFactorization,
    SingularSystemError,
    condition_number,  # not called here: bench/spans.py wraps varpro.condition_number
    lsqr_solve,
)
from .linops import LinearOperator, stack

_EPS = float(np.finfo(float).eps)

SCHEDULE_KINDS = ("constant", "linear", "exponential", "fixed-small")
FIXED_SMALL_TOLERANCE = 1e-11

NORM_MODE_INTERNAL = "internal-bidiagonal"
NORM_MODE_EXPLICIT = "explicit-2norm"


class SingularStepError(RuntimeError):
    """The Gauss-Newton step system is rank deficient."""


class ToleranceWarning(UserWarning):
    """The initial inner tolerance is too large for the error bounds to apply."""


@dataclass(frozen=True)
class SeparableModel:
    """A forward operator family A(y) with its partial derivatives.

    ``operator`` maps a length-r parameter vector to an m x n operator;
    ``derivative`` maps (y, j) to dA/dy_j of the same shape. ``feasible``
    is an optional predicate restricting the parameter domain.
    """

    m: int
    r: int
    operator: Callable[[np.ndarray], LinearOperator]
    derivative: Callable[[np.ndarray, int], LinearOperator]
    feasible: Callable[[np.ndarray], bool] | None = None

    def is_feasible(self, y: np.ndarray) -> bool:
        return True if self.feasible is None else bool(self.feasible(y))


@dataclass(frozen=True)
class ToleranceSchedule:
    """Rule generating the inner tolerance sequence eps^(k).

    Kinds: ``constant`` keeps eps0; ``linear`` is eps0/k for k >= 1 (eps0 at
    k = 0); ``exponential`` halves every iteration; ``fixed-small`` always
    returns 1e-11 whatever eps0 is, and is the only kind that needs none.
    Values are clamped below at machine epsilon so the exponential schedule
    bottoms out there instead of underflowing.
    """

    kind: str
    epsilon0: float | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.epsilon0 is None:
            if self.kind != "fixed-small":
                raise ValueError(f"a {self.kind} schedule needs epsilon0")
        elif not 0.0 < self.epsilon0 < np.inf:
            raise ValueError(f"epsilon0 must be positive and finite, got {self.epsilon0}")

    def value(self, k: int) -> float:
        if k < 0:
            raise ValueError(f"iteration index must be nonnegative, got {k}")
        if self.kind == "constant":
            v = self.epsilon0
        elif self.kind == "linear":
            v = self.epsilon0 if k == 0 else self.epsilon0 / k
        elif self.kind == "exponential":
            v = self.epsilon0 * 0.5**k
        else:  # fixed-small
            v = FIXED_SMALL_TOLERANCE
        return max(v, _EPS)


@dataclass(frozen=True)
class OuterOptions:
    """Stopping rules and inner-solver controls for the outer loops.

    The loop stops when the step norm falls to ``step_tolerance``, the
    gradient is exactly zero, or after ``max_outer_iterations``
    Gauss-Newton steps, whichever happens first.
    ``schedule`` is required by the inexact variant only.
    ``norm_estimate_mode`` is the inexact variant's LSQR norm control:
    ``explicit-2norm`` takes ||S||_2 in the LSQR stopping test from the Gram
    matrix the iteration factors (for bound-verification runs),
    ``internal-bidiagonal`` from LSQR's running estimate.
    """

    max_outer_iterations: int = 50
    step_tolerance: float = 1e-10
    schedule: ToleranceSchedule | None = None
    norm_estimate_mode: str = NORM_MODE_INTERNAL

    def __post_init__(self):
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be at least 1")
        if not self.step_tolerance >= 0.0:
            raise ValueError("stopping tolerances must be nonnegative")
        if self.norm_estimate_mode not in (NORM_MODE_INTERNAL, NORM_MODE_EXPLICIT):
            raise ValueError(f"norm_estimate_mode: unknown mode {self.norm_estimate_mode!r}")


@dataclass
class IterationRecord:
    """Everything recorded at one outer iterate y^(k)."""

    k: int
    y: np.ndarray
    x: np.ndarray
    f_value: float
    gradient: np.ndarray
    step: np.ndarray | None = None
    epsilon: float | None = None
    inner_iterations: int = 0
    inner_criterion: float | None = None
    inner_converged: bool = True
    seconds: float = 0.0


@dataclass
class SolverTrace:
    """Per-iteration records of one outer run plus its final status.

    ``status`` is one of ``step-tolerance``, ``gradient-tolerance`` (the
    gradient is exactly zero), ``max-iterations``, ``inner-failure``,
    ``singular-step``, ``infeasible-iterate``. The last three mark aborted
    runs with a partial record list, and ``warnings`` holds the reason. The
    status of each inner solve is in its record.
    """

    records: list[IterationRecord] = field(default_factory=list)
    status: str = "max-iterations"
    warnings: list[str] = field(default_factory=list)

    ERROR_STATUSES = ("inner-failure", "singular-step", "infeasible-iterate")

    @property
    def failed(self) -> bool:
        return self.status in self.ERROR_STATUSES

    @property
    def y_history(self) -> np.ndarray:
        return np.array([rec.y for rec in self.records])

    def __len__(self) -> int:
        return len(self.records)


def exact_jacobian(model: SeparableModel, y, fact: DirectFactorization, x, b) -> np.ndarray:
    """Jacobian of the reduced residual at y, assembled from the inner solution x.

    Column j is P_perp u + (S^dagger)^T dA/dy_j^T (b - A x), u = [dA/dy_j x; 0],
    with S the stacked operator held by ``fact`` and S^dagger = (S^T S)^{-1} S^T
    applied by its solves. The exact inner solution gives the exact Jacobian;
    an approximate inner solution x_bar gives the approximate Jacobian of the
    inexact loop, and feeding the exact solution reproduces the exact
    Jacobian bit for bit.
    """
    y = _check_y(model, y)
    x = np.asarray(x, dtype=float)
    S = fact.op
    cols = np.empty((S.rows, model.r))
    top_residual = np.asarray(b, dtype=float) - S.top.matvec(x)
    for j in range(model.r):
        dop = model.derivative(y, j)
        u = np.zeros(S.rows)
        u[: model.m] = dop.matvec(x)
        cols[:, j] = ((u - S.matvec(fact.solve_normal(S.rmatvec(u))))
                      + S.matvec(fact.solve_normal(dop.rmatvec(top_residual))))
    return cols


approx_jacobian = exact_jacobian  # bench/spans.py wraps varpro.approx_jacobian


def gradient(J, f_vec) -> np.ndarray:
    """Gradient J^T f of the half squared norm of the reduced residual."""
    return np.asarray(J, dtype=float).T @ np.asarray(f_vec, dtype=float)


def gauss_newton_step(J, g) -> np.ndarray:
    """Solve the small problem min_s ||J s + g||_2 by QR factorization."""
    J = np.asarray(J, dtype=float)
    g = np.asarray(g, dtype=float)
    Q, R = np.linalg.qr(J)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag.min() <= J.shape[0] * _EPS * diag.max():
        raise SingularStepError(
            f"step system is rank deficient (column scales {np.array2string(diag, precision=3)})"
        )
    return scipy.linalg.solve_triangular(R, -(Q.T @ g))


def _check_y(model: SeparableModel, y) -> np.ndarray:
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (model.r,):
        raise ValueError(f"y must have length {model.r}, got shape {y.shape}")
    return y


def _start(model: SeparableModel, b, y0) -> tuple[np.ndarray, np.ndarray]:
    """The checked data vector and feasible starting point of a run."""
    y = _check_y(model, y0)
    b = np.asarray(b, dtype=float)
    if b.shape != (model.m,):
        raise ValueError(f"b must have length {model.m}, got shape {b.shape}")
    if not model.is_feasible(y):
        raise ValueError(f"initial guess {y} is infeasible")
    return b, y


def _evaluate(model, y, b, L, lam, opts: OuterOptions = OuterOptions(), k: int = 0):
    """Factor S = [A(y); lam L], solve the inner problem and form F = S x - [b; 0].

    Without a schedule in ``opts`` the inner solve is exact, x(y) = (S^T S)^{-1}
    A^T b. With one, LSQR stops at tolerance eps^(k), and at k = 0 the check
    eps0 * kappa0 < 1 runs.
    Returns ``(fact, x, F, fields)``, ``fields`` being the IterationRecord
    fields of the inner solve.
    """
    S = stack(model.operator(y), L, lam)
    fact = DirectFactorization(S)
    d = np.concatenate([b, np.zeros(L.rows)])
    if opts.schedule is None:
        x, fields = fact.solve_rhs(b), {}
    else:
        eps_k = opts.schedule.value(k)
        # One shifted Cholesky of the normal matrix certifies eps0 * kappa0 < 1.
        if k == 0 and not fact.condition_number_below(1.0 / eps_k):
            warnings.warn(
                f"could not certify eps0 * kappa0 < 1 for eps0 = {eps_k:.3g}; "
                "inner-solve error bounds may not apply",
                ToleranceWarning,
                stacklevel=4,  # _evaluate, _gauss_newton, inexact_genvarpro
            )
        op_norm = (float(np.sqrt(fact.extreme_eigenvalues()[1]))
                   if opts.norm_estimate_mode == NORM_MODE_EXPLICIT else None)
        sol = lsqr_solve(S, d, eps_k, operator_norm=op_norm)
        x = sol.x_bar
        fields = dict(epsilon=eps_k, inner_iterations=sol.iterations,
                      inner_criterion=sol.achieved_criterion, inner_converged=sol.converged)
    return fact, x, S.matvec(x) - d, fields


def exact_residual(model: SeparableModel, y, b, L: LinearOperator, lam: float):
    """The exact step of the outer loop at y.

    Factors S = [A(y); lam L], solves for the exact inner solution x(y) and
    forms the reduced residual F(y) = S x(y) - [b; 0]. Returns
    ``(fact, x, F)``; ``exact_jacobian(model, y, fact, x, b)`` is the
    Jacobian of F at y.
    """
    b = np.asarray(b, dtype=float)
    fact, x, fvec, _ = _evaluate(model, _check_y(model, y), b, L, lam)
    return fact, x, fvec


def _gauss_newton(model, b, L, lam, y, opts: OuterOptions) -> SolverTrace:
    """Undamped Gauss-Newton on the reduced functional, shared by both solvers.

    Each iteration factors the stacked operator, solves the inner problem
    exactly or, given a schedule in ``opts``, by LSQR, assembles the
    Jacobian from the inner solution and steps. After the last step a closing record is
    evaluated at the final iterate. An infeasible iterate, a singular inner
    system or a singular step system aborts the run with a partial trace and
    an error status.
    """
    trace = SolverTrace()
    for k in range(opts.max_outer_iterations + 1):
        closing = k == opts.max_outer_iterations or trace.status == "step-tolerance"
        at = "final iterate" if closing else f"iteration {k}"
        tic = time.perf_counter()
        if not model.is_feasible(y):
            trace.warnings.append(f"{at}: iterate {y} left the feasible region")
            trace.status = "infeasible-iterate"
            break
        try:
            fact, x, fvec, fields = _evaluate(model, y, b, L, lam, opts, k)
        except SingularSystemError as exc:
            trace.warnings.append(f"{at}: {exc}")
            trace.status = "inner-failure"
            break
        J = exact_jacobian(model, y, fact, x, b)
        del fact  # free its matrices before the next iterate factors its own
        rec = IterationRecord(k=k, y=y.copy(), x=x, f_value=0.5 * float(fvec @ fvec),
                              gradient=gradient(J, fvec), **fields)
        trace.records.append(rec)
        if not closing and float(np.linalg.norm(rec.gradient)) == 0.0:
            trace.status = "gradient-tolerance"
            closing = True
        if closing:
            rec.seconds = time.perf_counter() - tic
            break
        try:
            rec.step = gauss_newton_step(J, fvec)
        except SingularStepError as exc:
            trace.warnings.append(f"{at}: {exc}")
            trace.status = "singular-step"
            break
        finally:
            rec.seconds = time.perf_counter() - tic
        y = y + rec.step
        if float(np.linalg.norm(rec.step)) <= opts.step_tolerance:
            trace.status = "step-tolerance"
    return trace


def genvarpro(model: SeparableModel, b, L: LinearOperator, lam: float, y0,
              opts: OuterOptions | None = None) -> SolverTrace:
    """Gauss-Newton on the reduced functional with exact inner solves.

    Each iteration solves the normal equations for x(y), assembles the
    analytic Jacobian, and takes a full (undamped) Gauss-Newton step.
    Inner-solver failures abort with a partial trace and an error status,
    including a system that is already singular at y0.
    """
    b, y = _start(model, b, y0)
    return _gauss_newton(model, b, L, lam, y, replace(opts or OuterOptions(), schedule=None))


def inexact_genvarpro(model: SeparableModel, b, L: LinearOperator, lam: float, y0,
                      opts: OuterOptions) -> SolverTrace:
    """Gauss-Newton with LSQR inner solves at a scheduled tolerance.

    Iteration k solves the inner problem to tolerance eps^(k), forms the
    approximate residual and Jacobian from the LSQR iterate, and steps. An
    inner solve that stops unconverged is recorded in its record
    (``inner_converged``, ``inner_iterations``, ``inner_criterion``) and the
    run continues with its best iterate. At y0 it warns unless eps^(0) kappa0 < 1
    is certified, kappa0 being the condition number of the stacked operator
    there: the ``condition_number_below`` of the factorization that
    iteration 0 builds certifies it with one Cholesky factorization of a
    shifted copy of its normal matrix, without an eigensolver or an SVD.
    The certificate has a margin, so the warning can also fire for eps^(0)
    kappa0 just below 1. Normal equations that cannot be factored at y0 end
    the run with status ``inner-failure`` and no records, as in
    ``genvarpro``.
    """
    if opts.schedule is None:
        raise ValueError("inexact_genvarpro requires OuterOptions.schedule")
    b, y = _start(model, b, y0)
    return _gauss_newton(model, b, L, lam, y, opts)
