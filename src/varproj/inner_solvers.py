"""Inner solvers for the regularized linear subproblem min_x ||S x - d||_2.

Two routes are provided. LSQR (Golub-Kahan bidiagonalization) stops on the
relative-gradient test ||S^T r|| / (||r|| ||S||) < epsilon, which certifies
that the returned iterate solves a least-squares problem whose operator is a
rank-one perturbation of S of norm below epsilon * ||S||. The direct route
factors the normal equations S^T S once and reuses the factorization for
pseudoinverse and projector applications needed by Jacobian assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg

from .linops import LinearOperator, StackedOperator, normal_band

LSQR_MAX_ITERATIONS = 10000

_EPS = float(np.finfo(float).eps)


class NumericalBreakdownError(RuntimeError):
    """LSQR encountered non-finite quantities."""


class SingularSystemError(RuntimeError):
    """The normal equations are not numerically positive definite."""


class RankDeficiencyError(RuntimeError):
    """A materialized operator is numerically rank deficient."""


@dataclass
class InnerSolution:
    """Result of one inner solve.

    ``achieved_criterion`` is the final value of the stopping test (0.0 for
    the degenerate zero-data and exactly-compatible cases, where the test is
    vacuous but the solution is exact). ``criterion_history`` holds the test
    value at every iteration performed.
    """

    x_bar: np.ndarray
    iterations: int
    achieved_criterion: float
    converged: bool
    criterion_history: np.ndarray


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-d float vector: the sqrt(v.dot(v)) that
    ``np.linalg.norm`` computes, without its argument handling."""
    return math.sqrt(v.dot(v))


def _sym_ortho(a: float, b: float) -> tuple[float, float, float]:
    """Stable Givens rotation (c, s, r) with r = hypot(a, b)."""
    if b == 0.0:
        return (0.0 if a == 0.0 else math.copysign(1.0, a)), 0.0, abs(a)
    if a == 0.0:
        return 0.0, math.copysign(1.0, b), abs(b)
    if abs(b) > abs(a):
        tau = a / b
        s = math.copysign(1.0, b) / math.sqrt(1.0 + tau * tau)
        c = s * tau
        r = b / s
    else:
        tau = b / a
        c = math.copysign(1.0, a) / math.sqrt(1.0 + tau * tau)
        s = c * tau
        r = a / c
    return c, s, r


def _trivial_solution(op, criterion):
    return InnerSolution(
        x_bar=np.zeros(op.cols),
        iterations=0,
        achieved_criterion=float(criterion),
        converged=True,
        criterion_history=np.empty(0),
    )


def lsqr_solve(op: LinearOperator, d, tolerance: float, *,
               max_iterations: int = LSQR_MAX_ITERATIONS,
               operator_norm: float | None = None) -> InnerSolution:
    """Solve min_x ||op x - d||_2 by LSQR with a relative-gradient stop.

    The stopping test ||op^T r|| / (||r|| ||op||) < tolerance is evaluated
    at every iteration from the recomputed residual r = d - op x, with
    ||op|| the given ``operator_norm`` (say, the true 2-norm) or else the
    running Frobenius-style estimate of the bidiagonalization; ``op`` is
    only applied. A compatible system whose residual falls to the rounding
    floor stops as converged with criterion 0, since the iterate is then
    exact while the test itself is undefined. A solve that stops short of
    the tolerance (at ``max_iterations``, after max(200, 4n) iterations
    without a 10% gain, or on a Krylov breakdown) returns the iterate with
    the smallest observed criterion and ``converged=False``.
    """
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    if operator_norm is not None and not 0.0 < operator_norm < math.inf:
        raise ValueError(f"operator_norm must be positive and finite, got {operator_norm}")
    d = np.asarray(d, dtype=float)
    if d.shape != (op.rows,):
        raise ValueError(f"right-hand side must have length {op.rows}, got shape {d.shape}")
    if not np.all(np.isfinite(d)):
        raise ValueError("right-hand side must be finite")

    beta = d_norm = _norm(d)
    if beta == 0.0:
        return _trivial_solution(op, 0.0)

    u = d / beta
    v = op.rmatvec(u)
    alfa = _norm(v)
    if alfa == 0.0:
        # d is orthogonal to the range of op: x = 0 is already optimal.
        return _trivial_solution(op, 0.0)

    # Stopping test at the initial iterate x = 0, where ||op^T d|| = alfa*beta.
    norm0 = alfa if operator_norm is None else operator_norm
    crit = alfa / norm0
    if crit < tolerance:
        return _trivial_solution(op, crit)

    v = v / alfa
    w = v.copy()
    x = np.zeros(op.cols)
    rhobar = alfa
    phibar = beta
    anorm2 = 0.0
    history: list[float] = []
    best_crit = math.inf
    best_x = x
    converged = False
    itn = 0
    # Give up once the criterion stops improving for this many iterations:
    # it has hit its rounding floor and the tolerance is unreachable.
    stall_window = max(200, 4 * op.cols)
    stall = 0

    while itn < max_iterations:
        itn += 1

        # One Golub-Kahan step: beta*u = op*v - alfa*u, alfa*v = op^T*u - beta*v.
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
        if not (math.isfinite(rnorm) and math.isfinite(grad_norm)):
            raise NumericalBreakdownError(
                f"non-finite residual quantities at LSQR iteration {itn}"
            )
        op_norm = math.sqrt(anorm2) if operator_norm is None else operator_norm

        # Compatible system: the residual has hit the rounding floor, so the
        # iterate is exact and the relative-gradient test is vacuous.
        floor = 10.0 * _EPS * (d_norm + op_norm * _norm(x))
        crit = 0.0 if rnorm <= floor else grad_norm / (rnorm * op_norm)
        history.append(crit)
        stall = 0 if crit < 0.9 * best_crit else stall + 1
        if crit < best_crit:
            best_crit = crit
            best_x = x
        if crit < tolerance:
            converged = True
            break
        if beta == 0.0 or alfa == 0.0:
            # Krylov breakdown: further iterations cannot improve the iterate.
            break
        if stall >= stall_window:
            break

    if converged:
        x_out, achieved = x, crit
    else:
        x_out, achieved = best_x, best_crit
    return InnerSolution(
        x_bar=x_out,
        iterations=itn,
        achieved_criterion=float(achieved),
        converged=converged,
        criterion_history=np.asarray(history),
    )


class DirectFactorization:
    """Cholesky factorization of S^T S for a stacked operator S.

    When ``normal_band`` gives S^T S in band storage, the band is factored
    with LAPACK ``dpbtrf`` and solved with ``dpbtrs``, and S is never
    materialized. Otherwise S is materialized, S^T S is formed densely and
    factored with ``dpotrf``. The computed normal matrix is kept, read-only,
    as ``normal`` (``banded`` tells which storage it has) for
    ``condition_number_bound``. The pseudoinverse and projector applications
    below reuse the factorization and apply S through ``op``. Immutable
    after construction and shareable across threads.
    """

    def __init__(self, op: StackedOperator):
        self.op = op
        normal = normal_band(op)
        self.banded = normal is not None
        if not self.banded:
            dense = np.asarray(op.to_dense(), dtype=float)
            normal = dense.T @ dense
        normal.setflags(write=False)
        self.normal = normal
        try:
            if self.banded:
                self._solve = partial(scipy.linalg.cho_solve_banded,
                                      (scipy.linalg.cholesky_banded(normal, lower=True), True))
            else:
                self._solve = partial(scipy.linalg.cho_solve,
                                      scipy.linalg.cho_factor(normal, lower=True))
        except scipy.linalg.LinAlgError as exc:
            raise SingularSystemError(
                "normal equations are not positive definite "
                f"(smallest pivot {_normal_eigenvalues(self, smallest_only=True)[0]:.6e})"
            ) from exc

    def solve_normal(self, v) -> np.ndarray:
        """Apply (S^T S)^{-1} to a length-n vector."""
        return self._solve(np.asarray(v, dtype=float))

    def solve_rhs(self, b) -> np.ndarray:
        """Inner solution for stacked data [b; 0]: (S^T S)^{-1} A^T b."""
        b = np.asarray(b, dtype=float)
        return self.solve_normal(self.op.top.rmatvec(b))


def _normal_eigenvalues(fact: DirectFactorization, smallest_only: bool = False) -> np.ndarray:
    """Ascending eigenvalues of the normal matrix that ``fact`` holds: from
    the band eigensolver ``dsbevd`` or the dense ``dsyevd``. With
    ``smallest_only`` the band route computes only the smallest (``dsbevx``)."""
    if fact.banded:
        if smallest_only:
            return scipy.linalg.eigvals_banded(fact.normal, lower=True,
                                               select="i", select_range=(0, 0))
        return scipy.linalg.eigvals_banded(fact.normal, lower=True)
    return scipy.linalg.eigh(fact.normal, eigvals_only=True, driver="evd")


def apply_pinv(fact: DirectFactorization, z) -> np.ndarray:
    """Pseudoinverse application (S^T S)^{-1} S^T z."""
    return fact.solve_normal(fact.op.rmatvec(z))


def apply_pinv_transpose(fact: DirectFactorization, w) -> np.ndarray:
    """Transposed-pseudoinverse application S (S^T S)^{-1} w."""
    return fact.op.matvec(fact.solve_normal(w))


def apply_projector_perp(fact: DirectFactorization, z) -> np.ndarray:
    """Orthogonal projection of z onto the complement of range(S)."""
    z = np.asarray(z, dtype=float)
    return z - fact.op.matvec(apply_pinv(fact, z))


def condition_number(op: LinearOperator) -> float:
    """2-norm condition number sigma_max / sigma_min of the materialized operator.

    Raises ``RankDeficiencyError`` when sigma_min <= max(m, n) eps sigma_max,
    the default rank tolerance of ``numpy.linalg.matrix_rank``: an exactly
    rank-deficient m x n operator can have a computed sigma_min of that order.
    """
    dense = op.to_dense()
    s = np.linalg.svd(dense, compute_uv=False)
    if s[-1] <= max(dense.shape) * _EPS * s[0]:
        raise RankDeficiencyError(
            f"operator is numerically rank deficient (smallest singular value {s[-1]:.3e})"
        )
    return float(s[0] / s[-1])


def condition_number_bound(fact: DirectFactorization) -> float:
    """Certified upper bound on the 2-norm condition number, or ``inf``.

    Takes the eigenvalues of the computed Gram matrix G = fl(S^T S) that
    the factorization of the m x n operator S holds, which costs far less
    than the SVD of S: the band eigensolver ``dsbevd`` when G is in band
    storage, else the dense ``dsyevd``. The certificate is the same on both
    routes:

    - Gram rounding. Each entry of G is an inner product of two columns of
      S, summed in floating point over at most m products in some order
      (the band route leaves out products that are exact zeros, and its
      entries outside the band are exactly zero). So G differs from S^T S by
      at most gamma_m |S|^T |S| entrywise, whose 2-norm is at most
      gamma_m n ||S||_2^2 (Higham, Accuracy and Stability of Numerical
      Algorithms, sec. 3.5 and Lemma 6.6).
    - Eigensolver backward error. ``dsyevd`` and ``dsbevd`` both reduce G
      to tridiagonal form by orthogonal transformations and return the
      eigenvalues of G + E with ||E||_2 <= p(n) eps ||G||_2, the bound the
      LAPACK Users' Guide (sec. 4.7) states for all its symmetric
      eigensolvers, dense and band alike; it is taken here with p(n) = n.

    So every computed eigenvalue lies within delta of the matching
    eigenvalue of S^T S, and by Weyl's inequality
    sqrt((lmax + delta) / (lmin - delta)) >= kappa_2(S), with a last factor
    1 + 4 eps for the rounding of that formula. When lmin <= delta, S may
    be rank deficient and the bound is ``inf``.
    """
    m, n = fact.op.shape
    evals = _normal_eigenvalues(fact)
    unit = _EPS / 2
    gram_rel = n * m * unit / (1.0 - m * unit)
    # delta = t ||S||_2^2, and ||S||_2^2 <= lmax / (1 - t) since lmax is
    # itself within t ||S||_2^2 of ||S||_2^2.
    t = gram_rel + n * _EPS * (1.0 + gram_rel)
    lmin, lmax = float(evals[0]), float(evals[-1])
    if not (t < 1.0 and lmax > 0.0):
        return math.inf
    delta = t * lmax / (1.0 - t)
    if lmin <= delta:
        return math.inf
    return math.sqrt((lmax + delta) / (lmin - delta)) * (1.0 + 4.0 * _EPS)
