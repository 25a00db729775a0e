"""Inner solvers for the regularized linear subproblem min_x ||S x - d||_2.

Two routes are provided. LSQR (Golub-Kahan bidiagonalization) stops on the
relative-gradient test ||S^T r|| / (||r|| ||S||) < epsilon, which certifies
that the returned iterate solves a least-squares problem whose operator is a
rank-one perturbation of S of norm below epsilon * ||S||. The test is always
evaluated on the recomputed residual r = d - S x, which costs one apply of
S and one of S^T. It runs at every iteration from the first one at which
the free recurrence estimate of the criterion (Paige and Saunders 1982)
comes within a margin of the tolerance or of the rounding floor, so an
LSQR iteration costs between two and four applies. The direct route
factors the normal equations S^T S once and reuses the factorization for
pseudoinverse and projector applications needed by Jacobian assembly.

kappa_2(S) and ||S||_2 have one source, the Gram matrix S^T S that
``DirectFactorization`` builds: the band of ``normal_band``, or the
``dsyrk`` lower triangle of the materialized S. ``condition_number``
returns a certified upper bound on kappa_2(S) from its extreme computed
eigenvalues; the square root of the largest one is ||S||_2 within a
relative delta / (2 lambda_max) (``_gram_spectrum``).
``condition_number_below`` certifies kappa_2(S) < limit from the Gram a
``DirectFactorization`` already holds, with no eigensolver. Nothing here
takes an SVD.
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

# lsqr_solve starts its true stopping test once the estimated criterion is
# below _SCREEN_MARGIN times the tolerance, or the estimated residual norm
# below _FLOOR_MARGIN times the compatible-system floor.
_SCREEN_MARGIN = 10.0
_FLOOR_MARGIN = 10.0


class NumericalBreakdownError(RuntimeError):
    """LSQR encountered non-finite quantities."""


class SingularSystemError(RuntimeError):
    """The normal equations are not numerically positive definite."""


@dataclass
class InnerSolution:
    """Result of one inner solve.

    ``achieved_criterion`` is the final value of the stopping test (0.0 for
    the degenerate zero-data and exactly-compatible cases, where the test is
    vacuous but the solution is exact). ``criterion_history`` holds the test
    value at every iteration at which the test ran, in order: the last ones
    of the solve, from the first iteration the screen of ``lsqr_solve`` let
    through.
    """

    x_bar: np.ndarray
    iterations: int
    achieved_criterion: float
    converged: bool
    criterion_history: np.ndarray


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-d float vector: the sqrt(v.dot(v)) that
    ``np.linalg.norm`` computes, without its argument handling. LSQR divides
    by such norms, so one that is not finite is a numerical breakdown."""
    norm = math.sqrt(v.dot(v))
    if not math.isfinite(norm):
        raise NumericalBreakdownError("non-finite vector norm in LSQR")
    return norm


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
    from the recomputed residual r = d - op x, with ||op|| the given
    ``operator_norm`` (say, the true 2-norm) or else the running
    Frobenius-style estimate of the bidiagonalization; ``op`` is only
    applied. A compatible system whose residual falls to the rounding floor
    10 eps (||d|| + ||op|| ||x||) stops as converged with criterion 0, since
    the iterate is then exact while the test itself is undefined.

    The test costs two applies, so it is screened first by the recurrences
    of the bidiagonalization, which cost nothing: phibar estimates ||r||
    and phibar * alfa * |c| estimates ||op^T r||, so alfa |c| / ||op||
    estimates the criterion. The test runs at every iteration from the
    first one at which that estimate is below 10 * tolerance, the estimated
    ||op^T r|| / ||op|| is below the floor, phibar is within 10 times the
    floor, the Krylov space breaks down, the iteration is the last one
    allowed, or the estimate is not finite; it never stops running after
    that. ``criterion_history`` holds the values of those checked
    iterations. Every decision reads the true criterion: the stop, the
    returned iterate, and the stall rule. A solve that stops short of the
    tolerance (at ``max_iterations``, after max(200, 4n) checked iterations
    without a 10% gain, or on a Krylov breakdown) returns the checked
    iterate with the smallest criterion and ``converged=False``. A vector
    norm that is not finite (of d, u, v, x, r or op^T r) raises
    ``NumericalBreakdownError`` before anything is divided by it.
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
    r = np.empty(op.rows)
    rhobar = alfa
    phibar = beta
    anorm2 = 0.0
    history: list[float] = []
    best_crit = math.inf
    best_x = x
    converged = False
    checking = False
    itn = 0
    # Give up once the criterion stops improving for this many iterations:
    # it has hit its rounding floor and the tolerance is unreachable.
    stall_window = max(200, 4 * op.cols)
    stall = 0

    while itn < max_iterations:
        itn += 1

        # One Golub-Kahan step: beta*u = op*v - alfa*u, alfa*v = op^T*u - beta*v.
        # u, v, w and r are this solve's own arrays, updated in place.
        u *= alfa
        np.subtract(op.matvec(v), u, out=u)
        beta = _norm(u)
        anorm2 += alfa * alfa + beta * beta
        if beta > 0.0:
            u /= beta
            v *= beta
            np.subtract(op.rmatvec(u), v, out=v)
            alfa = _norm(v)
            if alfa > 0.0:
                v /= alfa

        c, s, rho = _sym_ortho(rhobar, beta)
        theta = s * alfa
        rhobar = -c * alfa
        phi = c * phibar
        phibar = s * phibar

        # x is rebound, never written in place: best_x may hold it.
        step = (phi / rho) * w
        step += x
        x = step
        w *= theta / rho
        np.subtract(v, w, out=w)

        op_norm = math.sqrt(anorm2) if operator_norm is None else operator_norm
        # Compatible system: a residual at this rounding floor makes the
        # iterate exact and the relative-gradient test vacuous.
        floor = 10.0 * _EPS * (d_norm + op_norm * _norm(x))
        if not checking:
            # Screen: ||op^T r|| ~ phibar*alfa*|c| and ||r|| ~ phibar (Paige
            # and Saunders 1982). Written so that a NaN starts the checks.
            screen = alfa * abs(c) / op_norm
            checking = not (_SCREEN_MARGIN * tolerance <= screen < math.inf
                            and screen * phibar >= floor
                            and phibar > _FLOOR_MARGIN * floor
                            and beta > 0.0 and alfa > 0.0 and itn < max_iterations)
            if not checking:
                continue

        np.subtract(d, op.matvec(x), out=r)
        rnorm = _norm(r)
        grad_norm = _norm(op.rmatvec(r))
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
    materialized. That band holds the kd' + 1 diagonals that carry S^T S
    to working precision, so both cost n kd'^2 and n kd' flops instead of
    those of the full half-bandwidth kd = 2k: at n = 1024 and widths 2 to 4
    (kd' = 24 to 49 against kd = 106 to 212), one factorization, Gram
    included, took 0.5-1.7 ms instead of 12-25 ms (one BLAS thread).
    Otherwise S is materialized, the lower triangle of S^T S is formed by
    ``dsyrk`` and factored with ``dpotrf``. The computed normal matrix is
    kept, read-only, as ``normal`` (``banded`` tells which storage it has:
    the lower band, or the lower triangle with zeros above it) for the
    kappa0 check of ``condition_number_below``. The pseudoinverse and projector
    applications below reuse the factorization and apply S through ``op``.
    Immutable after construction and shareable across threads.
    """

    def __init__(self, op: StackedOperator):
        self.op = op
        normal, dense = _gram(op)
        self.banded = dense is None
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
                f"(smallest eigenvalue {_extreme_eigenvalues(normal, self.banded)[0]:.6e})"
            ) from exc

    def solve_normal(self, v) -> np.ndarray:
        """Apply (S^T S)^{-1} to a length-n vector."""
        return self._solve(np.asarray(v, dtype=float))

    def solve_rhs(self, b) -> np.ndarray:
        """Inner solution for stacked data [b; 0]: (S^T S)^{-1} A^T b."""
        b = np.asarray(b, dtype=float)
        return self.solve_normal(self.op.top.rmatvec(b))


def _gram(op: LinearOperator) -> tuple[np.ndarray, np.ndarray | None]:
    """The Gram matrix of S as ``DirectFactorization`` holds it, and S if it
    was materialized. That is ``normal_band(op)`` when there is one (and
    None for S). Otherwise ``dsyrk`` on the Fortran view S^T fills the lower
    triangle of S^T S, bit for bit that of numpy's dense.T @ dense, and
    leaves the upper one zero. It also keeps the dense route on scipy's
    BLAS alone."""
    normal = normal_band(op)
    if normal is not None:
        return normal, None
    dense = np.asarray(op.to_dense(), dtype=float)
    return scipy.linalg.blas.dsyrk(1.0, dense.T, lower=1), dense


def _extreme_eigenvalues(normal: np.ndarray, banded: bool) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric Gram matrix held as
    its lower band (LAPACK ``dsbevd``) or its lower triangle (``dsyevr``),
    as ``DirectFactorization.normal`` and ``normal_band`` hold it."""
    if banded:
        evals = scipy.linalg.eigvals_banded(normal, lower=True, check_finite=False)
    else:
        evals = scipy.linalg.eigvalsh(normal, lower=True, check_finite=False)
    return float(evals[0]), float(evals[-1])


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
    """A certified upper bound kappa_bar on the 2-norm condition number
    kappa_2(S) of a stacked operator S, from the Gram matrix that
    ``DirectFactorization`` builds.

    With lo and hi its smallest and largest computed eigenvalue and delta
    the error bound of ``_gram_spectrum``, kappa_bar = sqrt((hi + delta) /
    (lo - delta)), times 1 + 4 eps for the rounding of that formula. So
    kappa_2(S) <= kappa_bar <= kappa_2(S) (1 + 2 b / (1 - b)), b = delta / lo,
    up to a few eps. On the band route the eigenvalues come from one LAPACK
    ``dsbevd`` call and S is never materialized: at n = 1024 and widths 2
    to 4 that took 41-67 ms, against 0.82-1.06 s for an SVD, and b was
    1.1e-6 to 3.1e-6 (one BLAS thread). Otherwise ``dsyevr`` takes them from
    the ``dsyrk`` lower triangle: 1.2-1.7 ms at n = 128 and widths 1.5 to 8,
    with b = 8e-7 to 7.3e-6.

    Raises ``SingularSystemError`` when lo <= delta, as for a rank-deficient
    S: then kappa_2(S) has no finite bound.
    """
    lo, hi, delta = _gram_spectrum(op)
    if not lo > delta:
        raise SingularSystemError(
            f"cannot bound the condition number: the smallest Gram eigenvalue {lo:.6e} "
            f"is within its error bound {delta:.6e}; set [schedules] epsilon0 explicitly"
        )
    return math.sqrt((hi + delta) / (lo - delta)) * (1.0 + 4.0 * _EPS)


def _gram_spectrum(op: LinearOperator) -> tuple[float, float, float]:
    """The smallest and largest computed eigenvalue lo and hi of the Gram
    matrix G = ``_gram(op)`` of S, and delta, a bound on how far each lies
    from the same eigenvalue of S^T S.

    With u = eps / 2 and no underflow or overflow:

    - Gram rounding. G = S^T S + E - P, with |E| <= g |S|^T |S| entrywise
      on the entries G keeps, E = 0 off them, and P the part of S^T S that
      G drops (Higham, Accuracy and Stability of Numerical Algorithms,
      sec. 3.5 and Lemma 6.6). So ||E||_2 <= g M for any M >=
      || |S|^T |S| ||_inf.
      - Dense: each entry is an inner product of two columns of S over m
        terms, so g = gamma_m, and M = max(|S|^T (|S| 1)) from the
        materialized |S|, divided by 1 - gamma_{m+n} for its own two sums.
        P = 0.
      - Band, S = [A; lam W D] with a_t (a_-t = a_t) A's first row up to its
        last nonzero index k, l1 = sum_t |a_t| and c_0 = sum_t a_t^2, the
        sums over -k <= t <= k: each kept entry sums at most 2k + 1 products
        of two entries of A, each rounded once, and at most two terms
        (lam w_i)^2, each rounded three times, so g = gamma_{2k+5}. The rows
        and columns of |A| sum to at most l1, so the rows of |A|^T |A| sum
        to at most l1^2, the sum over d of the c_d of ``_kept_diagonals``.
        Row j of |L|^T |L|, L = lam W D, sums to 2 (L^T L)_jj <= 2 G_jj /
        (1 - g). So M = l1^2 + 2 max_j G_jj / (1 - g). The dropped diagonals
        have ||P||_2 <= u c_0 / 2 (see ``normal_band``).
    - Eigensolver. ``dsbevd`` and ``dsyevr`` reduce G to tridiagonal form by
      orthogonal transformations and take the eigenvalues of that; both
      steps are backward stable, so the computed eigenvalues are exact ones
      of G + F with ||F||_2 <= p(n) eps ||G||_2 (Golub and Van Loan, Matrix
      Computations, secs. 8.1 and 8.3; LAPACK Users' Guide, sec. 4.7), where
      p(n), a modestly growing function, is taken as n here; and ||G||_2 <=
      ||G||_inf <= (1 + g) M.
    - Conclusion. By Weyl's inequality each computed eigenvalue is within
      g M + ||P||_2 + n eps (1 + g) M of the same eigenvalue of S^T S. delta
      is that times 1 + 16 eps, which covers the rounding of the few
      operations that form it. A rank-deficient S has lambda_min(S^T S) = 0,
      so lo <= delta.
    """
    m, n = op.shape
    normal, dense = _gram(op)
    if dense is None:
        k = op.top._band_k
        a0 = abs(float(op.top.first_row[0]))
        tail = np.abs(op.top.first_row[1 : k + 1])
        l1 = a0 + 2.0 * float(tail.sum())
        g = _gamma(2 * k + 5)
        norm_bound = l1 * l1 + 2.0 * float(normal[0].max()) / (1.0 - g)
        dropped = _EPS / 4 * (a0 * a0 + 2.0 * float(tail @ tail))
    else:
        magnitude = np.abs(dense)
        g = _gamma(m)
        norm_bound = float((magnitude.T @ magnitude.sum(axis=1)).max()) / (1.0 - _gamma(m + n))
        dropped = 0.0
    lo, hi = _extreme_eigenvalues(normal, dense is None)
    delta = (g * norm_bound + dropped + n * _EPS * (1.0 + g) * norm_bound) * (1.0 + 16.0 * _EPS)
    return lo, hi, delta


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = eps / 2 the unit roundoff."""
    ku = k * _EPS / 2
    return ku / (1.0 - ku)


def condition_number_below(fact: DirectFactorization, limit: float) -> bool:
    """True only when kappa_2(S) < ``limit`` is certified, S the m x n operator
    that ``fact`` factored.

    Works on the Gram matrix G that the factorization holds, the computed
    fl(S^T S) or, on the band route, its kept diagonals, in lower band
    storage (``cholesky_banded``, ``dpbtrf``) or as a dense lower triangle
    (``cho_factor``, ``dpotrf``), with one Gershgorin sweep and one
    Cholesky factorization of a shifted copy. False means only that the
    certificate failed, not that kappa_2(S) >= ``limit``. The certificate,
    with u = eps / 2 and no underflow or overflow:

    - Gram rounding. Each kept entry of G is an inner product of two
      columns of S, summed in floating point over at most m products in
      some order (the band route leaves out products that are exact
      zeros). So
      the kept entries differ from those of S^T S by E with
      |E| <= gamma_m |S|^T |S| entrywise, and ||E||_2 <= g ||S||_2^2 with
      g = gamma_m n (Higham, Accuracy and Stability of Numerical
      Algorithms, sec. 3.5 and Lemma 6.6).
    - Dropped diagonals. The band route keeps the diagonals d <= kd of
      S^T S only, kd being the band's width (kd' of ``normal_band``), and
      the part P it drops has ||P||_2 <= u c_0 / 2, with c_0 the squared
      norm of A's kernel (see ``normal_band``). The band route needs
      2k + 1 <= n for A's last nonzero index k, so some column of A holds
      the whole kernel and max_i (S^T S)_ii >= c_0. So e = u max_i G_ii
      bounds ||P||_2 with a factor 2 to spare for the rounding of G_ii.
      The dense route drops nothing; e is counted on both. So
      G = S^T S + E - P with ||E - P||_2 <= g ||S||_2^2 + e.
    - Largest eigenvalue. The largest Gershgorin row sum r of G bounds
      lambda_max(G). Each row sum adds at most N terms (N = 2 kd + 1 on the
      band, n dense) of the stored triangle: on the band its row and
      shifted diagonals, dense its row of the lower triangle up to the
      diagonal plus its column below it, the two sums then added. Either
      way it is one sum of N nonnegative terms in some order (the zeros
      stored above the dense diagonal add exactly), computed within
      gamma_N. Since ||S||_2^2 <=
      lambda_max(G) + g ||S||_2^2 + e, lmax = (r / (1 - gamma_N) + e) /
      (1 - g) bounds ||S||_2^2 = lambda_max(S^T S), and delta = g lmax + e
      bounds ||E - P||_2.
    - Shifted Cholesky. A copy H = fl(G - sigma I) is factored, and the
      shift rounds each diagonal entry by at most u |G_ii - sigma| <=
      u (max_i G_ii + sigma). A Cholesky factorization that completes gives
      R^T R = H + F with |F| <= gamma_{p+2} |R^T| |R|, p = kd on the band and
      n - 1 dense, its inner products having at most p + 1 terms in any
      order, blocked or not (Higham, Theorem 10.3). By Cauchy-Schwarz
      ||(|R^T| |R|)||_2 <= trace(R^T R) <= trace(H) / (1 - gamma_{p+2}), and
      trace(H) <= trace(G) because each fl(G_ii - sigma) <= G_ii. So
      ||F||_2 <= rho = gamma_{p+2} / (1 - gamma_{p+2}) trace(G), with
      trace(G) computed within gamma_n.
    - Conclusion. With tau = lmax / limit^2, sigma is chosen so that
      sigma - u (max_i G_ii + sigma) = tau + delta + rho, and a last factor
      1 + 16 eps on it covers the rounding of the few operations that form
      it. R has a positive diagonal, so R^T R is positive definite and
      lambda_min(G) > sigma - u (max_i G_ii + sigma) - rho = tau + delta.
      By Weyl's inequality lambda_min(S^T S) > tau, and kappa_2(S)^2 =
      lambda_max(S^T S) / lambda_min(S^T S) < lmax / tau = limit^2. A
      rank-deficient S has lambda_min(S^T S) = 0, so the factorization
      cannot complete and every finite ``limit`` gives False.
    """
    if not 1.0 < limit < math.inf:
        return False
    m, n = fact.op.shape
    normal = fact.normal
    if fact.banded:
        kd = normal.shape[0] - 1
        magnitude = np.abs(normal)
        # magnitude[d, j] = |G[j + d, j]| = |G[j, j + d]|: the column sums
        # give each row's diagonal and right part, and row d shifted right by
        # d its left part.
        row_sums = magnitude.sum(axis=0)
        for d in range(1, kd + 1):
            row_sums[d:] += magnitude[d, : n - d]
        diagonal, terms, p = normal[0], 2 * kd + 1, kd
    else:
        magnitude = np.abs(normal)
        # The lower triangle holds row i of G up to the diagonal in its row i
        # and past it in its column i.
        row_sums = magnitude.sum(axis=1)
        np.fill_diagonal(magnitude, 0.0)
        row_sums += magnitude.sum(axis=0)
        diagonal, terms, p = np.diagonal(normal), n, n - 1
    gram, rows, chol, trace = n * _gamma(m), _gamma(terms), _gamma(p + 2), _gamma(n)
    unit = _EPS / 2
    max_diagonal = float(diagonal.max())
    dropped = unit * max_diagonal
    lmax = (float(row_sums.max()) / (1.0 - rows) + dropped) / (1.0 - gram)
    tau = lmax / (limit * limit)
    if not tau >= np.finfo(float).tiny:
        return False
    rho = chol / (1.0 - chol) * float(diagonal.sum()) / (1.0 - trace)
    sigma = ((tau + gram * lmax + dropped + rho + unit * max_diagonal) / (1.0 - unit)
             * (1.0 + 16.0 * _EPS))
    shifted = np.array(normal, order="F")
    try:
        if fact.banded:
            shifted[0] -= sigma
            scipy.linalg.cholesky_banded(shifted, lower=True, overwrite_ab=True,
                                         check_finite=False)
        else:
            shifted.flat[:: n + 1] -= sigma
            scipy.linalg.cho_factor(shifted, lower=True, overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        return False
    return True
