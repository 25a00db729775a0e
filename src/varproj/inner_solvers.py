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
the solves of Jacobian assembly.

kappa_2(S) and ||S||_2 have one source, a ``_Gram``: the Gram matrix S^T S
held as the band of ``normal_band``, or as the ``dsyrk`` lower triangle of
the materialized S, which it keeps for the Gram's rounding terms. Its
``condition_number`` is a certified upper bound on kappa_2(S) from the
Gram's extreme computed eigenvalues, the square root of the largest being
||S||_2 to a relative delta / (2 lambda_max); its ``condition_number_below``
certifies kappa_2(S) < limit with one shifted Cholesky. A
``DirectFactorization`` is a ``_Gram`` that is also factored;
``condition_number(op)`` builds the Gram of an operator and factors nothing.
Nothing here takes an SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg

from .linops import LinearOperator, StackedOperator, normal_band, normal_band_error

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

    ``achieved_criterion`` is the final value of the stopping test. It is 0.0
    in three cases, each a converged stop: zero data; an exactly compatible
    system, whose residual fell to the rounding floor, so that the test is
    vacuous but the solution is exact; and a computed ||op^T r|| of exactly
    0, where the iterate solves the normal equations as computed though its
    residual may lie far above the floor (this includes data orthogonal to
    the range of op, returned as x = 0). ``criterion_history`` holds the test
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
    returned iterate, and the stall rule. It returns the checked iterate
    with the smallest criterion, at a converged stop the last one, since
    every earlier one was at least the tolerance. A solve that stops short
    of the tolerance (at the cap of ``LSQR_MAX_ITERATIONS`` iterations,
    after max(200, 4n) checked iterations without a 10% gain, or on a
    Krylov breakdown) has ``converged=False``. A vector norm that is not
    finite (of d, u, v, x, r or op^T r) raises ``NumericalBreakdownError``
    before anything is divided by it.
    """
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
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

    while itn < LSQR_MAX_ITERATIONS:
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
                            and beta > 0.0 and alfa > 0.0 and itn < LSQR_MAX_ITERATIONS)
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

    return InnerSolution(
        x_bar=best_x,
        iterations=itn,
        achieved_criterion=float(best_crit),
        converged=converged,
        criterion_history=np.asarray(history),
    )


class _Gram:
    """The Gram matrix S^T S of a stacked operator S: the one source of
    kappa_2(S) and ||S||_2.

    The storage is picked once. When ``normal_band`` gives S^T S in band
    storage, that band is kept and S is never materialized. Otherwise S is
    materialized, and kept for the rounding terms; ``dsyrk`` on the Fortran
    view S^T fills the lower triangle of S^T S, bit for bit that of numpy's
    dense.T @ dense, and leaves the upper one zero, which keeps the dense
    route on scipy's BLAS alone. The computed matrix is kept, read-only, as
    ``normal`` (``banded`` tells which storage it has: the lower band, or the
    lower triangle with zeros above it). A Gram with a non-finite entry, as
    when lam W overflows on squaring, raises ``SingularSystemError``: no
    eigensolver or Cholesky factorization can use it. That check is the one
    verdict on an overflow, which numpy is told not to warn of, so the
    outcome does not depend on the warnings filter. Immutable after
    construction, but for the eigenvalues kept at their first request;
    shareable across threads.
    """

    def __init__(self, op: StackedOperator):
        self.op = op
        self._dense = None
        # An overflow shows as a non-finite entry, the one check below.
        with np.errstate(over="ignore"):
            self.normal = normal_band(op)
            if self.normal is None:
                self._dense = np.asarray(op.to_dense(), dtype=float)
                self.normal = scipy.linalg.blas.dsyrk(1.0, self._dense.T, lower=1)
        if not np.isfinite(self.normal).all():
            raise SingularSystemError("the Gram matrix S^T S has a non-finite entry")
        self.normal.setflags(write=False)
        self.banded = self._dense is None
        self._eigenvalues = None

    def extreme_eigenvalues(self) -> tuple[float, float]:
        """The smallest and largest computed eigenvalue lo and hi of ``normal``,
        from LAPACK ``dsbevd`` on the band or ``dsyevr`` on the lower
        triangle: sqrt(hi) is ||S||_2 within a relative delta / (2 hi), delta
        that of ``condition_number``."""
        if self._eigenvalues is None:
            if self.banded:
                evals = scipy.linalg.eigvals_banded(self.normal, lower=True, check_finite=False)
            else:
                evals = scipy.linalg.eigvalsh(self.normal, lower=True, check_finite=False)
            self._eigenvalues = float(evals[0]), float(evals[-1])
        return self._eigenvalues

    def condition_number(self) -> float:
        """A certified upper bound kappa_bar on kappa_2(S).

        With lo and hi the extreme computed eigenvalues and delta a bound on
        how far each lies from the same eigenvalue of S^T S, kappa_bar =
        sqrt((hi + delta) / (lo - delta)), times 1 + 4 eps for the rounding of
        that formula. So kappa_2(S) <= kappa_bar <= kappa_2(S) (1 + 2 b /
        (1 - b)), b = delta / lo, up to a few eps. delta, with (g, M, ||P||_2)
        of ``_rounding`` and no underflow or overflow:

        - ``dsbevd`` and ``dsyevr`` reduce G = ``normal`` to tridiagonal form
          by orthogonal transformations and take the eigenvalues of that, two
          backward stable steps: the computed eigenvalues are exact ones of
          G + F with ||F||_2 <= p(n) eps ||G||_2 (Golub and Van Loan, Matrix
          Computations, secs. 8.1 and 8.3; LAPACK Users' Guide, sec. 4.7),
          p(n) taken as n, and ||G||_2 <= ||G||_inf <= (1 + g) M.
        - By Weyl's inequality each computed eigenvalue is within g M +
          ||P||_2 + n eps (1 + g) M of the same eigenvalue of S^T S; delta is
          that times 1 + 16 eps for the rounding of the few operations that
          form it.

        Raises ``SingularSystemError`` when lo <= delta, as for a
        rank-deficient S, whose lambda_min(S^T S) = 0: then kappa_2(S) has no
        finite bound.
        """
        lo, hi = self.extreme_eigenvalues()
        g, bound, dropped = self._rounding()
        delta = ((g * bound + dropped + self.op.cols * _EPS * (1.0 + g) * bound)
                 * (1.0 + 16.0 * _EPS))
        if not lo > delta:
            raise SingularSystemError(
                f"cannot bound the condition number: the smallest Gram eigenvalue {lo:.6e} "
                f"is within its error bound {delta:.6e}; set [schedules] epsilon0 explicitly"
            )
        return math.sqrt((hi + delta) / (lo - delta)) * (1.0 + 4.0 * _EPS)

    def _rounding(self) -> tuple[float, float, float]:
        """The rounding terms (g, M, ||P||_2) of G = ``normal``: G = S^T S + E
        - P with ||E||_2 <= g M and M >= || |S|^T |S| ||_inf >= lambda_max(S^T
        S). The band route's come from ``normal_band_error``. On the dense
        route, with no underflow or overflow, each entry is an inner product
        of two columns of S over m terms, so g = gamma_m (Higham, sec. 3.5),
        M = max(|S|^T (|S| 1)) from the kept S divided by 1 - gamma_{m+n} for
        its own two sums, and P = 0.
        """
        if self.banded:
            return normal_band_error(self.op, self.normal)
        m, n = self._dense.shape
        magnitude = np.abs(self._dense)
        norm_bound = float((magnitude.T @ magnitude.sum(axis=1)).max()) / (1.0 - _gamma(m + n))
        return _gamma(m), norm_bound, 0.0

    def condition_number_below(self, limit: float) -> bool:
        """True only when kappa_2(S) < ``limit`` is certified.

        One Cholesky factorization of a shifted copy of G = ``normal``, on its
        own storage (``cholesky_banded``, ``dpbtrf``, or ``cho_factor``,
        ``dpotrf``), and no eigensolver; it materializes nothing. False means
        only that the certificate failed, not that kappa_2(S) >= ``limit``.
        The certificate, with u = eps / 2 and no underflow or overflow:

        - Gram. By ``_rounding``, G = S^T S + E - P with ||E - P||_2 <= e =
          g M + ||P||_2, and lmax = M bounds lambda_max(S^T S).
        - Shifted Cholesky. A copy H = fl(G - sigma I) is factored, and the
          shift rounds each diagonal entry by at most u |G_ii - sigma| <=
          u (max_i G_ii + sigma). A Cholesky factorization that completes
          gives R^T R = H + F with |F| <= gamma_{p+2} |R^T| |R|, p = kd on the
          band and n - 1 dense, its inner products having at most p + 1 terms
          in any order, blocked or not (Higham, Theorem 10.3). By
          Cauchy-Schwarz ||(|R^T| |R|)||_2 <= trace(R^T R) <= trace(H) / (1 -
          gamma_{p+2}), and trace(H) <= trace(G) because each fl(G_ii -
          sigma) <= G_ii. So ||F||_2 <= rho = gamma_{p+2} / (1 - gamma_{p+2})
          trace(G), with trace(G) computed within gamma_n.
        - Conclusion. With tau = lmax / limit^2, sigma is chosen so that
          sigma - u (max_i G_ii + sigma) = tau + e + rho, and a last factor
          1 + 16 eps on it covers the rounding of the few operations that form
          it. R has a positive diagonal, so R^T R is positive definite and
          lambda_min(G) > sigma - u (max_i G_ii + sigma) - rho = tau + e.
          By Weyl's inequality lambda_min(S^T S) > tau, and kappa_2(S)^2 =
          lambda_max(S^T S) / lambda_min(S^T S) < lmax / tau = limit^2. A
          rank-deficient S has lambda_min(S^T S) = 0, so the factorization
          cannot complete and every finite ``limit`` gives False.
        """
        if not 1.0 < limit < math.inf:
            return False
        n = self.op.cols
        normal = self.normal
        g, lmax, dropped = self._rounding()
        diagonal = normal[0] if self.banded else np.diagonal(normal)
        p = normal.shape[0] - 1  # kd on the band, n - 1 dense
        chol, trace = _gamma(p + 2), _gamma(n)
        unit = _EPS / 2
        tau = lmax / (limit * limit)
        if not tau >= np.finfo(float).tiny:
            return False
        rho = chol / (1.0 - chol) * float(diagonal.sum()) / (1.0 - trace)
        sigma = ((tau + g * lmax + dropped + rho + unit * float(diagonal.max())) / (1.0 - unit)
                 * (1.0 + 16.0 * _EPS))
        shifted = np.array(normal, order="F")
        try:
            if self.banded:
                shifted[0] -= sigma
                scipy.linalg.cholesky_banded(shifted, lower=True, overwrite_ab=True,
                                             check_finite=False)
            else:
                shifted.flat[:: n + 1] -= sigma
                scipy.linalg.cho_factor(shifted, lower=True, overwrite_a=True,
                                        check_finite=False)
        except scipy.linalg.LinAlgError:
            return False
        return True


class DirectFactorization(_Gram):
    """Cholesky factorization of the Gram S^T S of a stacked operator S.

    On the band route the band is factored with LAPACK ``dpbtrf`` and solved
    with ``dpbtrs``. That band holds the kd' + 1 diagonals that carry S^T S
    to working precision, so both cost n kd'^2 and n kd' flops instead of
    those of the full half-bandwidth kd = 2k: at n = 1024 and widths 2 to 4
    (kd' = 24 to 49 against kd = 106 to 212), one factorization, Gram
    included, took 0.5-1.7 ms instead of 12-25 ms (one BLAS thread).
    Otherwise the ``dsyrk`` lower triangle is factored with ``dpotrf``. The
    pseudoinverse and projector applications of Jacobian assembly reuse the
    factorization and apply S through ``op``. The Gram is known to be
    finite, so the factorizations and the solves skip scipy's own scan of
    it and of the factor; a solve checks only its right-hand side.
    """

    def __init__(self, op: StackedOperator):
        super().__init__(op)
        try:
            if self.banded:
                factor = (scipy.linalg.cholesky_banded(self.normal, lower=True,
                                                       check_finite=False), True)
                self._solve = partial(scipy.linalg.cho_solve_banded, factor, check_finite=False)
            else:
                factor = scipy.linalg.cho_factor(self.normal, lower=True, check_finite=False)
                self._solve = partial(scipy.linalg.cho_solve, factor, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise SingularSystemError(
                "normal equations are not positive definite "
                f"(smallest eigenvalue {self.extreme_eigenvalues()[0]:.6e})"
            ) from exc

    def solve_normal(self, v) -> np.ndarray:
        """Apply (S^T S)^{-1} to a length-n vector; one that is not finite
        raises ``ValueError``."""
        return self._solve(np.asarray_chkfinite(v, dtype=float))

    def solve_rhs(self, b) -> np.ndarray:
        """Inner solution for stacked data [b; 0]: (S^T S)^{-1} A^T b."""
        b = np.asarray(b, dtype=float)
        return self.solve_normal(self.op.top.rmatvec(b))


def condition_number(op: LinearOperator) -> float:
    """``_Gram.condition_number`` of the Gram of ``op``, which it builds and
    does not factor. On the band route the eigenvalues come from one LAPACK
    ``dsbevd`` call and S is never materialized: at n = 1024 and widths 2
    to 4 that took 41-67 ms, and b = delta / lo was 1.1e-6 to 3.1e-6 (one
    BLAS thread). Otherwise ``dsyevr`` takes them from the ``dsyrk`` lower
    triangle: 1.2-1.7 ms at n = 128 and widths 1.5 to 8, with b = 8e-7 to
    7.3e-6."""
    return _Gram(op).condition_number()


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = eps / 2 the unit roundoff."""
    ku = k * _EPS / 2
    return ku / (1.0 - ku)
