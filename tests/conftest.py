"""Shared fixtures: the default benchmark, solver traces, and random corpora.

The expensive traces are session-scoped so the acceptance suite and the
module tests share one run each.
"""

from typing import NamedTuple

import numpy as np
import pytest

import varproj as vp
from varproj.cli import DEFAULT_INITIAL_TOLERANCES as EPSILON0
from varproj.varpro import NORM_MODE_EXPLICIT


@pytest.fixture(scope="session")
def problem():
    return vp.build_problem(vp.BenchConfig())


@pytest.fixture(scope="session")
def small_problem():
    # Mildly blurred, quick to solve; used where the full benchmark is overkill.
    return vp.build_problem(vp.BenchConfig(n=48, sigma_true=2.0, lam=0.02, rng_seed=7))


def run_exact(problem, y0, iterations=50):
    opts = vp.OuterOptions(max_outer_iterations=iterations, step_tolerance=0.0)
    trace = vp.genvarpro(problem.model, problem.b, problem.L, problem.lam,
                         np.array([y0]), opts)
    assert not trace.failed
    return trace


def run_inexact(problem, y0, kind, eps0, iterations=50):
    if kind == "fixed-small":
        schedule = vp.ToleranceSchedule("fixed-small")
    else:
        schedule = vp.ToleranceSchedule(kind, eps0)
    opts = vp.OuterOptions(max_outer_iterations=iterations, step_tolerance=0.0,
                           schedule=schedule, norm_estimate_mode=NORM_MODE_EXPLICIT)
    trace = vp.inexact_genvarpro(problem.model, problem.b, problem.L, problem.lam,
                                 np.array([y0]), opts)
    assert not trace.failed
    return trace


class ExactAt(NamedTuple):
    fact: vp.DirectFactorization
    x: np.ndarray
    gradient: np.ndarray
    kappa: float
    op_norm: float


def exact_at(problem, y):
    """The exact inner solution x(y) and the exact gradient at y, from the
    calls that `varproj bounds` and `varproj table` make, and kappa and
    ||S||_2 from numpy's SVD of the materialized S: an oracle independent of
    the Gram matrix the library reads them from."""
    fact, x, fvec = vp.exact_residual(problem.model, y, problem.b, problem.L, problem.lam)
    J = vp.exact_jacobian(problem.model, y, fact, x, problem.b)
    s = np.linalg.svd(fact.op.to_dense(), compute_uv=False)
    return ExactAt(fact, x, vp.gradient(J, fvec), float(s[0] / s[-1]), float(s[0]))


@pytest.fixture(scope="session")
def gp_trace_y2(problem):
    return run_exact(problem, 2.0)


@pytest.fixture(scope="session")
def gp_trace_y4(problem):
    return run_exact(problem, 4.0)


@pytest.fixture(scope="session")
def ab_trace_y2(problem):
    return run_inexact(problem, 2.0, "exponential", EPSILON0[2.0])


@pytest.fixture(scope="session")
def ab_trace_y4(problem):
    return run_inexact(problem, 4.0, "exponential", EPSILON0[4.0])


@pytest.fixture(scope="session")
def b_trace_y2(problem):
    return run_inexact(problem, 2.0, "constant", EPSILON0[2.0])


@pytest.fixture(scope="session")
def b_trace_y4(problem):
    return run_inexact(problem, 4.0, "constant", EPSILON0[4.0])


@pytest.fixture(scope="session")
def lb_trace_y2(problem):
    return run_inexact(problem, 2.0, "linear", EPSILON0[2.0])


@pytest.fixture(scope="session")
def s_trace_y2(problem):
    return run_inexact(problem, 2.0, "fixed-small", None)


def random_stacked(rng, m=None, n=None, q=None, lam=None):
    """One random full-column-rank stacked system for the certificate corpora."""
    m = int(rng.integers(5, 41)) if m is None else m
    n = int(rng.integers(2, min(m, 20) + 1)) if n is None else n
    q = int(rng.integers(0, n)) if q is None else q
    lam = float(rng.uniform(0.1, 2.0)) if lam is None else lam
    A = vp.DenseOperator(rng.standard_normal((m, n)))
    L = vp.DenseOperator(rng.standard_normal((q, n)))
    return vp.stack(A, L, lam)


def band_route_stack(n, k, seed, lam):
    """A random symmetric Toeplitz top with last nonzero index k over a
    randomly weighted first difference; it is block-applied, and its Gram
    band (kd = max(2k, 1)) taken, when 2k + 1 <= n/2."""
    rng = np.random.default_rng(seed)
    row = np.zeros(n)
    row[: k + 1] = rng.standard_normal(k + 1)
    row[k] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)
    return vp.stack(vp.SymmetricToeplitzOperator(row),
                    vp.FirstDifferenceOperator(10.0 ** rng.uniform(-1.0, 4.0, size=n - 1)), lam)


def decaying_band_stack(n, seed, lam):
    """A random Gaussian-like symmetric Toeplitz top over a randomly weighted
    first difference, with its Gram band taken. The first row is
    exp(-t^2 / (2 s^2)) times factors drawn from [0.5, 1] with random signs
    past t = 0, cut below sqrt(tiny) as ``gaussian_toeplitz`` cuts, and its
    width s is drawn so that the last nonzero index k has 2 max(2k, 1) + 1
    <= n/2, within the block apply's 2k + 1 <= n/2. Unlike the rows of
    ``band_route_stack`` it decays, so ``normal_band`` drops its far
    diagonals."""
    rng = np.random.default_rng(seed)
    # The cut falls at t of about 26.6 s.
    s = rng.uniform(0.15, ((n // 2 - 1) // 4) / 27.0)
    t = np.arange(n)
    row = np.exp(-t**2 / (2.0 * s * s)) * rng.uniform(0.5, 1.0, size=n)
    row[1:] *= rng.choice([-1.0, 1.0], size=n - 1)
    row[np.abs(row) < np.sqrt(np.finfo(float).tiny)] = 0.0
    return vp.stack(vp.SymmetricToeplitzOperator(row),
                    vp.FirstDifferenceOperator(10.0 ** rng.uniform(-1.0, 4.0, size=n - 1)), lam)


@pytest.fixture(scope="session")
def certificate_corpus():
    """200 random stacked systems solved by LSQR with epsilon*kappa < 1/2.

    Each entry carries the dense operator, data, tolerance, true 2-norm,
    condition number, and the inner solution (stopped on the 2-norm from
    numpy's SVD).
    """
    rng = np.random.default_rng(20240)
    corpus = []
    while len(corpus) < 200:
        op = random_stacked(rng)
        dense = op.to_dense()
        svals = np.linalg.svd(dense, compute_uv=False)
        if svals[-1] <= 0 or svals[0] / svals[-1] > 1e6:
            continue
        kappa = float(svals[0] / svals[-1])
        d = rng.standard_normal(op.rows)
        eps = 10.0 ** rng.uniform(-10, -2)
        eps = min(eps, 0.5 / kappa)
        sol = vp.lsqr_solve(op, d, eps, operator_norm=float(svals[0]))
        corpus.append({
            "op": op, "dense": dense, "d": d, "eps": eps,
            "norm": float(svals[0]), "kappa": kappa, "sol": sol,
        })
    return corpus
