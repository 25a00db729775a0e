"""The 1-d blind-deconvolution benchmark used by the test suite and the CLI.

A piecewise ground-truth signal with zero boundary values is blurred by a
normalized Gaussian Toeplitz kernel of unknown width sigma; Gaussian noise is
added and rescaled so the noise-to-signal ratio is exact. The regularizer is
a reweighted first-difference operator L = W D whose diagonal weights
(|D x_true|_i + tau)^(-1/2) make ||L x_true||^2 approximate the total
variation ||D x_true||_1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.blas import ddot, dgemv, dsyrk
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .inner_solvers import SingularSystemError
from .linops import (
    FirstDifferenceOperator,
    check_kernel_width,
    gaussian_row,
    gaussian_toeplitz,
    gaussian_toeplitz_derivative,
    is_kernel_width,
    kept_diagonals,
    stack,
)
from .varpro import SeparableModel


class ConfigError(ValueError):
    """A benchmark or run configuration field is invalid."""


DEFAULT_SEED = 1

# Grid points per block of the scan, which sets up its band width and
# buffers once per block.
_SCAN_BLOCK = 256


@dataclass(frozen=True)
class BenchConfig:
    """Benchmark parameters; the defaults reproduce the standard experiment."""

    n: int = 128
    sigma_true: float = 3.0
    noise_level: float = 0.05
    lam: float = 0.0379
    rng_seed: int = DEFAULT_SEED
    tau: float = 1e-8

    def __post_init__(self):
        if self.n < 8:
            raise ConfigError(f"n must be at least 8, got {self.n}")
        try:
            check_kernel_width(self.sigma_true)
        except ValueError as exc:
            raise ConfigError(f"sigma_true: {exc}") from None
        if not 0.0 <= self.noise_level < math.inf:
            raise ConfigError(f"noise_level must be nonnegative and finite, got {self.noise_level}")
        if not 0.0 < self.lam < math.inf:
            raise ConfigError(f"lambda must be positive and finite, got {self.lam}")
        if not 0.0 < self.tau < math.inf:
            raise ConfigError(f"tau must be positive and finite, got {self.tau}")
        if self.rng_seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.rng_seed}")


@dataclass(frozen=True)
class ProblemInstance:
    """A fully built benchmark: model, data, regularizer, and metadata."""

    model: SeparableModel
    b: np.ndarray
    b_true: np.ndarray
    x_true: np.ndarray
    L: FirstDifferenceOperator
    lam: float
    config: BenchConfig
    noise_ratio: float


def _signal(n: int) -> np.ndarray:
    """The piecewise ground-truth signal on n >= 8 points, zero at both ends.

    It combines a flat plateau, a linear ramp with a jump at its end, and a
    compactly supported cosine bump, so the difference D x has both exact
    zeros and order-one jumps. All values lie in [0, 1].
    """
    t = np.arange(n, dtype=float) / (n - 1)
    x = np.zeros(n)
    x[(t >= 0.15) & (t < 0.35)] = 0.75
    ramp = (t >= 0.45) & (t < 0.60)
    x[ramp] = 0.9 * (t[ramp] - 0.45) / 0.15
    bump = np.abs(t - 0.78) < 0.10
    x[bump] = 0.5 * (1.0 + np.cos(np.pi * (t[bump] - 0.78) / 0.10))
    return x


def _regularizer(x_true: np.ndarray, tau: float) -> FirstDifferenceOperator:
    """Reweighted first difference L = W D with W_ii = (|D x_true|_i + tau)^(-1/2).

    The weights make ||L x||^2 = sum_i (D x)_i^2 / (|D x_true|_i + tau), so at
    x = x_true the squared norm approximates ||D x_true||_1; tau > 0 keeps the
    weights finite where the true signal is flat.
    """
    return FirstDifferenceOperator(1.0 / np.sqrt(np.abs(np.diff(x_true)) + tau))


def _blur_model(n: int) -> SeparableModel:
    """The benchmark's separable model: the parameter is the kernel width,
    feasible where the kernel accepts it (``is_kernel_width``)."""
    return SeparableModel(
        m=n,
        r=1,
        operator=lambda y: gaussian_toeplitz(float(y[0]), n),
        derivative=lambda y, j: gaussian_toeplitz_derivative(float(y[0]), n),
        feasible=lambda y: is_kernel_width(float(y[0])),
    )


def build_problem(cfg: BenchConfig) -> ProblemInstance:
    """Construct the benchmark deterministically from its configuration.

    The noise vector is drawn standard normal and rescaled so that
    ||b - b_true|| / ||b_true|| equals the configured level exactly.
    """
    n = cfg.n
    x_true = _signal(n)
    A = gaussian_toeplitz(cfg.sigma_true, n)
    b_true = A.matvec(x_true)
    if cfg.noise_level > 0.0:
        rng = np.random.default_rng(cfg.rng_seed)
        noise = rng.standard_normal(n)
        noise *= cfg.noise_level * np.linalg.norm(b_true) / np.linalg.norm(noise)
        b = b_true + noise
    else:
        b = b_true.copy()
    ratio = float(np.linalg.norm(b - b_true) / np.linalg.norm(b_true))
    L = _regularizer(x_true, cfg.tau)
    for arr in (b, b_true, x_true):
        arr.setflags(write=False)
    return ProblemInstance(model=_blur_model(n), b=b, b_true=b_true,
                           x_true=x_true, L=L, lam=cfg.lam, config=cfg,
                           noise_ratio=ratio)


def stacked_operator(problem: ProblemInstance, y_value: float):
    """The stacked operator [A(y); lam L] of a benchmark at kernel width y."""
    return stack(problem.model.operator(np.array([float(y_value)])), problem.L, problem.lam)


def _objective_block(problem: ProblemInstance, ys: np.ndarray) -> np.ndarray:
    """f(y) = 0.5 (||A x - b||^2 + ||lam L x||^2) at the exact inner solution
    x, for each kernel width y in ``ys``.

    Each point forms A^T A with ``dsyrk`` in reused buffers, adds lam^2 L^T L
    (``L.add_gram``) to its first kd' + 1 diagonals, and factors and solves
    that band with ``dpbtrf`` and ``dpbtrs``. kd' is ``kept_diagonals`` of
    the block's widest kernel, which covers the narrower ones, so what is
    left out weighs less than one unit roundoff of A^2 at every point, as in
    ``normal_band``. Past that band the updates of a dense Cholesky
    underflow into subnormal numbers, on which x86 processors take a slow
    path: at n = 128 and width 2, ``dpotrf`` took four times as long on the
    full Gram as on the Gram with those diagonals set to zero.

    Every product and factorization goes through scipy's BLAS and LAPACK:
    numpy and scipy may each bundle their own OpenBLAS with its own thread
    pool, and alternating the two in this loop made a point about 20 times
    slower under default threading. A band that does not factor raises
    ``SingularSystemError``, as in the solvers.
    """
    b, L, lam = problem.b, problem.L, problem.lam
    n = b.size
    kept = kept_diagonals(gaussian_row(float(ys.max()), n))
    # sym[n - 1 + d] = row[|d|], so row i of the Toeplitz A is
    # sym[n - 1 - i : 2n - 1 - i].
    sym = np.empty(2 * n - 1)
    step = sym.itemsize
    toeplitz = as_strided(sym[n - 1:], shape=(n, n), strides=(-step, step), writeable=False)
    a = np.empty((n, n), order="F")
    # The Gram sits at the start of a zeroed buffer with kd' entries to
    # spare, so that band[d, j] = gram[j + d, j] is one strided view of it.
    # dsyrk writes the lower triangle only, so the entries that view reads
    # past the matrix's last row, which dpbtrf never uses, stay zero.
    storage = np.zeros(n * n + kept)
    gram = storage[: n * n].reshape((n, n), order="F")
    lower_band = as_strided(storage, shape=(kept + 1, n), strides=(step, (n + 1) * step),
                            writeable=False)
    band = np.empty((kept + 1, n), order="F")
    fs = np.empty(ys.size)
    for i, y in enumerate(ys):
        row = gaussian_row(float(y), n)
        sym[n - 1:] = row
        sym[: n - 1] = row[:0:-1]
        np.copyto(a.T, toeplitz)
        dsyrk(1.0, a, trans=1, lower=1, c=gram, overwrite_c=1)
        np.copyto(band, lower_band)
        L.add_gram(lam, band[0], band[1, :-1])
        chol, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info:
            raise SingularSystemError(f"normal equations are not positive definite at y = {y}")
        x, _ = dpbtrs(chol, dgemv(1.0, a, b), lower=1)
        misfit = dgemv(1.0, a, x, beta=-1.0, y=b, trans=1)
        penalty = lam * L.matvec(x)
        fs[i] = 0.5 * (ddot(misfit, misfit) + ddot(penalty, penalty))
    return fs


def objective_grid(problem: ProblemInstance, lo: float, hi: float,
                   resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the reduced functional on a uniform grid of kernel widths.

    The grid is lo + k * resolution for k = 0, 1, ... up to the last point
    not beyond hi, allowing for rounding in (hi - lo) / resolution. Uses
    exact (normal-equations) inner solves at every grid point: A^T A plus
    the tridiagonal lam^2 L^T L that ``L.add_gram`` adds, factored on its
    working-precision band in blocks of consecutive points
    (``_objective_block``). The bounds must be finite with lo <= hi.
    """
    if not resolution > 0.0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    for name, value in (("lo", lo), ("hi", hi)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if lo > hi:
        raise ValueError(f"lo must not exceed hi, got lo={lo}, hi={hi}")
    count = math.floor((hi - lo) / resolution * (1.0 + 1e-12)) + 1
    ys = lo + resolution * np.arange(count)
    fs = np.empty(count)
    for start in range(0, count, _SCAN_BLOCK):
        fs[start : start + _SCAN_BLOCK] = _objective_block(problem, ys[start : start + _SCAN_BLOCK])
    return ys, fs


def grid_minimizer(problem: ProblemInstance, lo: float = 2.0, hi: float = 4.0,
                   resolution: float = 1e-4) -> float:
    """Kernel width minimizing the reduced functional on a uniform grid."""
    ys, fs = objective_grid(problem, lo, hi, resolution)
    return float(ys[int(np.argmin(fs))])
