"""A-posteriori error bounds for certified inexact inner solves.

When an iterative inner solver stops on the relative-gradient test at
tolerance epsilon with epsilon * kappa < 1 (kappa the condition number of
the stacked operator), the distance to the exact inner solution, the
residual gap, and the induced Jacobian perturbation all admit closed-form
bounds in terms of epsilon, kappa, ||b|| and ||S||. This module evaluates
those bounds and the rank-one backward-error matrix that certifies the
approximate solve. A size or norm out of its range raises a plain
``ValueError``: ``BoundInvalidError`` marks only a violated hypothesis,
which the ``bounds`` command reports as a row of NaN bounds.
"""

from __future__ import annotations

import math

import numpy as np


class BoundInvalidError(ValueError):
    """epsilon * kappa >= 1: the bound hypotheses are violated."""


def _check_hypothesis(epsilon: float, kappa: float) -> None:
    if not epsilon > 0.0 or not kappa > 0.0:
        raise BoundInvalidError(
            f"epsilon and kappa must be positive, got epsilon={epsilon}, kappa={kappa}"
        )
    if epsilon * kappa >= 1.0:
        raise BoundInvalidError(
            f"epsilon * kappa = {epsilon * kappa:.3g} >= 1: bounds do not apply"
        )


def _check_norms(op_norm: float | None = None, **norms: float) -> None:
    """Raise ``ValueError`` naming ``op_norm`` unless it is positive and
    finite, or the first of ``norms`` that is negative or not finite."""
    if op_norm is not None and not 0.0 < op_norm < math.inf:
        raise ValueError(f"op_norm must be positive and finite, got {op_norm}")
    for name, value in norms.items():
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be nonnegative and finite, got {value}")


def solution_bound(kappa: float, b_norm: float, op_norm: float, epsilon: float) -> float:
    """Bound on ||x - x_bar||: 2 kappa^2 / (1 - eps kappa) * ||b|| / ||S|| * eps."""
    _check_norms(op_norm, b_norm=b_norm)
    _check_hypothesis(epsilon, kappa)
    return 2.0 * kappa**2 / (1.0 - epsilon * kappa) * (b_norm / op_norm) * epsilon


def residual_bound(kappa: float, b_norm: float, epsilon: float) -> float:
    """Bound on ||r - r_bar||: 2 kappa / (1 - eps kappa) * ||b|| * eps."""
    _check_norms(b_norm=b_norm)
    _check_hypothesis(epsilon, kappa)
    return 2.0 * kappa / (1.0 - epsilon * kappa) * b_norm * epsilon


def jacobian_bound(r: int, m: int, q: int, max_deriv_norm: float, kappa: float,
                   b_norm: float, op_norm: float, epsilon: float) -> float:
    """Bound on ||Jbar - J||_2 induced by an inexact inner solution.

    4 sqrt(r (m+q)) max_j ||dA/dy_j||_2 kappa^2 / (1 - eps kappa)
    * ||b|| / ||S|| * eps. The sizes need r >= 1, m >= 1 and q >= 0.
    """
    for name, value, least in (("r", r, 1), ("m", m, 1), ("q", q, 0)):
        if not value >= least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    _check_norms(op_norm, b_norm=b_norm, max_deriv_norm=max_deriv_norm)
    _check_hypothesis(epsilon, kappa)
    return (
        4.0
        * math.sqrt(r * (m + q))
        * max_deriv_norm
        * kappa**2
        / (1.0 - epsilon * kappa)
        * (b_norm / op_norm)
        * epsilon
    )


def backward_perturbation(M, x_bar, d) -> np.ndarray:
    """Rank-one perturbation E = -rbar rbar^T M / ||rbar||^2.

    x_bar solves min ||(M + E) x - d|| exactly, and ||E||_2 equals
    ||M^T rbar|| / ||rbar||, which the stopping test keeps below
    epsilon ||M||. Returns the zero matrix when the residual vanishes
    (x_bar already exact).
    """
    M = np.asarray(M, dtype=float)
    x_bar = np.asarray(x_bar, dtype=float)
    d = np.asarray(d, dtype=float)
    rbar = d - M @ x_bar
    nr2 = float(rbar @ rbar)
    if nr2 == 0.0:
        return np.zeros_like(M)
    return -np.outer(rbar, M.T @ rbar) / nr2


def initial_tolerance(kappa0: float) -> float:
    """Starting tolerance 0.1 / kappa0, keeping eps0 * kappa0 well below one."""
    if not kappa0 >= 1.0:
        raise ValueError(f"kappa0 must be at least 1, got {kappa0}")
    return 0.1 / kappa0
