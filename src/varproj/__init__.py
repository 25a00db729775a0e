"""Variable-projection solvers for regularized separable nonlinear least
squares, with LSQR-based inexact inner solves and a-posteriori error bounds."""

from .bounds import (
    BoundInvalidError,
    backward_perturbation,
    initial_tolerance,
    jacobian_bound,
    residual_bound,
    solution_bound,
)
from .deconv import (
    BenchConfig,
    ConfigError,
    ProblemInstance,
    build_problem,
    build_regularizer,
    default_signal,
    gaussian_blur_model,
    grid_minimizer,
    objective_grid,
    stacked_operator,
)
from .inner_solvers import (
    DirectFactorization,
    InnerSolution,
    NumericalBreakdownError,
    SingularSystemError,
    apply_pinv_transpose,
    apply_projector_perp,
    condition_number,
    lsqr_solve,
)
from .linops import (
    DenseOperator,
    FirstDifferenceOperator,
    LinearOperator,
    StackedOperator,
    SymmetricToeplitzOperator,
    first_difference,
    gaussian_toeplitz,
    gaussian_toeplitz_derivative,
    stack,
)
from .varpro import (
    IterationRecord,
    OuterOptions,
    SeparableModel,
    SingularStepError,
    SolverTrace,
    ToleranceSchedule,
    ToleranceWarning,
    approx_jacobian,
    exact_jacobian,
    exact_residual,
    gauss_newton_step,
    genvarpro,
    gradient,
    inexact_genvarpro,
)

__version__ = "0.1.0"
