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
    grid_minimizer,
    objective_grid,
    stacked_operator,
)
from .inner_solvers import (
    DirectFactorization,
    NumericalBreakdownError,
    SingularSystemError,
    condition_number,
    lsqr_solve,
)
from .linops import (
    DenseOperator,
    FirstDifferenceOperator,
    LinearOperator,
    StackedOperator,
    SymmetricToeplitzOperator,
    gaussian_toeplitz,
    gaussian_toeplitz_derivative,
    stack,
)
from .varpro import (
    IterationRecord,
    OuterOptions,
    SeparableModel,
    SolverTrace,
    ToleranceSchedule,
    ToleranceWarning,
    exact_jacobian,
    exact_residual,
    genvarpro,
    gradient,
    inexact_genvarpro,
)

__version__ = "0.1.0"
