"""Numerical toolkit for near-optimal advertising control of goodwill
dynamics with memory (Volterra Ornstein-Uhlenbeck state).

The pipeline: approximate the memory kernel by a Bernstein polynomial,
lift the resulting dynamics to a Markovian system in shift-operator
coordinates, read the optimal spend off a closed-form value function as an
explicit polynomial in remaining time, and validate it against a discretized
brute-force optimizer, Monte-Carlo simulation, and Mittag-Leffler closed
forms for monomial kernels.
"""

from .bernstein import (
    N_CAP,
    ApproximationReport,
    BernsteinKernel,
    bernstein_kernel,
    uniform_error_report,
)
from .control import (
    M_MAX,
    ControlPolynomial,
    ControlProblem,
    ValueFunctionReport,
    choose_M,
    lift_for_problem,
    monomial_closed_form,
    on_kn,
    optimal_control_poly,
    truncation_error_bound,
    value_function,
)
from .errors import (
    ConfigError,
    DomainError,
    MetadataError,
    NumericRangeError,
    SimulationError,
    VoctrlError,
)
from .kernels import (
    FractionalKernel,
    GammaKernel,
    Kernel,
    MonomialKernel,
    PolynomialKernel,
    TabulatedKernel,
)
from .lift import (
    LiftedKernel,
    gamma_table,
    lift_from_coefficients,
    operator_norm_bound,
)
from .mittag_leffler import Z_MAX, mittag_leffler
from .objective import (
    ObjectiveReport,
    OracleSolution,
    evaluate_J_deterministic,
    evaluate_J_mc,
    lq_oracle,
)
from .simulate import (
    DEFAULT_BACKEND,
    PathBatch,
    TimeGrid,
    deterministic_mean,
    gaussian_increments,
    simulate_paths,
)

__version__ = "0.1.0"

__all__ = [
    "ApproximationReport",
    "BernsteinKernel",
    "ConfigError",
    "ControlPolynomial",
    "ControlProblem",
    "DEFAULT_BACKEND",
    "DomainError",
    "FractionalKernel",
    "GammaKernel",
    "Kernel",
    "LiftedKernel",
    "M_MAX",
    "MetadataError",
    "MonomialKernel",
    "N_CAP",
    "NumericRangeError",
    "ObjectiveReport",
    "OracleSolution",
    "PathBatch",
    "PolynomialKernel",
    "SimulationError",
    "TabulatedKernel",
    "TimeGrid",
    "ValueFunctionReport",
    "VoctrlError",
    "Z_MAX",
    "bernstein_kernel",
    "choose_M",
    "deterministic_mean",
    "evaluate_J_deterministic",
    "evaluate_J_mc",
    "gamma_table",
    "gaussian_increments",
    "lift_for_problem",
    "lift_from_coefficients",
    "lq_oracle",
    "mittag_leffler",
    "monomial_closed_form",
    "on_kn",
    "operator_norm_bound",
    "optimal_control_poly",
    "simulate_paths",
    "truncation_error_bound",
    "uniform_error_report",
    "value_function",
]
