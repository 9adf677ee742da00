"""Objective evaluation and an independent discretized optimizer.

J(u) = E[-a1 int_0^T u(s)**2 ds + a2 X(T)] is evaluated two ways:
deterministically through the mean equation (the noise is centered, so sigma
drops out) and by Monte-Carlo over simulated paths.

``lq_oracle`` maximizes the fully discretized functional directly: the mean
is affine in the control through the triangular quadrature operator, the
cost is a positive diagonal quadratic, so the stationarity system is
diagonal after two triangular solves.  It shares the trapezoidal weights
with ``deterministic_mean`` on purpose, so comparisons against the lifted
closed form isolate method error from quadrature error.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .control import ControlProblem
from .errors import NumericRangeError
from .simulate import TimeGrid, _control_values, _kernel_table, deterministic_mean, simulate_paths

#: dense linear-algebra bound for the oracle.
ORACLE_MAX_STEPS = 2000


@dataclass(frozen=True)
class ObjectiveReport:
    j_estimate: float
    std_error: float
    method: str
    n_paths: int | None = None
    seed: int | None = None


def _trapezoid_weights(n_steps: int, dt: float) -> np.ndarray:
    w = np.full(n_steps + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def evaluate_J_deterministic(problem: ControlProblem, control, grid: TimeGrid) -> ObjectiveReport:
    """J for a deterministic control: -a1 * trapz(u**2) + a2 * m(T)."""
    u = _control_values(control, grid.nodes)
    w = _trapezoid_weights(grid.n_steps, grid.dt)
    m = deterministic_mean(problem, control, grid)
    j = -problem.a1 * float(np.dot(w, u**2)) + problem.a2 * m[-1]
    return ObjectiveReport(j_estimate=j, std_error=0.0, method="deterministic")


def evaluate_J_mc(
    problem: ControlProblem,
    control,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    workers: int | None = None,
) -> ObjectiveReport:
    """Monte-Carlo J estimate with the standard error of the terminal mean."""
    if n_paths < 2:
        raise NumericRangeError(f"n_paths must be >= 2, got {n_paths}")
    u = _control_values(control, grid.nodes)
    w = _trapezoid_weights(grid.n_steps, grid.dt)
    batch = simulate_paths(problem, control, grid, n_paths, seed, workers=workers)
    xT = batch.paths[:, -1]
    j = -problem.a1 * float(np.dot(w, u**2)) + problem.a2 * float(xT.mean())
    se = problem.a2 * float(xT.std(ddof=1)) / np.sqrt(n_paths)
    return ObjectiveReport(j_estimate=j, std_error=se, method="monte_carlo", n_paths=n_paths, seed=seed)


@dataclass(frozen=True)
class OracleSolution:
    grid: TimeGrid
    u_values: np.ndarray
    j_opt: float


def _quadrature_operator(ktab: np.ndarray, dt: float) -> np.ndarray:
    """Lower-triangular trapezoidal product-quadrature operator A.

    Row i discretizes int_0^{t_i} K(t_i - s) f(s) ds with the same weights
    the mean solver uses; row 0 is empty.
    """
    n = len(ktab) - 1
    A = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        A[i, 1:i] = dt * ktab[i - 1 : 0 : -1]
        A[i, 0] = 0.5 * dt * ktab[i]
        A[i, i] = 0.5 * dt * ktab[0]
    return A


def lq_oracle(problem: ControlProblem, grid: TimeGrid) -> OracleSolution:
    """Brute-force maximizer of the discretized objective.

    With m = (I + beta A)^{-1} (x0 + alpha A u) affine in u and the cost
    -a1 sum_i w_i u_i**2 strictly concave, stationarity gives

        u*_i = alpha a2 b_i / (2 a1 w_i),   b = A^T (I + beta A)^{-T} e_N,

    solved with two dense triangular solves.
    """
    n_steps = grid.n_steps
    if n_steps > ORACLE_MAX_STEPS:
        raise NumericRangeError(
            f"oracle grid too fine: {n_steps} steps exceeds dense bound {ORACLE_MAX_STEPS}"
        )
    dt = grid.dt
    ktab = _kernel_table(problem, grid)
    A = _quadrature_operator(ktab, dt)
    w = _trapezoid_weights(n_steps, dt)
    S = np.eye(n_steps + 1) + problem.beta * A
    e_last = np.zeros(n_steps + 1)
    e_last[-1] = 1.0
    y = solve_triangular(S.T, e_last, lower=False)
    b = A.T @ y
    u_star = problem.alpha * problem.a2 * b / (2.0 * problem.a1 * w)
    m = solve_triangular(S, problem.x0 + problem.alpha * (A @ u_star), lower=True)
    j_opt = -problem.a1 * float(np.dot(w, u_star**2)) + problem.a2 * float(m[-1])
    return OracleSolution(grid=grid, u_values=u_star, j_opt=j_opt)
