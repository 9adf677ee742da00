"""Objective evaluation and an independent discretized optimizer.

J(u) = E[-a1 int_0^T u(s)**2 ds + a2 X(T)] is evaluated two ways:
deterministically through the mean equation (the noise is centered, so sigma
drops out) and by Monte-Carlo over simulated paths.

``lq_oracle`` maximizes the fully discretized functional directly.  The mean
is affine in the control through the trapezoidal quadrature operator and the
cost is a positive diagonal quadratic, so the maximizer is the discrete
beta-resolvent of K read backwards from T, which the mean equation's own
Volterra sweep delivers in O(n_steps) memory.  Sharing the trapezoidal
weights with ``deterministic_mean`` is deliberate: comparisons against the
lifted closed form isolate method error from quadrature error.
"""

from dataclasses import dataclass

import numpy as np

from .control import ControlProblem
from .errors import NumericRangeError
from .simulate import TimeGrid, _control_values, _kernel_table, _volterra_solve, simulate_paths


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
    ktab = _kernel_table(problem, grid)
    u = _control_values(control, grid.nodes)
    w = _trapezoid_weights(grid.n_steps, grid.dt)
    m = _volterra_solve(ktab, grid.dt, problem.beta, problem.x0, problem.alpha * u)
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


def lq_oracle(problem: ControlProblem, grid: TimeGrid) -> OracleSolution:
    """Exact maximizer of the discretized objective.

    With A the trapezoidal quadrature operator of ``deterministic_mean``,
    m = (I + beta A)^{-1} (x0 + alpha A u) is affine in u and the cost
    -a1 sum_i w_i u_i**2 is strictly concave, so stationarity gives

        u*_i = alpha a2 b_i / (2 a1 w_i),   b = last row of (I + beta A)^{-1} A.

    Column j of (I + beta A)^{-1} A solves the mean equation with x0 = 0 and
    forcing e_j.  Columns j >= 1 of A are shifts of column 1, so one sweep
    with the forcings e_0, e_1 and (x0 = 1) zero gives b_0, b_j = r_{N-j+1}
    for j >= 1, and y = (I + beta A)^{-1} 1, with m_N = x0 y_N + alpha b . u*.
    Memory is O(n_steps), so the grid has no step cap.
    """
    n_steps = grid.n_steps
    dt = grid.dt
    ktab = _kernel_table(problem, grid)
    v = np.zeros((n_steps + 1, 3))
    v[0, 0] = v[1, 1] = 1.0
    sweep = _volterra_solve(ktab, dt, problem.beta, np.array([0.0, 0.0, 1.0]), v)
    b = np.concatenate((sweep[-1:, 0], sweep[:0:-1, 1]))
    w = _trapezoid_weights(n_steps, dt)
    u_star = problem.alpha * problem.a2 * b / (2.0 * problem.a1 * w)
    m_T = problem.x0 * sweep[-1, 2] + problem.alpha * float(np.dot(b, u_star))
    j_opt = -problem.a1 * float(np.dot(w, u_star**2)) + problem.a2 * m_T
    return OracleSolution(grid=grid, u_values=u_star, j_opt=j_opt)
