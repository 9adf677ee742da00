"""Objective evaluation and an independent discretized optimizer.

J(u) = E[-a1 int_0^T u(s)**2 ds + a2 X(T)] is evaluated on the one scheme of
``simulate`` two ways: deterministically as ``lq_oracle``'s optimum less a1
sum_i w_i (u_i - u*_i)**2, and by Monte-Carlo over the terminal states X(T),
each noise draw reduced to X(T) as it is drawn.  The scheme's X(T) is its
mean m_N plus centered noise, so sigma drops out of the first, and the second
estimates it without bias.

``lq_oracle`` maximizes the fully discretized functional directly.  The mean
is affine in the control through the trapezoidal quadrature operator and the
cost is a positive diagonal quadratic, so the maximizer is the discrete
beta-resolvent of K read backwards from T.  The oracle reads it, and the
terminal mean's response to x0, off (rho, c) of ``_trapezoid_resolvent``,
the one solve that the simulator's mean and noise column come from, in
O(n_steps) memory.  Sharing the scheme is deliberate: comparisons against
the lifted closed form isolate method error from quadrature error.

``lq_oracle`` keeps its last answer, for the same problem object (frozen, its
kernel's arrays read-only) and an equal grid, so ``evaluate_J_deterministic``
after ``lq_oracle`` on one problem solves once.  That one-entry memo is the
only state the package keeps between calls.
"""

from dataclasses import dataclass

import numpy as np

from .control import ControlProblem
from .errors import NumericRangeError
from .simulate import TimeGrid, _control_values, _terminal_states, _trapezoid_resolvent


@dataclass(frozen=True)
class ObjectiveReport:
    j_estimate: float
    std_error: float


def _trapezoid_weights(n_steps: int, dt: float) -> np.ndarray:
    w = np.full(n_steps + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def evaluate_J_deterministic(problem: ControlProblem, control, grid: TimeGrid) -> ObjectiveReport:
    """J for a deterministic control: -a1 trapz(u**2) + a2 m(T), which is
    exactly J* - a1 sum_i w_i (u_i - u*_i)**2 with (J*, u*) from ``lq_oracle``:
    J is a concave quadratic in u, stationary where alpha a2 b = 2 a1 w u*.
    The control is evaluated once, on the nodes."""
    oracle = lq_oracle(problem, grid)
    u = _control_values(control, grid.nodes)
    w = _trapezoid_weights(grid.n_steps, grid.dt)
    j = oracle.j_opt - problem.a1 * float(np.dot(w, (u - oracle.u_values) ** 2))
    return ObjectiveReport(j_estimate=j, std_error=0.0)


def evaluate_J_mc(problem: ControlProblem, control, grid: TimeGrid, n_paths: int,
                  seed: int) -> ObjectiveReport:
    """Monte-Carlo J estimate with the standard error of the terminal mean.

    X(T) of path p is ``simulate_paths(...).paths[p, -1]`` up to rounding,
    from the same noise, but comes from ``_terminal_states`` without forming
    the paths: memory is 512 KiB of draws per thread plus O(n_steps +
    n_paths).  The control is evaluated once, on the grid nodes.
    """
    if n_paths < 2:
        raise NumericRangeError(f"n_paths must be >= 2, got {n_paths}")
    u = _control_values(control, grid.nodes)
    w = _trapezoid_weights(grid.n_steps, grid.dt)
    xT = _terminal_states(problem, u, grid, n_paths, seed)
    j = -problem.a1 * float(np.dot(w, u**2)) + problem.a2 * float(xT.mean())
    se = problem.a2 * float(xT.std(ddof=1)) / np.sqrt(n_paths)
    return ObjectiveReport(j_estimate=j, std_error=se)


@dataclass(frozen=True)
class OracleSolution:
    u_values: np.ndarray  # read-only: a kept solution is shared by its callers
    j_opt: float


_last_oracle = None  # (problem, grid, solution) of the last lq_oracle call


def lq_oracle(problem: ControlProblem, grid: TimeGrid) -> OracleSolution:
    """Exact maximizer of the discretized objective.

    With A the scheme's trapezoidal operator, m = (I + beta A)^{-1} (x0 +
    alpha A u) is affine in u and the cost -a1 sum_i w_i u_i**2 is strictly
    concave, so stationarity gives

        u*_i = alpha a2 b_i / (2 a1 w_i),   b = last row of (I + beta A)^{-1} A,

    and m_N = x0 y_N + alpha b . u* with y = (I + beta A)^{-1} 1 = 1 - beta
    (I + beta A)^{-1} A 1, so y_N = 1 - sum_j beta b_j.  Both are read off
    ``_trapezoid_resolvent``'s (rho, c): b_j = rho_{N-j} for j >= 1 and b_0 =
    dt c_N / 2.  beta multiplies b before the sum, so at beta == 0, y_N is
    exactly 1.  Memory is O(n_steps).  A non-finite u* or optimum raises
    ``NumericRangeError``.

    The last solution is served again for the same problem object and an
    equal grid (see the module docstring).
    """
    global _last_oracle
    last = _last_oracle
    if last is not None and last[0] is problem and last[1] == grid:
        return last[2]
    n_steps, dt, beta = grid.n_steps, grid.dt, problem.beta
    _, rho, c = _trapezoid_resolvent(problem, grid)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite optimum is rejected below
        b = np.concatenate(([0.5 * dt * c[-1]], rho[-2::-1]))
        y_N = 1.0 - np.sum(beta * b)
        w = _trapezoid_weights(n_steps, dt)
        u_star = problem.alpha * problem.a2 * b / (2.0 * problem.a1 * w)
        m_T = problem.x0 * y_N + problem.alpha * float(np.dot(b, u_star))
        j_opt = -problem.a1 * float(np.dot(w, u_star**2)) + problem.a2 * m_T
    if not (np.isfinite(j_opt) and np.all(np.isfinite(u_star))):
        raise NumericRangeError("the discretized optimum is out of floating-point range")
    u_star.setflags(write=False)
    solution = OracleSolution(u_values=u_star, j_opt=j_opt)
    _last_oracle = (problem, grid, solution)
    return solution
