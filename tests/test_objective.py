import dataclasses

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from voctrl import (
    FractionalKernel,
    MonomialKernel,
    NumericRangeError,
    TimeGrid,
    bernstein_kernel,
    deterministic_mean,
    evaluate_J_deterministic,
    evaluate_J_mc,
    lq_oracle,
    monomial_closed_form,
    optimal_control_poly,
)
from voctrl.objective import _trapezoid_weights
from voctrl.simulate import _kernel_table

from .conftest import make_problem


def zero(t):
    return 0.0


def test_deterministic_objective_trivial_dynamics():
    problem = make_problem(MonomialKernel(T=2.0, degree=1), beta=0.0, x0=0.4, a2=3.0)
    report = evaluate_J_deterministic(problem, zero, TimeGrid(T=2.0, dt=0.1))
    assert report.j_estimate == pytest.approx(3.0 * 0.4, abs=1e-14)
    assert report.std_error == 0.0
    assert report.method == "deterministic"


def test_deterministic_objective_exponential_decay():
    problem = make_problem(MonomialKernel(T=1.0, degree=0), x0=1.0)
    report = evaluate_J_deterministic(problem, zero, TimeGrid(T=1.0, dt=0.005))
    assert report.j_estimate == pytest.approx(np.exp(-1.0), abs=1e-4)


def test_deterministic_objective_ignores_noise_scale(fractional_kernel):
    grid = TimeGrid(T=2.0, dt=0.05)
    quiet = make_problem(fractional_kernel, sigma=1.0)
    loud = make_problem(fractional_kernel, sigma=2.0)
    cp = optimal_control_poly(quiet, 10, 30)
    assert (evaluate_J_deterministic(quiet, cp, grid).j_estimate
            == evaluate_J_deterministic(loud, cp, grid).j_estimate)


def test_monte_carlo_objective_zero_noise(fractional_kernel):
    problem = make_problem(fractional_kernel, sigma=0.0, x0=0.1)
    grid = TimeGrid(T=2.0, dt=0.05)
    cp = optimal_control_poly(problem, 10, 30)
    report = evaluate_J_mc(problem, cp, grid, 16, seed=5)
    assert report.std_error == 0.0
    assert report.method == "monte_carlo"
    # all paths coincide with the single zero-noise trajectory
    single = evaluate_J_mc(problem, cp, grid, 2, seed=99)
    assert report.j_estimate == single.j_estimate


def test_monte_carlo_objective_within_three_standard_errors(gamma_kernel):
    problem = make_problem(gamma_kernel)
    grid = TimeGrid(T=2.0, dt=0.02)
    cp = optimal_control_poly(problem, 10, 30)
    det = evaluate_J_deterministic(problem, cp, grid)
    mc = evaluate_J_mc(problem, cp, grid, 4000, seed=31337)
    assert abs(mc.j_estimate - det.j_estimate) <= 3.0 * mc.std_error


def test_monte_carlo_needs_two_paths(fractional_kernel):
    problem = make_problem(fractional_kernel)
    with pytest.raises(NumericRangeError):
        evaluate_J_mc(problem, zero, TimeGrid(T=2.0, dt=0.1), 1, seed=1)


def test_monte_carlo_unforced_estimate(fractional_kernel):
    problem = make_problem(fractional_kernel, beta=0.0, x0=0.6, a2=2.0)
    report = evaluate_J_mc(problem, zero, TimeGrid(T=2.0, dt=0.05), 2000, seed=88)
    assert abs(report.j_estimate - 2.0 * 0.6) <= 3.0 * report.std_error


def test_oracle_scaling_in_terminal_weight(fractional_kernel):
    grid = TimeGrid(T=2.0, dt=0.05)
    base = lq_oracle(make_problem(fractional_kernel, a2=1.0), grid)
    scaled = lq_oracle(make_problem(fractional_kernel, a2=2.0), grid)
    assert np.array_equal(scaled.u_values, 2.0 * base.u_values)


def test_oracle_control_invariant_to_initial_state_and_noise(fractional_kernel):
    grid = TimeGrid(T=2.0, dt=0.05)
    base = lq_oracle(make_problem(fractional_kernel, x0=0.0, sigma=1.0), grid)
    moved = lq_oracle(make_problem(fractional_kernel, x0=-2.0, sigma=5.0), grid)
    assert np.array_equal(base.u_values, moved.u_values)


def test_oracle_matches_monomial_closed_form():
    # independent discretization of the same concave program: the kernel t^2
    # is exactly representable, so only quadrature error separates the two
    problem = make_problem(MonomialKernel(T=2.0, degree=2))
    grid = TimeGrid(T=2.0, dt=0.005)
    oracle = lq_oracle(problem, grid)
    closed = np.array([monomial_closed_form(problem, t) for t in grid.nodes])
    assert np.abs(oracle.u_values - closed).max() <= 1e-2


def _quadrature_operator(ktab, dt):
    """Dense lower-triangular trapezoidal product-quadrature operator A.

    Row i discretizes int_0^{t_i} K(t_i - s) f(s) ds with the weights of the
    mean equation's sweep; row 0 is empty.
    """
    n = len(ktab) - 1
    A = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        A[i, 1:i] = dt * ktab[i - 1 : 0 : -1]
        A[i, 0] = 0.5 * dt * ktab[i]
        A[i, i] = 0.5 * dt * ktab[0]
    return A


def _dense_mean(problem, grid, u):
    A = _quadrature_operator(_kernel_table(problem, grid), grid.dt)
    S = np.eye(grid.n_steps + 1) + problem.beta * A
    return solve_triangular(S, problem.x0 + problem.alpha * (A @ u), lower=True)


def _grid_objective(problem, grid, u):
    w = _trapezoid_weights(grid.n_steps, grid.dt)
    m = _dense_mean(problem, grid, u)
    return -problem.a1 * float(np.dot(w, u**2)) + problem.a2 * float(m[-1])


def _dense_oracle_control(problem, grid):
    # u* = alpha a2 b / (2 a1 w) with b = A^T (I + beta A)^{-T} e_N
    A = _quadrature_operator(_kernel_table(problem, grid), grid.dt)
    S = np.eye(grid.n_steps + 1) + problem.beta * A
    e_last = np.zeros(grid.n_steps + 1)
    e_last[-1] = 1.0
    b = A.T @ solve_triangular(S.T, e_last, lower=False)
    w = _trapezoid_weights(grid.n_steps, grid.dt)
    return problem.alpha * problem.a2 * b / (2.0 * problem.a1 * w)


@pytest.mark.parametrize("beta", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("dt", [0.05, 0.001])
@pytest.mark.parametrize("kernel_name", ["t^0", "t^0.3 lifted"])
def test_sweep_matches_dense_reference(kernel_name, dt, beta):
    # K(0) != 0 puts weight on the implicit diagonal; K(0) == 0 does not
    if kernel_name == "t^0":
        kernel = MonomialKernel(T=2.0, degree=0)
    else:
        kernel = bernstein_kernel(FractionalKernel(T=2.0, exponent=0.3), 10)
    problem = make_problem(kernel, alpha=1.3, beta=beta, a1=0.7, a2=1.1, x0=0.4)
    grid = TimeGrid(T=2.0, dt=dt)
    oracle = lq_oracle(problem, grid)
    u_ref = _dense_oracle_control(problem, grid)
    j_ref = _grid_objective(problem, grid, u_ref)
    assert np.abs(oracle.u_values - u_ref).max() <= 1e-12 * np.abs(u_ref).max()
    assert abs(oracle.j_opt - j_ref) <= 1e-12 * abs(j_ref)
    u = np.cos(3.0 * grid.nodes)
    m = deterministic_mean(problem, lambda t: np.cos(3.0 * t), grid)
    m_ref = _dense_mean(problem, grid, u)
    assert np.abs(m - m_ref).max() <= 1e-12 * np.abs(m_ref).max()


def test_oracle_optimality_sandwich(fractional_kernel, gamma_kernel):
    # the sandwich compares like for like: the oracle, the lifted control and
    # the perturbation all score against the polynomial-kernel program the
    # lift actually solves
    rng = np.random.default_rng(17)
    grid = TimeGrid(T=2.0, dt=0.01)
    for kernel in (fractional_kernel, gamma_kernel):
        problem = make_problem(kernel)
        cp = optimal_control_poly(problem, 10, 40)
        lifted = dataclasses.replace(problem, kernel=bernstein_kernel(kernel, 10))
        oracle = lq_oracle(lifted, grid)
        j_hat = _grid_objective(lifted, grid, cp(grid.nodes))
        noisy = oracle.u_values * (1.0 + 0.1 * rng.choice([-1.0, 1.0], size=len(oracle.u_values)))
        j_noisy = _grid_objective(lifted, grid, noisy)
        assert oracle.j_opt >= j_hat >= j_noisy


def test_oracle_objective_consistent_with_deterministic_evaluation(fractional_kernel):
    # same quadrature on both sides, so J agreement is near machine level
    problem = make_problem(fractional_kernel)
    grid = TimeGrid(T=2.0, dt=0.02)
    cp = optimal_control_poly(problem, 10, 40)
    j_direct = evaluate_J_deterministic(problem, cp, grid).j_estimate
    assert _grid_objective(problem, grid, cp(grid.nodes)) == pytest.approx(j_direct, abs=1e-12)


def test_oracle_improves_on_zero_control(fractional_kernel):
    problem = make_problem(fractional_kernel, x0=0.3)
    grid = TimeGrid(T=2.0, dt=0.05)
    oracle = lq_oracle(problem, grid)
    j_zero = evaluate_J_deterministic(problem, zero, grid).j_estimate
    assert oracle.j_opt >= j_zero


def test_oracle_cost_weights_positive(fractional_kernel):
    # strict concavity: the stationarity system is the positive diagonal 2 a1 w
    w = _trapezoid_weights(40, 0.05)
    assert np.all(w > 0.0)
    assert w.sum() == pytest.approx(2.0, rel=1e-14)


def _closed_form_error(problem, dt):
    grid = TimeGrid(T=problem.T, dt=dt)
    closed = np.array([monomial_closed_form(problem, t) for t in grid.nodes])
    return np.abs(lq_oracle(problem, grid).u_values - closed).max()


@pytest.mark.parametrize("beta", [1.0, 2.0])
@pytest.mark.parametrize("degree", [1, 2])
def test_oracle_is_discrete_resolvent_of_mittag_leffler_form(degree, beta):
    # the closed form is the beta-resolvent of t^N read backwards from T; the
    # oracle is its trapezoidal discretization, second order or better for
    # N >= 1 (t^0 converges at first order at the endpoint nodes)
    problem = make_problem(MonomialKernel(T=2.0, degree=degree), beta=beta)
    assert _closed_form_error(problem, 0.02) >= 3.5 * _closed_form_error(problem, 0.01)
    if degree == 1:
        # 4000 steps: no step cap, and the error keeps falling
        assert _closed_form_error(problem, 0.0005) < _closed_form_error(problem, 0.001)
