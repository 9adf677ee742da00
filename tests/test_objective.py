import dataclasses

import numpy as np
import pytest
from scipy.linalg import solve_triangular

import voctrl.objective
from voctrl import (
    FractionalKernel,
    MonomialKernel,
    NumericRangeError,
    PolynomialKernel,
    SimulationError,
    TimeGrid,
    bernstein_kernel,
    deterministic_mean,
    evaluate_J_deterministic,
    evaluate_J_mc,
    lq_oracle,
    monomial_closed_form,
    optimal_control_poly,
    simulate_paths,
)
from voctrl.objective import _trapezoid_weights
from voctrl.simulate import _kernel_table, _trapezoid_resolvent

from .conftest import CountingControl, CountingKernel, make_problem, trapezoid_operator


def zero(t):
    return 0.0


def test_deterministic_objective_trivial_dynamics():
    problem = make_problem(MonomialKernel(T=2.0, degree=1), beta=0.0, x0=0.4, a2=3.0)
    report = evaluate_J_deterministic(problem, zero, TimeGrid(T=2.0, dt=0.1))
    assert report.j_estimate == pytest.approx(3.0 * 0.4, abs=1e-14)
    assert report.std_error == 0.0


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


def test_deterministic_objective_calls_the_control_once(fractional_kernel):
    problem = make_problem(fractional_kernel)
    grid = TimeGrid(T=2.0, dt=0.05)
    control = CountingControl(optimal_control_poly(problem, 10, 30))
    evaluate_J_deterministic(problem, control, grid)
    assert control.shapes == [(41,)]


def test_oracle_then_objective_solve_once(resolvent_calls):
    kernel = CountingKernel(T=2.0, exponent=0.3)
    problem, grid = make_problem(kernel, x0=0.2), TimeGrid(T=2.0, dt=0.01)
    control = optimal_control_poly(problem, 10, 30)
    kernel.shapes.clear()  # the control's Bernstein nodes
    oracle = lq_oracle(problem, grid)
    report = evaluate_J_deterministic(problem, control, grid)
    assert resolvent_calls == [201] and kernel.shapes == [(201,)]
    assert report.j_estimate <= oracle.j_opt


@pytest.mark.parametrize("change", ["equal problem", "beta", "grid"])
def test_oracle_memo_serves_only_the_same_problem_object_and_grid(change, resolvent_calls):
    problem, grid = make_problem(FractionalKernel(T=2.0, exponent=0.3), x0=0.2), TimeGrid(T=2.0, dt=0.5)
    kept = lq_oracle(problem, grid)
    assert lq_oracle(problem, TimeGrid(T=2.0, dt=0.5)) is kept
    assert resolvent_calls == [5]
    with pytest.raises(ValueError):
        kept.u_values[0] = 1.0
    other, other_grid = {
        "equal problem": (dataclasses.replace(problem), grid),  # equal values are not enough
        "beta": (dataclasses.replace(problem, beta=0.5), grid),
        "grid": (problem, TimeGrid(T=2.0, dt=0.25)),
    }[change]
    assert lq_oracle(other, other_grid) is not kept
    assert len(resolvent_calls) == 2
    if change == "equal problem":
        assert lq_oracle(other, other_grid).u_values.tobytes() == kept.u_values.tobytes()


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_kept_solve_changes_no_bit(beta):
    # every consumer of the solve gives the same bits from a cold and a warm entry
    problem = make_problem(bernstein_kernel(FractionalKernel(T=2.0, exponent=0.3), 20),
                           beta=beta, x0=0.3)
    grid = TimeGrid(T=2.0, dt=0.01)
    control = optimal_control_poly(problem, 20, 50)

    def oracle():
        o = lq_oracle(problem, grid)
        return np.append(o.u_values, o.j_opt)

    def j_mc():
        r = evaluate_J_mc(problem, control, grid, 70, seed=3)
        return r.j_estimate, r.std_error

    runs = {
        "oracle": oracle,
        "J": lambda: evaluate_J_deterministic(problem, control, grid).j_estimate,
        "mean": lambda: deterministic_mean(problem, control, grid),
        "paths": lambda: simulate_paths(problem, control, grid, 70, seed=3).paths,
        "J_mc": j_mc,
    }
    cold = {}
    for name, run in runs.items():
        voctrl.objective._last_oracle = None
        cold[name] = np.asarray(run()).tobytes()
    for order in (list(runs), list(runs)[::-1]):
        for name in order:
            assert np.asarray(runs[name]()).tobytes() == cold[name], name


def test_monte_carlo_objective_zero_noise(fractional_kernel):
    problem = make_problem(fractional_kernel, sigma=0.0, x0=0.1)
    grid = TimeGrid(T=2.0, dt=0.05)
    cp = optimal_control_poly(problem, 10, 30)
    report = evaluate_J_mc(problem, cp, grid, 16, seed=5)
    assert report.std_error == 0.0
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


def test_monte_carlo_holds_terminal_states_and_one_draw_per_thread(fractional_kernel, monkeypatch):
    # each draw is reduced to X(T) in its thread, so the peak is the P
    # terminal states plus one draw buffer of at most _DRAW_FLOATS normals
    # per thread: 8 P + threads * 8 * _DRAW_FLOATS bytes, with 512 KiB for
    # the rest; 20 000 paths at 400 steps is the benchmark's mc_objective
    import tracemalloc

    from voctrl.simulate import _DRAW_FLOATS

    monkeypatch.setenv("VOC_THREADS", "2")
    problem = make_problem(fractional_kernel)
    grid = TimeGrid(T=2.0, dt=0.005)
    evaluate_J_mc(problem, zero, grid, 2, seed=1)  # lazy imports and caches
    for n_paths in (50_000, 20_000):
        tracemalloc.start()
        try:
            evaluate_J_mc(problem, zero, grid, n_paths, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n_paths + 2 * 8 * _DRAW_FLOATS + 2**19, n_paths


def test_monte_carlo_overflow_names_path_at_horizon():
    # the problem of test_simulate's state overflow test: the mean overflows
    # at step 1, before any noise is drawn
    problem = make_problem(MonomialKernel(T=2.0, degree=0), beta=1e300, x0=1.0)
    with pytest.raises(NumericRangeError, match=r"mean equation .* at step 1 \(t = 0\.1\)"):
        evaluate_J_mc(problem, zero, TimeGrid(T=2.0, dt=0.1), 70, seed=1)


def test_monte_carlo_noise_overflow_names_path_at_horizon():
    # the mean stays 0 but sigma c overflows, so every path's X(T) is
    # non-finite, and only X(T) is formed
    problem = make_problem(PolynomialKernel(T=2.0, coeffs=(1e200,)), beta=0.0, sigma=1e200, x0=0.0)
    with pytest.raises(SimulationError, match=r"on path 0 at step 20 \(t = 2\)"):
        evaluate_J_mc(problem, zero, TimeGrid(T=2.0, dt=0.1), 70, seed=1)


def test_zero_pivot_is_numeric_range_error():
    # K = -2, beta = 1, dt = 1: the trapezoidal diagonal 1 + beta dt K(0) / 2 is 0
    problem = make_problem(PolynomialKernel(T=2.0, coeffs=(-2.0,)), beta=1.0)
    grid = TimeGrid(T=2.0, dt=1.0)
    with pytest.raises(NumericRangeError):
        deterministic_mean(problem, zero, grid)
    with pytest.raises(NumericRangeError):
        lq_oracle(problem, grid)


def test_oracle_at_beta_zero_is_finite_where_the_feedback_dot_overflows():
    # rho . K overflows, but at beta == 0 it enters multiplied by 0; the
    # exact u* is K / 2 = 5e153 at every node and J* = T K**2 / 4 + x0
    problem = make_problem(PolynomialKernel(T=2.0, coeffs=(1e154,)), beta=0.0, x0=1.0)
    oracle = lq_oracle(problem, TimeGrid(T=2.0, dt=0.1))
    assert oracle.u_values[0] == pytest.approx(5e153, rel=1e-14)
    assert oracle.j_opt == pytest.approx(5e307, rel=1e-14)


def test_oracle_overflow_is_numeric_range_error():
    # u* = 5e159, so sum w u*^2 overflows
    problem = make_problem(PolynomialKernel(T=2.0, coeffs=(1e160,)), beta=0.0, x0=1.0)
    with pytest.raises(NumericRangeError):
        lq_oracle(problem, TimeGrid(T=2.0, dt=0.1))


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
    closed = monomial_closed_form(problem, grid.nodes)
    assert np.abs(oracle.u_values - closed).max() <= 1e-2


def _dense_mean(problem, grid, u):
    A = trapezoid_operator(_kernel_table(problem, grid), grid.dt)
    S = np.eye(grid.n_steps + 1) + problem.beta * A
    return solve_triangular(S, problem.x0 + problem.alpha * (A @ u), lower=True)


def _grid_objective(problem, grid, u):
    w = _trapezoid_weights(grid.n_steps, grid.dt)
    m = _dense_mean(problem, grid, u)
    return -problem.a1 * float(np.dot(w, u**2)) + problem.a2 * float(m[-1])


def _dense_oracle_control(problem, grid):
    # u* = alpha a2 b / (2 a1 w) with b = A^T (I + beta A)^{-T} e_N
    A = trapezoid_operator(_kernel_table(problem, grid), grid.dt)
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


@pytest.mark.parametrize("beta", [1.0, 5.0, 50.0])
@pytest.mark.parametrize("kernel", [FractionalKernel(T=2.0, exponent=0.3), MonomialKernel(T=2.0, degree=0),
                                    PolynomialKernel(T=2.0, coeffs=(1.0, 1.0))],
                         ids=["t^0.3", "K=1", "K=1+t"])
def test_noise_column_and_oracle_row_match_dense_solve(kernel, beta):
    # c = (I + beta A)^{-1} K_left, b = last row of (I + beta A)^{-1} A and
    # y_N = last entry of (I + beta A)^{-1} 1, each from one dense solve.
    # With alpha = a2 = 1 and a1 = 1/2 the oracle's u* is b / w, and its
    # optimum moves by y_N per unit of x0; y_N is taken in absolute terms,
    # as it is about 1e-44 on K = 1 at beta = 50
    grid = TimeGrid(T=2.0, dt=0.005)
    problem = make_problem(kernel, beta=beta, a1=0.5)
    ktab = _kernel_table(problem, grid)
    A = trapezoid_operator(ktab, grid.dt)
    S = np.eye(grid.n_steps + 1) + beta * A
    c_ref = solve_triangular(S, np.concatenate(([0.0], ktab[1:])), lower=True)
    b_ref = A.T @ solve_triangular(S.T, np.eye(1, grid.n_steps + 1, grid.n_steps)[0], lower=False)
    y_ref = solve_triangular(S, np.ones(grid.n_steps + 1), lower=True)[-1]
    _, _, c = _trapezoid_resolvent(problem, grid)
    b = _trapezoid_weights(grid.n_steps, grid.dt) * lq_oracle(problem, grid).u_values
    y_N = lq_oracle(dataclasses.replace(problem, x0=1.0), grid).j_opt - lq_oracle(problem, grid).j_opt
    assert np.abs(c - c_ref).max() <= 5e-14 * np.abs(c_ref).max()
    assert np.abs(b - b_ref).max() <= 5e-14 * np.abs(b_ref).max()
    assert abs(y_N - y_ref) <= 1e-14


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


@pytest.mark.parametrize("x0", [-0.5, 0.0, 0.5])
def test_oracle_gap_is_the_weighted_distance_to_the_optimum(fractional_kernel, smooth_kernel,
                                                             gamma_kernel, x0):
    # J(u) = J* - a1 sum w (u - u*)^2 exactly on the discretized program, so
    # the fine-mesh cross-check's J_opt - J_hat is that distance to rounding
    grid = TimeGrid(T=2.0, dt=0.001)
    w = _trapezoid_weights(grid.n_steps, grid.dt)
    for kernel in (fractional_kernel, smooth_kernel, gamma_kernel):
        problem = make_problem(kernel, x0=x0)
        cp = optimal_control_poly(problem, 20, 50)
        lifted = dataclasses.replace(problem, kernel=bernstein_kernel(kernel, 20))
        oracle = lq_oracle(lifted, grid)
        gap = oracle.j_opt - evaluate_J_deterministic(lifted, cp, grid).j_estimate
        distance = problem.a1 * float(np.dot(w, (cp(grid.nodes) - oracle.u_values) ** 2))
        assert gap > 0.0
        assert abs(gap - distance) <= 1e-16


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
    closed = monomial_closed_form(problem, grid.nodes)
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
