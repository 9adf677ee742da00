import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import voctrl.control
import voctrl.lift
from voctrl import (
    DomainError,
    FractionalKernel,
    GammaKernel,
    M_MAX,
    MonomialKernel,
    NumericRangeError,
    PolynomialKernel,
    TimeGrid,
    bernstein_kernel,
    choose_M,
    gamma_table,
    lift_for_problem,
    lift_from_coefficients,
    monomial_closed_form,
    lq_oracle,
    on_kn,
    optimal_control_poly,
    truncation_error_bound,
    value_function,
)
from voctrl.control import _over_factorial

from .conftest import make_problem, uniform_grid


def _poly_problem(coeffs, T=2.0, **kw):
    return make_problem(PolynomialKernel(T=T, coeffs=coeffs), **kw)


def test_constant_kernel_control_is_decaying_exponential():
    # n = 0 closed form: u(t) = (1/2) e^{-(T-t)} for unit parameters
    problem = _poly_problem((1.0,))
    cp = optimal_control_poly(problem, 0, 40)
    for t in uniform_grid(2.0, 21):
        assert cp(t) == pytest.approx(0.5 * math.exp(-(2.0 - t)), abs=1e-12)
    assert cp(2.0) == 0.5  # scale * c_0 exactly


def test_square_kernel_value_at_zero():
    # 4 * E_{3,3}(-16), frozen from 50-digit summation
    problem = _poly_problem((0.0, 0.0, 1.0))
    cp = optimal_control_poly(problem, 2, 50)
    assert cp(0.0) == pytest.approx(4.0 * 0.37291400838556873, rel=1e-12)


def test_square_kernel_value_at_one():
    problem = _poly_problem((0.0, 0.0, 1.0))
    cp = optimal_control_poly(problem, 2, 50)
    assert cp(1.0) == pytest.approx(0.48343233944911459, abs=1e-8)


def test_terminal_value_is_scaled_kernel_at_zero():
    problem = _poly_problem((0.7, 0.1), alpha=1.5, a1=2.0, a2=3.0)
    cp = optimal_control_poly(problem, 1, 30)
    assert cp(2.0) == pytest.approx(problem.scale * 0.7, rel=1e-14)


def test_truncation_order_zero_constant_kernel():
    problem = _poly_problem((0.9,))
    cp = optimal_control_poly(problem, 0, 0)
    for t in (0.0, 1.0, 2.0):
        assert cp(t) == pytest.approx(0.5 * 0.9, rel=1e-15)


def test_negative_truncation_order_raises(fractional_kernel):
    # the lift's quotient, shared with gamma_table, holds the one check
    with pytest.raises(NumericRangeError, match="truncation order must be nonnegative, got -1"):
        optimal_control_poly(make_problem(fractional_kernel), 5, -1)


def test_control_and_gamma_table_read_one_lift_quotient(monkeypatch, fractional_kernel):
    # one _resolvent solve of length M + 2 gives r = z G / (1 + beta z G):
    # k! c_k = r[k + 1] and gamma(0, k) = delta_k0 - beta r[k]
    solves = []
    resolvent = voctrl.lift._resolvent

    def recording(a, beta_dt):
        solves.append(resolvent(a, beta_dt))
        return solves[-1]

    def no_gamma_table(*args):
        raise AssertionError("the control called gamma_table")

    monkeypatch.setattr(voctrl.lift, "_resolvent", recording)
    monkeypatch.setattr(voctrl.lift, "gamma_table", no_gamma_table)
    monkeypatch.setattr(voctrl.control, "gamma_table", no_gamma_table, raising=False)
    problem, M = make_problem(fractional_kernel), 50
    cp = optimal_control_poly(problem, 10, M)
    assert [len(r) for r in solves] == [M + 2]
    r = solves[0]
    assert np.array_equal(cp.coeffs, [_over_factorial(a_k, k) for k, a_k in enumerate(r[1:])])
    lk = lift_for_problem(problem, 10)
    row = -lk.beta * r[: M + 1]
    row[0] += 1.0
    assert np.array_equal(gamma_table(lk, M), row)


def test_coefficients_past_factorial_overflow_match_mpmath(fractional_kernel):
    # k! overflows a double from k = 171 on; c_k must not be flushed to zero.
    # Reference: the same recurrence on the same double g, in 50 digits.
    problem = make_problem(fractional_kernel)
    cp = optimal_control_poly(problem, 20, M_MAX)
    lk = lift_for_problem(problem, 20)
    with mpmath.workdps(50):
        g = [mpmath.mpf(float(x)) for x in lk.g]
        gamma = [mpmath.mpf(1)]
        for k in range(1, M_MAX + 1):
            terms = (g[i] * gamma[k - 1 - i] for i in range(min(lk.n, k - 1) + 1))
            gamma.append(-lk.beta * mpmath.fsum(terms))
        ref = []
        for k in range(M_MAX + 1):
            a_k = mpmath.fsum(g[i] * gamma[k - i] for i in range(min(lk.n, k) + 1))
            ref.append(float(a_k / mpmath.factorial(k)))
    assert np.all(cp.coeffs[171:] != 0.0)
    assert np.allclose(cp.coeffs, ref, rtol=1e-13, atol=0.0)


RESOLVENT_CASES = [
    # (kernel, n, M, bound on the residual / sup |R|); the Bernstein lifts of
    # rough kernels carry |g| ~ 1e12, whose cancellation sets their floor
    (FractionalKernel(T=2.0, exponent=0.3), 20, 50, 2e-9),
    (FractionalKernel(T=2.0, exponent=0.3), 20, 120, 1e-10),
    (GammaKernel(T=2.0, rate=1.0, exponent=0.3), 20, 50, 2e-9),
    (GammaKernel(T=2.0, rate=1.0, exponent=0.3), 20, 120, 1e-10),
    (FractionalKernel(T=2.0, exponent=1.1, holder_h=1.0, holder_H=1.1 * 2.0**0.1), 20, 50, 5e-13),
    (PolynomialKernel(T=2.0, coeffs=(1.0,)), 0, 50, 1e-15),
    (PolynomialKernel(T=2.0, coeffs=(0.0, 0.0, 1.0)), 2, 50, 1e-15),
    (PolynomialKernel(T=2.0, coeffs=(0.5, -0.3, 0.2)), 2, 120, 1e-15),
]


@pytest.mark.parametrize(
    "kernel,n,M,bound", RESOLVENT_CASES,
    ids=["t0.3-M50", "t0.3-M120", "gamma-M50", "gamma-M120", "t1.1-M50", "exact-t0",
         "exact-t2", "exact-mixed-M120"],
)
def test_control_is_resolvent_of_lifted_kernel(kernel, n, M, bound):
    # read backwards from T, the control is the beta-resolvent of K_n:
    # R(s) = u(T - s) / scale solves R = K_n - beta * (K_n conv R)
    problem = make_problem(kernel)
    k_n = kernel if isinstance(kernel, PolynomialKernel) else bernstein_kernel(kernel, n)
    cp = optimal_control_poly(problem, n, M)
    T = problem.T

    def R(s):
        return cp(T - s) / problem.scale

    sup = float(np.abs(cp(uniform_grid(T, 2001))).max()) / problem.scale
    for s in (0.25, 0.5, 1.0, 1.5, 2.0):
        conv, _ = quad(lambda r: k_n(s - r) * R(r), 0.0, s, epsabs=1e-14, epsrel=1e-13, limit=200)
        assert abs(R(s) - k_n(s) + problem.beta * conv) <= bound * sup, s


@pytest.mark.parametrize("N,T", [(0, 2.0), (1, 2.0), (2, 2.0), (3, 1.5)])
def test_closed_form_agreement_exact_lift(N, T):
    # T = 1.5 for N = 3 keeps the Mittag-Leffler argument below its cap
    coeffs = tuple([0.0] * N + [1.0])
    problem = _poly_problem(coeffs, T=T)
    reference = make_problem(MonomialKernel(T=T, degree=N))
    cp = optimal_control_poly(problem, N, 60)
    sup = max(abs(cp(t) - monomial_closed_form(reference, t)) for t in uniform_grid(T, 100))
    assert sup <= 1e-8


def test_bernstein_of_linear_kernel_reproduces_closed_form():
    # Bernstein reproduces linear functions, so any degree n >= 1 gives the
    # exact N = 1 control; n chosen so the nodes are exact binary floats
    reference = make_problem(MonomialKernel(T=2.0, degree=1))
    exact = optimal_control_poly(_poly_problem((0.0, 1.0)), 1, 40)
    for n in (2, 4, 8):
        cp = optimal_control_poly(reference, n, 40)
        ts = uniform_grid(2.0, 50)
        assert np.array_equal(cp(ts), exact(ts))
        assert max(abs(cp(t) - monomial_closed_form(reference, t)) for t in ts) <= 1e-12


@pytest.mark.parametrize("kernel", [
    FractionalKernel(T=2.0, exponent=0.3),
    GammaKernel(T=2.0, rate=1.0, exponent=0.3),
    FractionalKernel(T=2.0, exponent=1.1, holder_h=1.0, holder_H=1.1 * 2.0**0.1),
], ids=["t0.3", "gamma", "t1.1"])
def test_problem_posed_on_bernstein_kernel_is_lifted_exactly(kernel):
    # K_n already is a polynomial: lifting it through Bernstein(n) once more
    # would solve the program of (K_n)_n, 3.5e-2 away for t^0.3
    problem = make_problem(kernel)
    on_k_n = replace(problem, kernel=bernstein_kernel(kernel, 20))
    assert np.array_equal(optimal_control_poly(on_k_n, 20, 50).coeffs,
                          optimal_control_poly(problem, 20, 50).coeffs)


@pytest.mark.parametrize("kernel", [
    PolynomialKernel(T=2.0, coeffs=(1.0, -0.5)),
    bernstein_kernel(FractionalKernel(T=2.0, exponent=0.3), 5),
], ids=["polynomial", "K_n"])
def test_on_kn_keeps_a_polynomial_kernel(kernel, bernstein_calls):
    problem = make_problem(kernel)
    assert on_kn(problem, 20) is problem
    assert bernstein_calls == []


@pytest.mark.parametrize("kernel", [
    FractionalKernel(T=2.0, exponent=0.3),
    MonomialKernel(T=2.0, degree=2),
], ids=["t0.3", "monomial"])
def test_on_kn_poses_any_other_kernel_on_its_bernstein_polynomial(kernel, bernstein_calls):
    problem = make_problem(kernel, beta=0.5, x0=0.25)
    kn = on_kn(problem, 7)
    assert bernstein_calls == [7]
    assert replace(kn, kernel=kernel) == problem
    assert np.array_equal(kn.kernel.coeffs, bernstein_kernel(kernel, 7).coeffs)
    assert on_kn(kn, 7) is kn


@pytest.mark.parametrize("field", ["alpha", "beta", "sigma", "a1", "a2", "x0"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_problem_rejects_non_finite_data(fractional_kernel, field, value):
    with pytest.raises(DomainError, match=f"{field} must be .*finite"):
        make_problem(fractional_kernel, **{field: value})


def test_control_invariant_under_noise_and_initial_state():
    base = _poly_problem((0.0, 0.0, 1.0))
    other = _poly_problem((0.0, 0.0, 1.0), sigma=7.5, x0=-3.0)
    cp1 = optimal_control_poly(base, 2, 30)
    cp2 = optimal_control_poly(other, 2, 30)
    assert cp1.scale == cp2.scale
    assert np.array_equal(cp1.coeffs, cp2.coeffs)


def test_control_scales_exactly_with_weights():
    ts = uniform_grid(2.0, 33)
    base = optimal_control_poly(_poly_problem((0.0, 0.0, 1.0)), 2, 30)(ts)
    doubled_a2 = optimal_control_poly(_poly_problem((0.0, 0.0, 1.0), a2=2.0), 2, 30)(ts)
    assert np.array_equal(doubled_a2, 2.0 * base)
    doubled_a1 = optimal_control_poly(_poly_problem((0.0, 0.0, 1.0), a1=2.0), 2, 30)(ts)
    assert np.array_equal(doubled_a1, 0.5 * base)
    doubled_alpha = optimal_control_poly(_poly_problem((0.0, 0.0, 1.0), alpha=2.0), 2, 30)(ts)
    assert np.array_equal(doubled_alpha, 2.0 * base)


def test_truncation_bound_values():
    lk = lift_from_coefficients([1.0], beta=1.0)
    # t = T gives a zero bound
    assert truncation_error_bound(lk, 2.0, 2.0, 10) == 0.0
    # norm bound 2, T - t = 1, M = 10: |g| e^2 (1 - e^{-2/11})
    expected = math.exp(2.0) * -math.expm1(-2.0 / 11.0)
    assert truncation_error_bound(lk, 2.0, 1.0, 10) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(1.227, abs=2e-3)


def test_truncation_bound_decreases_to_zero():
    # the tail estimate only decays like 1/(M+1), so very large M is needed
    # before it becomes small
    lk = lift_from_coefficients([1.0], beta=1.0)
    bounds = [truncation_error_bound(lk, 2.0, 0.0, M) for M in (4, 8, 16, 64, 512, 500_000)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
    assert bounds[-1] < 1e-3


def test_truncation_bound_precondition():
    lk = lift_from_coefficients([1.0], beta=1.0)
    with pytest.raises(NumericRangeError):
        truncation_error_bound(lk, 2.0, 0.0, 3)  # below (T-t) * norm bound = 4


def test_choose_M_first_admissible_for_huge_tolerance():
    lk = lift_from_coefficients([1.0], beta=1.0)
    assert choose_M(lk, 1.0, 1e6) == math.ceil(1.0 * 2.0)


def test_choose_M_inverts_bound():
    lk = lift_from_coefficients([1.0], beta=1.0)
    tol = 0.1
    M = choose_M(lk, 1.0, tol)
    assert truncation_error_bound(lk, 1.0, 0.0, M) <= tol
    if M > math.ceil(2.0):
        assert truncation_error_bound(lk, 1.0, 0.0, M - 1) > tol


def test_choose_M_monotone_in_tolerance():
    lk = lift_from_coefficients([1.0], beta=1.0)
    assert choose_M(lk, 1.0, 0.1) <= choose_M(lk, 1.0, 0.08)


def test_choose_M_unreachable_tolerance():
    # the tail bound decays like 1/(M+1), so tight tolerances exceed the cap
    lk = lift_from_coefficients([1.0], beta=1.0)
    with pytest.raises(NumericRangeError, match=str(M_MAX)):
        choose_M(lk, 1.0, 1e-6)


def test_closed_form_simple_cases():
    problem = make_problem(MonomialKernel(T=2.0, degree=2))
    assert monomial_closed_form(problem, 2.0) == 0.0
    flat = make_problem(MonomialKernel(T=2.0, degree=0))
    for t in uniform_grid(2.0, 9):
        assert monomial_closed_form(flat, t) == pytest.approx(0.5 * math.exp(-(2.0 - t)), rel=1e-12)


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_closed_form_on_an_array_equals_scalar_calls(degree):
    problem = make_problem(MonomialKernel(T=2.0, degree=degree))
    ts = uniform_grid(2.0, 41)
    values = monomial_closed_form(problem, ts)
    assert isinstance(values, np.ndarray) and values.shape == ts.shape
    assert np.array_equal(values, [monomial_closed_form(problem, t) for t in ts])
    assert np.array_equal(monomial_closed_form(problem, ts.reshape(41, 1)), values.reshape(41, 1))
    assert isinstance(monomial_closed_form(problem, 0.5), float)


def test_control_in_place_horner_keeps_every_bit(fractional_kernel):
    cp = optimal_control_poly(make_problem(fractional_kernel), 20, 50)
    nodes = TimeGrid(T=2.0, dt=0.001).nodes
    x, acc = 2.0 - nodes, np.zeros(len(nodes))
    for c in cp.coeffs[::-1]:
        acc = acc * x + c
    assert np.array_equal(cp(nodes), cp.scale * acc)


def test_closed_form_requires_monomial(fractional_kernel):
    with pytest.raises(DomainError):
        monomial_closed_form(make_problem(fractional_kernel), 0.0)


def test_value_function_zero_kernel():
    problem = _poly_problem((0.0,), x0=1.5)
    report = value_function(problem, optimal_control_poly(problem, 0, 10))
    assert report.c0 == 0.0
    assert report.predicted_optimal_J == problem.a2 * 1.5


def test_value_function_zero_initial_state_sign():
    # with x0 = 0 the predicted optimum equals a1 * int u^2
    problem = _poly_problem((0.0, 0.0, 1.0), x0=0.0)
    cp = optimal_control_poly(problem, 2, 50)
    report = value_function(problem, cp)
    from scipy.integrate import quad

    integral, _ = quad(lambda t: cp(t) ** 2, 0.0, 2.0, limit=200)
    assert report.predicted_optimal_J == pytest.approx(problem.a1 * integral, abs=1e-9)
    assert report.predicted_optimal_J == -report.c0


def test_value_function_matches_brute_force_optimum():
    problem = _poly_problem((1.0,), x0=0.5, alpha=1.2, beta=0.8)
    report = value_function(problem, optimal_control_poly(problem, 0, 60))
    oracle = lq_oracle(problem, TimeGrid(T=2.0, dt=0.002))
    assert report.predicted_optimal_J == pytest.approx(oracle.j_opt, abs=1e-4)


def test_bound_flag_and_worst_case_bound():
    problem = _poly_problem((1.0,))
    good = optimal_control_poly(problem, 0, 20)  # T * norm bound = 4
    assert good.bound_valid
    assert good.trunc_bound_at_0 == pytest.approx(
        problem.scale * truncation_error_bound(lift_from_coefficients([1.0], 1.0), 2.0, 0.0, 20),
        rel=1e-15,
    )
    low = optimal_control_poly(problem, 0, 2)
    assert not low.bound_valid
    assert math.isinf(low.trunc_bound_at_0)
