import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from voctrl import (
    BernsteinKernel,
    FractionalKernel,
    GammaKernel,
    Kernel,
    MonomialKernel,
    N_CAP,
    NumericRangeError,
    PolynomialKernel,
    bernstein_kernel,
    uniform_error_report,
)

from .conftest import uniform_grid


def test_constant_kernel_reproduced_exactly():
    c = 3.7
    bk = bernstein_kernel(PolynomialKernel(T=2.0, coeffs=(c,)), 6)
    assert bk.coeffs[0] == c
    assert np.all(bk.coeffs[1:] == 0.0)
    assert bk(1.234) == c


def test_bernstein_kernel_is_a_polynomial_kernel():
    bk = bernstein_kernel(FractionalKernel(T=2.0, exponent=0.3), 5)
    assert isinstance(bk, PolynomialKernel)
    assert isinstance(bk, Kernel)
    assert bk.T == 2.0 and len(bk.coeffs) == 6
    # one call rule for every kernel, kept in K_n's own namespace
    assert vars(BernsteinKernel)["__call__"] is Kernel.__call__


def test_degree_is_read_off_the_nodes():
    source = FractionalKernel(T=2.0, exponent=0.3)
    for n in (0, 1, 20):
        assert bernstein_kernel(source, n).n == n
    bk = bernstein_kernel(source, 2)
    with pytest.raises(TypeError):  # no second copy that could disagree with the nodes
        BernsteinKernel(T=2.0, coeffs=bk.coeffs, n=2, node_values=bk.node_values)


def test_degree_zero_is_the_constant_at_zero():
    source = PolynomialKernel(T=2.0, coeffs=(3.0, -1.0))
    bk = bernstein_kernel(source, 0)
    assert tuple(bk.coeffs) == (source(0.0),)
    assert np.all(bk(uniform_grid(2.0, 7)) == 3.0)


@pytest.mark.parametrize("T", [1e300, 1e-200], ids=["overflow", "underflow"])
def test_horizon_out_of_range_is_a_range_error(T):
    # T**2 overflows (OverflowError) or underflows to 0 (ZeroDivisionError)
    with pytest.raises(NumericRangeError, match="out of range"):
        bernstein_kernel(FractionalKernel(T=T, exponent=0.3), 2)


def test_infinite_node_value_is_a_range_error():
    # K(T) = 2e308 overflows to inf: the exact difference table cannot hold it
    source = PolynomialKernel(T=2.0, coeffs=(0.0, 1e308))
    with np.errstate(over="ignore"), pytest.raises(
            NumericRangeError, match="degree 3 out of range: cannot convert Infinity to integer ratio"):
        bernstein_kernel(source, 3)


def test_coefficients_and_node_values_are_read_only(fractional_kernel):
    bk = bernstein_kernel(fractional_kernel, 5)
    with pytest.raises(ValueError):
        bk.node_values[0] = 1.0
    with pytest.raises(ValueError):
        bk.coeffs[0] = 1.0


def test_linear_kernel_degree_one():
    # K_1(t) = K(0)(1 - t) + K(1) t = t on [0, 1]
    bk = bernstein_kernel(MonomialKernel(T=1.0, degree=1), 1)
    assert np.allclose(bk.coeffs, [0.0, 1.0], atol=1e-15)


def test_square_kernel_degree_two():
    # K_2(t) = 2 (1/4) t (1-t) + t^2 = t/2 + t^2/2 on [0, 1]
    bk = bernstein_kernel(MonomialKernel(T=1.0, degree=2), 2)
    assert np.allclose(bk.coeffs, [0.0, 0.5, 0.5], atol=1e-15)


def _exact_kappa(poly_coeffs, T, n):
    """Rational-arithmetic oracle for the coefficient formula."""
    Tq = Fraction(T)

    def K(t):
        return sum(Fraction(c) * t**k for k, c in enumerate(poly_coeffs))

    out = []
    for k in range(n + 1):
        s = sum(
            (-1) ** (k - i) * K(Fraction(i) * Tq / n) * math.comb(n, i) * math.comb(n - i, k - i)
            for i in range(k + 1)
        )
        out.append(s / Tq**k)
    return [float(v) for v in out]


@pytest.mark.parametrize("coeffs,T,n", [
    ((0.0, 0.0, 1.0), 2.0, 4),
    ((0.5, -1.0, 0.25, 2.0), 2.0, 7),
    ((1.0, 3.0), 1.5, 5),
])
def test_coefficients_match_rational_oracle(coeffs, T, n):
    bk = bernstein_kernel(PolynomialKernel(T=T, coeffs=coeffs), n)
    exact = _exact_kappa(coeffs, T, n)
    assert np.allclose(bk.coeffs, exact, rtol=1e-12, atol=1e-12)


def test_coefficients_match_alternating_sum():
    # the forward-difference route must agree with the defining alternating
    # binomial sum (here summed with fsum) wherever the latter is stable
    kernel = FractionalKernel(T=2.0, exponent=0.3)
    n = 15
    bk = bernstein_kernel(kernel, n)
    for k in range(n + 1):
        terms = [
            (-1) ** (k - i) * kernel(2.0 * i / n) * math.comb(n, i) * math.comb(n - i, k - i)
            for i in range(k + 1)
        ]
        ref = math.fsum(terms) / 2.0**k
        assert bk.coeffs[k] == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_evaluate_square_kernel_values():
    bk = bernstein_kernel(MonomialKernel(T=1.0, degree=2), 2)
    assert bk(0.5) == pytest.approx(0.375, abs=1e-15)
    # Bernstein of t^2 is t^2 + t(T-t)/n
    bk10 = bernstein_kernel(MonomialKernel(T=2.0, degree=2), 10)
    assert bk10(1.0) == pytest.approx(1.1, abs=1e-14)


def test_endpoint_interpolation():
    for kernel in (FractionalKernel(T=2.0, exponent=0.3),
                   GammaKernel(T=2.0, rate=1.0, exponent=0.3)):
        bk = bernstein_kernel(kernel, 20)
        assert abs(bk(0.0) - kernel(0.0)) <= 1e-10 * max(1.0, abs(kernel(0.0)))
        assert abs(bk(2.0) - kernel(2.0)) <= 1e-10 * max(1.0, abs(kernel(2.0)))


# a sign-changing source whose K_n is not small next to sum_k |f_k| B_k
SIGN_CHANGING = PolynomialKernel(T=2.0, coeffs=(0.5, -3.0, 1.5, 0.75, -0.5))


SOURCES = (FractionalKernel(T=2.0, exponent=0.3), GammaKernel(T=2.0, rate=1.0, exponent=0.3),
           FractionalKernel(T=2.0, exponent=1.1), SIGN_CHANGING)


def _around_half(T):
    """T/2, where the evaluation switches from the f_0 half to the f_n half, and
    the doubles on each side of it."""
    return (np.nextafter(T / 2, 0.0), T / 2, np.nextafter(T / 2, T))


@pytest.mark.parametrize("n", range(N_CAP + 1))
def test_exact_constants_endpoints_and_branch_switch(n):
    ts = uniform_grid(2.0, 2001)
    for c in (3.7, -0.1, 1e-300):
        assert np.all(bernstein_kernel(PolynomialKernel(T=2.0, coeffs=(c,)), n)(ts) == c)
    for source in SOURCES:
        bk = bernstein_kernel(source, n)
        assert bk(0.0) == bk.node_values[0] and bk(2.0) == bk.node_values[-1]
        near = np.array(_around_half(2.0))
        table = bk(np.concatenate([ts[:7], near, ts[-7:]]))
        assert [bk(t) for t in near] == list(table[7:10])


def _exact_bernstein(node_values, T, ts):
    """K_n and sum_k |f_k| B_k at each time, summed in 50-digit arithmetic."""
    n = len(node_values) - 1
    exact, scale = [], []
    with mpmath.workdps(50):
        f = [mpmath.mpf(float(v)) for v in node_values]
        for t in ts:
            x = mpmath.mpf(float(t)) / mpmath.mpf(T)
            basis = [mpmath.binomial(n, k) * x**k * (1 - x) ** (n - k) for k in range(n + 1)]
            exact.append(mpmath.fsum(fk * b for fk, b in zip(f, basis)))
            scale.append(mpmath.fsum(abs(fk) * b for fk, b in zip(f, basis)))
    return exact, scale


def _assert_within_bound(bk, ts):
    # |K_n - exact| <= c (n + 1) eps sum_k |f_k| B_k with c = 2.  The largest
    # measured ratio to (n + 1) eps sum_k |f_k| B_k is 0.73 on the four
    # sources (SIGN_CHANGING, n = 25, just below T/2) and 1.15 on the
    # near-overflow source (n = 25, t = 0.35).  The scheme's bound also
    # carries the half's endpoint value |f_0| or |f_n|; that term is what
    # lifts the near-overflow case, where |f_0| is 2.2 sum_k |f_k| B_k.
    c = 2.0
    exact, scale = _exact_bernstein(bk.node_values, bk.T, ts)
    got = bk(ts)
    eps = np.finfo(float).eps
    for t, v, ex, sc in zip(ts, got, exact, scale):
        err = abs(mpmath.mpf(float(v)) - ex)
        assert err <= c * (bk.n + 1) * eps * sc, (bk.n, t, float(err), float(sc))


@pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 20, 25])
def test_evaluation_accuracy_against_50_digit_sum(n):
    ts = np.concatenate([uniform_grid(2.0, 41), _around_half(2.0), [1e-9, 2.0 - 2e-9]])
    for source in SOURCES:
        _assert_within_bound(bernstein_kernel(source, n), ts)


def test_node_values_near_overflow_stay_finite():
    # |f_k| up to 1e306 with both signs: C(25, 12) (f_k - f_0) alone would
    # overflow, so the weights must be scaled
    source = PolynomialKernel(T=1.0, coeffs=(1e306, -6e306, 5e306))
    bk = bernstein_kernel(source, 25)
    assert bk.node_values.min() < -5e305 and bk.node_values.max() == 1e306
    ts = np.concatenate([uniform_grid(1.0, 41), _around_half(1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = bk(ts)
        _assert_within_bound(bk, ts)
    assert np.all(np.isfinite(values))


def test_evaluation_memory_is_a_few_node_arrays(fractional_kernel):
    # measured: 6.9 node arrays, with the time check's clamped copy; the
    # de Casteljau table this replaced peaked at 58
    bk = bernstein_kernel(fractional_kernel, 25)
    ts = uniform_grid(2.0, 2001)
    bk(ts)
    tracemalloc.start()
    try:
        bk(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * ts.nbytes, peak / ts.nbytes


def test_degree_cap():
    with pytest.raises(NumericRangeError):
        bernstein_kernel(FractionalKernel(T=2.0, exponent=0.3), N_CAP + 1)
    with pytest.raises(NumericRangeError):
        bernstein_kernel(FractionalKernel(T=2.0, exponent=0.3), -1)


@pytest.mark.parametrize("n", [5, 10, 20, 25])
def test_basis_and_monomial_forms_agree(n, fractional_kernel, gamma_kernel):
    # cancellation sentinel for the coefficient pipeline
    for kernel in (fractional_kernel, gamma_kernel, MonomialKernel(T=2.0, degree=2)):
        bk = bernstein_kernel(kernel, n)
        for t in uniform_grid(2.0, 23):
            assert bk(t) == pytest.approx(polyval(t, bk.coeffs), abs=1e-8)


def test_error_report_constant():
    rep = uniform_error_report(MonomialKernel(T=2.0, degree=0), 1)
    assert rep.sup_error <= 1e-14


def test_error_report_fractional_bound_value(fractional_kernel):
    # H T^h 2^{-h} n^{-h/2} at H=1, h=0.3, T=2, n=20 collapses to 20^{-0.15}
    rep = uniform_error_report(fractional_kernel, 20)
    assert rep.bound == pytest.approx(0.63803646567959137, rel=1e-12)
    assert rep.sup_error <= rep.bound


def test_error_report_square_kernel_interior_max():
    # error of Bernstein(t^2) is t(1-t)/n, maximal 1/16 at t = 1/2 for n = 4
    rep = uniform_error_report(MonomialKernel(T=1.0, degree=2), 4, grid_points=401)
    assert rep.sup_error == pytest.approx(1.0 / 16.0, abs=1e-12)


def test_sup_error_within_bound_shipped_kernels(fractional_kernel, smooth_kernel, gamma_kernel):
    kernels = [fractional_kernel, smooth_kernel, gamma_kernel,
               MonomialKernel(T=2.0, degree=1), MonomialKernel(T=2.0, degree=2)]
    for kernel in kernels:
        for n in (1, 2, 5, 10, 20):
            rep = uniform_error_report(kernel, n)
            assert rep.sup_error <= rep.bound, (type(kernel).__name__, n)


def test_sup_error_nonincreasing_in_degree(fractional_kernel):
    errs = [uniform_error_report(fractional_kernel, n).sup_error for n in (1, 4, 16)]
    assert errs[0] >= errs[1] >= errs[2]


@pytest.mark.parametrize("n", [5, 10, 20])
def test_holder_preservation(n, fractional_kernel, gamma_kernel):
    # the approximant keeps the source kernel's Holder constant
    for kernel in (fractional_kernel, gamma_kernel):
        h, H = kernel.holder_metadata()
        bk = bernstein_kernel(kernel, n)
        ts = uniform_grid(2.0, 100)
        vals = bk(ts)
        dv = np.abs(vals[:, None] - vals[None, :])
        dt = np.abs(ts[:, None] - ts[None, :])
        mask = ~np.eye(len(ts), dtype=bool)
        assert np.all(dv[mask] <= H * dt[mask] ** h + 1e-12)
