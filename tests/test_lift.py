import math

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from voctrl import (
    MonomialKernel,
    NumericRangeError,
    bernstein_kernel,
    gamma_table,
    lift_from_coefficients,
    operator_norm_bound,
)


def test_lift_constant_kernel():
    lk = lift_from_coefficients([3.0], beta=1.0)
    assert np.array_equal(lk.g, [3.0])


def test_lift_square_kernel_exact():
    lk = lift_from_coefficients([0.0, 0.0, 1.0], beta=1.0)
    assert np.array_equal(lk.g, [0.0, 0.0, 2.0])


def test_lift_from_bernstein_linear():
    bk = bernstein_kernel(MonomialKernel(T=1.0, degree=1), 1)
    lk = lift_from_coefficients(bk.coeffs, beta=1.0)
    assert np.allclose(lk.g, [0.0, 1.0], atol=1e-15)


def test_lift_reconstructs_kernel():
    bk = bernstein_kernel(MonomialKernel(T=2.0, degree=2), 8)
    lk = lift_from_coefficients(bk.coeffs, beta=0.7)
    inv_fact = np.array([1.0 / math.factorial(i) for i in range(lk.n + 1)])
    for t in np.linspace(0.0, 2.0, 9):
        assert polyval(t, lk.g * inv_fact) == pytest.approx(polyval(t, bk.coeffs), rel=1e-12, abs=1e-12)


def test_lift_overflow():
    with pytest.raises(NumericRangeError):
        lift_from_coefficients([0.0] * 25 + [1e300], beta=1.0)


def test_gamma_base_cases():
    lk = lift_from_coefficients([0.4, 1.3], beta=0.8)
    row = gamma_table(lk, 6)
    assert row.shape == (7,)
    assert row[0] == 1.0
    # one recursion step by hand: gamma(0,1) = -beta * kappa_0
    assert row[1] == pytest.approx(-0.8 * 0.4, abs=1e-15)


def test_gamma_square_lift_feedback_delay():
    # feedback first returns after N+1 = 3 shifts, with weight -beta * N!
    lk = lift_from_coefficients([0.0, 0.0, 1.0], beta=1.0)
    row = gamma_table(lk, 6)
    assert row[1] == 0.0
    assert row[2] == 0.0
    assert row[3] == -2.0


def _abar_matrix(lk, dim):
    A = np.zeros((dim, dim))
    for i in range(dim - 1):
        A[i + 1, i] = 1.0
    for i in range(min(len(lk.g), dim)):
        A[0, i] += -lk.beta * lk.g[i]
    return A


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gamma_matches_matrix_powers(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 8))
    lk = lift_from_coefficients(rng.uniform(-1.0, 1.0, size=n + 1), beta=float(rng.uniform(0.1, 2.0)))
    M = 15
    row = gamma_table(lk, M)
    A = _abar_matrix(lk, M + 2)
    v = np.zeros(M + 2)
    v[0] = 1.0
    for k in range(M + 1):
        col = row[k::-1]  # gamma(i, k) = gamma(0, k - i), i = 0..k
        assert np.allclose(v[: k + 1], col, rtol=1e-9, atol=1e-12)
        assert np.all(v[k + 1 :] == 0.0)
        v = A @ v


def test_gamma_overflow_detected():
    lk = lift_from_coefficients([1e150], beta=1.0)
    with pytest.raises(NumericRangeError):
        gamma_table(lk, 10)


def test_operator_norm_bound_values():
    assert operator_norm_bound(lift_from_coefficients([0.0], beta=1.0)) == 1.0
    assert operator_norm_bound(lift_from_coefficients([1.0], beta=1.0)) == 2.0
    assert operator_norm_bound(lift_from_coefficients([0.0, 0.0, 1.0], beta=1.0)) == 3.0
    # the pure shift, although |g|**2 = 1e320 overflows
    assert operator_norm_bound(lift_from_coefficients([1e160], beta=0.0)) == 1.0

