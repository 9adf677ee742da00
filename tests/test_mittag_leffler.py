import math
import re

import numpy as np
import pytest

from voctrl import DomainError, NumericRangeError, Z_MAX, mittag_leffler


def test_reduces_to_exponential():
    for x in np.linspace(-5.0, 5.0, 100):
        assert mittag_leffler(x, 1.0, 1.0) == pytest.approx(math.exp(x), abs=1e-10)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 3.0])
def test_value_at_zero(a, b):
    assert mittag_leffler(0.0, a, b) * math.gamma(b) == pytest.approx(1.0, abs=1e-12)


def test_sinh_identity():
    # E_{2,2}(z) = sinh(sqrt(z)) / sqrt(z), so E_{2,2}(1) = sinh(1)
    assert mittag_leffler(1.0, 2.0, 2.0) == pytest.approx(math.sinh(1.0), abs=1e-12)


def test_frozen_reference_values():
    # 50-digit series summation oracle (mpmath)
    assert mittag_leffler(-2.0, 3.0, 3.0) == pytest.approx(0.48343233944911458824, abs=1e-13)
    assert mittag_leffler(-16.0, 3.0, 3.0) == pytest.approx(0.37291400838556873324, abs=1e-13)


@pytest.mark.parametrize("z, a", [(-20.0, 1.0), (-50.0, 1.0), (-50.0, 1.3)])
def test_cancelling_series_raises(z, a):
    # the alternating sum's rounding error, about 2**-53 * sum |term|, passes
    # the value: E_{1,1}(-50) would come out as -1.4e7 where e**-50 is 1.9e-22
    with pytest.raises(NumericRangeError, match=re.escape(f"z = {z!r}, a = {a!r}, b = {a!r}")):
        mittag_leffler(z, a, a)


def test_moderate_negative_argument_is_accurate():
    assert mittag_leffler(-10.0, 1.0, 1.0) == pytest.approx(math.exp(-10.0), abs=1e-11)


def test_tolerance_refinement_is_stable():
    for z in (-10.0, -1.0, 0.5, 10.0):
        for tol in (1e-8, 1e-10):
            coarse = mittag_leffler(z, 1.5, 2.0, tol=tol)
            fine = mittag_leffler(z, 1.5, 2.0, tol=tol / 2.0)
            assert abs(coarse - fine) < 10.0 * tol


def test_argument_cap():
    with pytest.raises(NumericRangeError):
        mittag_leffler(Z_MAX + 1.0, 1.0, 1.0)
    with pytest.raises(NumericRangeError):
        mittag_leffler(-(Z_MAX + 1.0), 1.0, 1.0)


def test_parameter_validation():
    with pytest.raises(DomainError):
        mittag_leffler(1.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        mittag_leffler(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        mittag_leffler(1.0, 1.0, 1.0, tol=0.0)
