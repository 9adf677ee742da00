"""Two-parameter Mittag-Leffler function by direct series summation."""

import math

from .errors import DomainError, NumericRangeError

#: argument cap: no series is summed past it.  Within it a negative z can
#: still cancel (for a = b = 1 from |z| of about 11.4), which
#: ``mittag_leffler`` detects and refuses.
Z_MAX = 50.0

_MAX_TERMS = 2000


def mittag_leffler(z: float, a: float, b: float, tol: float = 1e-12) -> float:
    """E_{a,b}(z) = sum_{p>=0} z**p / Gamma(a p + b) for real z, a > 0, b > 0.

    Partial sums stop once the current term is below tol * max(1, |sum|) for
    three consecutive terms.  For negative z the terms cancel, and a rounding
    error of about 2**-53 * sum_p |term_p| past 10 * max(tol, 2**-53) *
    max(1, |sum|) raises ``NumericRangeError``, so a returned value is within
    about 10 * tol.  Arguments beyond ``Z_MAX`` are rejected too.
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"parameters must be positive, got a={a}, b={b}")
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    if not abs(z) <= Z_MAX:
        raise NumericRangeError(
            f"argument {z!r} outside series-stable range |z| <= {Z_MAX}"
        )
    if z == 0.0:
        return 1.0 / math.gamma(b) if b < 170 else math.exp(-math.lgamma(b))
    log_abs_z = math.log(abs(z))
    negative = z < 0.0
    total = abs_total = 0.0
    small_streak = 0
    for p in range(_MAX_TERMS):
        # log-gamma keeps the denominator from overflowing long before the
        # term itself underflows.
        term = math.exp(p * log_abs_z - math.lgamma(a * p + b))
        if negative and p % 2 == 1:
            term = -term
        total += term
        abs_total += abs(term)
        if abs(term) < tol * max(1.0, abs(total)):
            small_streak += 1
            if small_streak >= 3:
                if math.ldexp(abs_total, -53) > 10.0 * max(tol, 2.0**-53) * max(1.0, abs(total)):
                    raise NumericRangeError(f"Mittag-Leffler series at z = {z!r}, a = {a!r}, "
                                            f"b = {b!r} cancels beyond double precision")
                return total
        else:
            small_streak = 0
    raise NumericRangeError("Mittag-Leffler series did not converge")
