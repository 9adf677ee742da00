"""Memory kernels for the goodwill dynamics.

A kernel is a continuous function K on [0, T] entering the state equation
through the convolution integrals int_0^t K(t-s)(alpha u(s) - beta X(s)) ds
and int_0^t K(t-s) dW(s).  Every kernel carries Holder regularity metadata
(holder_h, holder_H) with

    |K(t) - K(s)| <= holder_H * |t - s|**holder_h,   s, t in [0, T],

which drives all approximation-error bounds downstream.  Metadata can be
supplied explicitly; for the monomial, fractional and gamma families a
conservative default is derived automatically.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, MetadataError

#: relative slack when checking t against [0, T]: times within DOMAIN_TOL *
#: max(1, T) outside it are clamped, which covers the few ulps by which grid
#: nodes built as i*dt can overshoot T.
DOMAIN_TOL = 1e-9


def _check_time(t, T: float):
    """Validate times in [0, T], up to DOMAIN_TOL * max(1, T) outside it, and
    clamp them into the interval.

    ``t`` is a scalar, which gives a float, or an array, which gives a float
    array of its shape.  A time outside the slack (or NaN) raises
    ``DomainError`` naming the first such value.
    """
    tol = DOMAIN_TOL * max(1.0, T)
    ts = np.asarray(t, dtype=float)
    bad = ~((ts >= -tol) & (ts <= T + tol))
    if bad.any():
        raise DomainError(f"time {float(ts[bad][0])!r} outside kernel domain [0, {T}]")
    clamped = np.minimum(np.maximum(ts, 0.0), T)
    return float(clamped) if clamped.ndim == 0 else clamped


def _horner(coeffs, x: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] * x**k by Horner's rule, in place on one accumulator."""
    acc = np.zeros_like(x)
    for c in reversed(coeffs):
        acc *= x
        acc += c
    return acc


@dataclass(frozen=True, kw_only=True)
class Kernel:
    """Base class: a kernel on [0, T] with optional Holder metadata.

    Attributes
    ----------
    T : float
        Horizon; the kernel is defined on [0, T].
    holder_h : float, optional
        Holder exponent in (0, 1].  When omitted, a family-specific default
        is derived (see ``default_holder_metadata``).
    holder_H : float, optional
        Holder constant, > 0.  Given with holder_h or not at all.

    Array fields are stored as read-only copies, so a kernel object never
    changes: ``objective.lq_oracle`` keys its kept answer on the problem
    object that holds it.
    """

    T: float
    holder_h: float | None = None
    holder_H: float | None = None

    def __post_init__(self):
        for f in fields(self):  # horizon, Holder data, parameters and number lists
            value = getattr(self, f.name)
            if isinstance(value, (float, tuple, np.ndarray)) and not np.all(np.isfinite(value)):
                raise DomainError(f"{f.name} must be finite, got {value}")
            if isinstance(value, np.ndarray):  # a read-only copy: the kernel cannot change
                frozen = value.copy()
                frozen.setflags(write=False)
                object.__setattr__(self, f.name, frozen)
        if not self.T > 0.0:
            raise DomainError(f"horizon T must be positive, got {self.T}")
        if self.holder_h is not None and not 0.0 < self.holder_h <= 1.0:
            raise DomainError(f"holder_h must lie in (0, 1], got {self.holder_h}")
        if self.holder_H is not None and not self.holder_H > 0.0:
            raise DomainError(f"holder_H must be positive, got {self.holder_H}")
        if (self.holder_h is None) != (self.holder_H is None):
            missing = "holder_h" if self.holder_h is None else "holder_H"
            raise DomainError(f"{missing} is missing: give holder_h and holder_H together")

    def __call__(self, t):
        """K(t) for a time (returns a float) or an array of times (returns an array).

        Both go through one numpy expression on an array of at least one
        dimension, so a scalar call equals the matching entry of an array
        call bit for bit.
        """
        ts = _check_time(t, self.T)
        out = self._value(np.atleast_1d(ts))
        return float(out[0]) if np.ndim(ts) == 0 else out

    def _value(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def default_holder_metadata(self) -> tuple[float, float]:
        raise MetadataError(
            f"{type(self).__name__} has no derivable Holder metadata; "
            "supply holder_h and holder_H explicitly"
        )

    def holder_metadata(self) -> tuple[float, float]:
        """Explicit (holder_h, holder_H) if given, else the family default."""
        if self.holder_h is not None:
            return self.holder_h, self.holder_H
        return self.default_holder_metadata()


class _PowerLawKernel(Kernel):
    """K(t) = exp(-rate * t) * t**exponent, 0**0 taken as 1: the monomial and
    fractional kernels (rate 0, so exp(-0 * t) is exactly 1) and the gamma kernel."""

    def _value(self, t):
        return np.exp(-self.rate * t) * t**self.exponent

    def default_holder_metadata(self):
        h, rate, T = self.exponent, self.rate, self.T
        if h == 0:  # the constant t**0
            return 1.0, 1.0
        if h < 1:
            # For s < t, K(s) - K(t) = e^{-rate t} (s**h - t**h) + s**h (e^{-rate s} -
            # e^{-rate t}).  The first term is at most |t - s|**h; the second at most
            # T**h min(1, rate (t - s)) <= (rate T)**h (t - s)**h, as min(1, x) <= x**h.
            return h, 1.0 + (rate * T) ** h
        # Lipschitz: |K'(t)| = e^{-rate t} |h t**(h-1) - rate t**h| <= h T**(h-1) + rate T**h;
        # T**h is not formed at rate 0, as it can overflow where T**(h-1) does not.
        slope = h * T ** (h - 1)
        return 1.0, slope + rate * T**h if rate else slope


@dataclass(frozen=True, kw_only=True)
class MonomialKernel(_PowerLawKernel):
    """K(t) = t**degree with integer degree >= 0; 0**0 is taken as 1."""

    degree: int
    rate = 0.0
    exponent = property(lambda self: self.degree)  # read-only alias of the int degree

    def __post_init__(self):
        super().__post_init__()
        if self.degree < 0 or self.degree != int(self.degree):
            raise DomainError(f"degree must be a nonnegative integer, got {self.degree}")


@dataclass(frozen=True, kw_only=True)
class FractionalKernel(_PowerLawKernel):
    """K(t) = t**exponent, exponent > 0: exponent-Holder with constant 1 below 1,
    Lipschitz with constant exponent * T**(exponent - 1) from 1 up (e.g. t**1.1)."""

    exponent: float
    rate = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not self.exponent > 0.0:
            raise DomainError(f"exponent must be positive, got {self.exponent}")


@dataclass(frozen=True, kw_only=True)
class GammaKernel(_PowerLawKernel):
    """K(t) = exp(-rate * t) * t**exponent, rate > 0, exponent in (0, 1)."""

    rate: float
    exponent: float

    def __post_init__(self):
        super().__post_init__()
        if not self.rate > 0.0:
            raise DomainError(f"rate must be positive, got {self.rate}")
        if not 0.0 < self.exponent < 1.0:
            raise DomainError(f"exponent must lie in (0, 1), got {self.exponent}")


@dataclass(frozen=True, kw_only=True)
class PolynomialKernel(Kernel):
    """K(t) = sum_k coeffs[k] * t**k (coefficients in increasing power order).

    Polynomial kernels admit an exact coefficient lift, bypassing the
    Bernstein approximation entirely.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        super().__post_init__()
        if len(self.coeffs) == 0:
            raise DomainError("polynomial kernel needs at least one coefficient")

    def _value(self, t):
        return _horner(self.coeffs, t)


@dataclass(frozen=True, kw_only=True)
class TabulatedKernel(Kernel):
    """Piecewise-linear kernel through (times, values) nodes.

    Linear interpolation preserves a Holder bound, so explicit metadata for
    the underlying function remains valid for the interpolant.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        super().__post_init__()
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or len(t) < 2:
            raise DomainError("tabulated kernel needs matching times/values, length >= 2")
        if not np.all(np.diff(t) > 0.0):
            raise DomainError("tabulated times must be strictly increasing")
        tol = 1e-12 * max(1.0, self.T)
        if abs(t[0]) > tol or abs(t[-1] - self.T) > tol:
            raise DomainError("tabulated times must start at 0 and end at T")

    def _value(self, t):
        return np.interp(t, self.times, self.values)

