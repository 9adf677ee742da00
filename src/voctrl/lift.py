"""Coordinate representation of the Markovian lift of a polynomial kernel.

A polynomial kernel K_n(t) = sum_k kappa[k] t**k equals <g, e^{tA} nu> where
A is the unit shift acting on an orthonormal indicator basis indexed by
0, 1, 2, ..., nu is the basis element of index 0, and

    g[i] = i! * kappa[i],   i = 0..n.

Everything here works purely in coordinates over that basis: the shift sends
index i to i + 1, inner products are plain dot products, and the controlled
generator is the shift plus a rank-one feedback,

    Abar z = A z - beta * <g, z> * nu.

Each application of Abar shifts every coordinate up one index and refills
index 0, so the coordinates of Abar^k nu are gamma(i, k) = gamma(0, k - i)
and the one sequence gamma(0, 0..M) holds them all.  With G(z) = sum_i
g[i] z**i, its generating function is the power-series quotient
1 / (1 + beta z G(z)), which a recurrence delivers in O(M n) work; the
control downstream is read off it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericRangeError


@dataclass(frozen=True)
class LiftedKernel:
    """Lift coordinates g[i] = i! * kappa[i] and the feedback weight beta."""

    g: np.ndarray
    beta: float

    @property
    def n(self) -> int:
        return len(self.g) - 1


def lift_from_coefficients(kappa, beta: float) -> LiftedKernel:
    """Exact lift of a polynomial kernel given its monomial coefficients.

    Bypasses the Bernstein construction; this is how monomial and polynomial
    kernels are handled without approximation bias.
    """
    if not beta >= 0.0:
        raise NumericRangeError(f"beta must be nonnegative, got {beta}")
    kappa = np.asarray(kappa, dtype=float)
    with np.errstate(over="ignore"):
        g = np.array([math.factorial(i) * kappa[i] for i in range(len(kappa))])
    if not np.all(np.isfinite(g)):
        raise NumericRangeError("lift coefficients overflow")
    return LiftedKernel(g=g, beta=float(beta))


def gamma_table(lk: LiftedKernel, M: int) -> np.ndarray:
    """gamma(0, k) for k = 0..M, the index-0 coordinate of Abar^k nu.

    The shift moves every coordinate up one index per power, so the rest of
    the triangle is gamma(i, k) = gamma(0, k - i); the feedback refills
    index 0 with

        gamma(0, k) = -beta * sum_{i <= min(n, k-1)} g[i] * gamma(0, k-1-i),

    starting from gamma(0, 0) = 1.  O(M * n) work and O(M) memory.
    """
    if M < 0:
        raise NumericRangeError(f"truncation order must be nonnegative, got {M}")
    n = lk.n
    row = np.zeros(M + 1)
    row[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # the check below raises instead
        for k in range(1, M + 1):
            m = min(n, k - 1)
            row[k] = -lk.beta * float(np.dot(lk.g[: m + 1], row[k - 1 - m : k][::-1]))
            if not math.isfinite(row[k]):
                raise NumericRangeError("gamma overflow; reduce M or n")
    return row


def operator_norm_bound(lk: LiftedKernel) -> float:
    """Upper bound on the operator norm of Abar.

    The shift is an isometry and the rank-one feedback has norm beta * |g|
    (nu is a unit vector), so 1 + beta * |g| dominates.  At beta == 0 that
    is 1 even where |g| overflows.
    """
    if lk.beta == 0.0:
        return 1.0
    return 1.0 + lk.beta * float(np.sqrt(np.dot(lk.g, lk.g)))
