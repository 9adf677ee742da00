"""Coordinate representation of the Markovian lift of a polynomial kernel.

A polynomial kernel K_n(t) = sum_k kappa[k] t**k equals <g, e^{tA} nu> where
A is the unit shift acting on an orthonormal indicator basis indexed by
0, 1, 2, ..., nu is the basis element of index 0, and

    g[i] = i! * kappa[i],   i = 0..n.

Everything here works purely in coordinates over that basis: the shift sends
index i to i + 1, inner products are plain dot products, and the controlled
generator is the shift plus a rank-one feedback,

    Abar z = A z - beta * <g, z> * nu.

The coordinates gamma(i, k) of Abar^k nu obey a simple recursion (the shift
moves the whole column up; the feedback refills index 0), which is how every
truncated operator exponential downstream is evaluated.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bernstein import BernsteinKernel
from .errors import NumericRangeError


@dataclass(frozen=True)
class LiftedKernel:
    """Lift coordinates g[i] = i! * kappa[i] and the feedback weight beta."""

    g: np.ndarray
    beta: float

    @property
    def n(self) -> int:
        return len(self.g) - 1

    def reconstruct(self, t: float) -> float:
        """sum_i g[i] t**i / i!, which must reproduce the polynomial kernel."""
        acc = 0.0
        fact = 1.0
        for i, gi in enumerate(self.g):
            if i > 0:
                fact *= i
            acc += gi * t**i / fact
        return acc


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


def lift_kernel(bk: BernsteinKernel, beta: float) -> LiftedKernel:
    """Lift a Bernstein-approximated kernel."""
    return lift_from_coefficients(bk.kappa, beta)


def apply_abar(lk: LiftedKernel, z) -> np.ndarray:
    """Apply Abar to a coordinate vector z (indices 0..L); output has L + 2 entries.

    The shift moves z[i] to index i + 1; index 0 receives the rank-one
    feedback -beta * <g, z>.
    """
    z = np.asarray(z, dtype=float)
    out = np.zeros(len(z) + 1)
    out[1:] = z
    m = min(len(z), len(lk.g))
    out[0] = -lk.beta * float(np.dot(lk.g[:m], z[:m]))
    return out


@dataclass(frozen=True)
class GammaTable:
    """Triangular array gamma(i, k), 0 <= i <= k <= M, with Abar^k nu = sum_i gamma(i,k) e_i."""

    gamma: np.ndarray
    M: int

    def value(self, i: int, k: int) -> float:
        if not 0 <= i <= k <= self.M:
            raise NumericRangeError(f"gamma index (i={i}, k={k}) outside triangle M={self.M}")
        return float(self.gamma[i, k])

    def column(self, k: int) -> np.ndarray:
        """Coordinates of Abar^k nu (length k + 1)."""
        return self.gamma[: k + 1, k].copy()


def gamma_table(lk: LiftedKernel, M: int) -> GammaTable:
    """Fill the gamma recursion up to truncation order M.

    gamma(0, 0) = 1; for k >= 1 the shift gives gamma(i, k) = gamma(i-1, k-1)
    for i = 1..k, and the feedback gives
    gamma(0, k) = -beta * sum_{j <= min(n, k-1)} g[j] * gamma(j, k-1).
    """
    if M < 0:
        raise NumericRangeError(f"truncation order must be nonnegative, got {M}")
    n = lk.n
    G = np.zeros((M + 1, M + 1))
    G[0, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # the check below raises instead
        for k in range(1, M + 1):
            G[1 : k + 1, k] = G[0:k, k - 1]
            jmax = min(n, k - 1)
            G[0, k] = -lk.beta * float(np.dot(lk.g[: jmax + 1], G[: jmax + 1, k - 1]))
            if not math.isfinite(G[0, k]):
                raise NumericRangeError("gamma overflow; reduce M or n")
    return GammaTable(gamma=G, M=M)


def operator_norm_bound(lk: LiftedKernel) -> float:
    """Upper bound on the operator norm of Abar.

    The shift is an isometry and the rank-one feedback has norm beta * |g|
    (nu is a unit vector), so 1 + beta * |g| dominates.
    """
    return 1.0 + lk.beta * float(np.sqrt(np.dot(lk.g, lk.g)))


def truncated_exp_inner(lk: LiftedKernel, table: GammaTable, s: float, M: int | None = None) -> float:
    """<g, sum_{k<=M} s**k / k! Abar^k nu> for s >= 0."""
    if M is None:
        M = table.M
    if M > table.M:
        raise NumericRangeError(f"M={M} exceeds table order {table.M}")
    if s < 0.0:
        raise NumericRangeError(f"s must be nonnegative, got {s}")
    n = lk.n
    total = 0.0
    weight = 1.0  # s**k / k!
    for k in range(M + 1):
        if k > 0:
            weight *= s / k
        m = min(n, k)
        total += weight * float(np.dot(lk.g[: m + 1], table.gamma[: m + 1, k]))
    return total
