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
g[i] z**i, its generating function is 1 - beta r, r = z G / (1 + beta z G),
and the control downstream is read off r too.  r comes from ``_resolvent``,
the package's one power-series quotient A / (1 + h A), with A = z G, h = beta.
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


def _resolvent(a: np.ndarray, beta_dt: float) -> np.ndarray:
    """r[m] (1 + beta dt a[0]) = a[m] - beta dt sum_{l=1}^{m} a[l] r[m-l].

    As power series R = A / (1 + beta dt A).  For the first column ``a`` of
    a quadrature's lower-triangular Toeplitz matrix T, r is the first column
    of (I + beta dt T)^{-1} T, the discrete resolvent.  Block forward
    substitution in blocks of w = 64 entries: r[:w] by the scalar recursion
    above; since 1 / (1 + beta dt A) = 1 - beta dt R, q = e_0 - beta dt r[:w]
    is the first column of (I + beta dt T_w)^{-1}, so each later block [k0,
    k1) is q * (a[k0:k1] - sum_{j<k0} (beta dt a)[m-j] r[j]), two
    convolutions.  With beta dt folded into the column first, r is a bit for
    bit at beta == 0, even where a * r overflows.  The blocks sit at fixed
    offsets, so r of a prefix of a is the prefix of r, bit for bit, and a
    column of at most w entries gives the scalar recursion's bits.  Cost:
    N**2 / 2 multiply-adds in C.
    """
    pivot = 1.0 + beta_dt * a[0]
    if pivot == 0.0:
        raise NumericRangeError("singular step in the Volterra recursion")
    n = len(a)
    w = min(64, n)  # block width: narrower pays Python per block, wider a longer scalar loop
    r = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):  # the caller rejects non-finite states
        ha = beta_dt * a
        ba = ha[w - 1 :: -1].copy()  # ba[w - 1 - l] = beta dt a[l]: one forward dot per step
        r[0] = a[0] / pivot
        for m in range(1, w):
            r[m] = (a[m] - np.dot(r[:m], ba[w - 1 - m : w - 1])) / pivot
        q = -beta_dt * r[:w]
        q[0] += 1.0
        for k0 in range(w, n, w):
            k1 = min(k0 + w, n)
            rhs = a[k0:k1] - np.convolve(ha[1:k1], r[:k0], "valid")
            r[k0:k1] = np.convolve(q[: k1 - k0], rhs)[: k1 - k0]
    return r


def _lift_resolvent(lk: LiftedKernel, M: int) -> np.ndarray:
    """r[0..M+1] of r = z G / (1 + beta z G): ``_resolvent`` of the column
    (0, g[0], .., g[n], 0, ..) with h = beta.  A non-finite r raises."""
    if M < 0:
        raise NumericRangeError(f"truncation order must be nonnegative, got {M}")
    a = np.zeros(M + 2)
    a[1 : lk.n + 2] = lk.g[: M + 1]
    r = _resolvent(a, lk.beta)
    if not np.all(np.isfinite(r)):
        raise NumericRangeError("lift power series overflows; reduce M or n")
    return r


def gamma_table(lk: LiftedKernel, M: int) -> np.ndarray:
    """gamma(0, k) for k = 0..M, the index-0 coordinate of Abar^k nu: e_0 -
    beta r[:M+1] (see the module docstring), with r of ``_lift_resolvent``."""
    r = _lift_resolvent(lk, M)
    return np.eye(1, M + 1)[0] - lk.beta * r[: M + 1]


def operator_norm_bound(lk: LiftedKernel) -> float:
    """Upper bound on the operator norm of Abar.

    The shift is an isometry and the rank-one feedback has norm beta * |g|
    (nu is a unit vector), so 1 + beta * |g| dominates.  At beta == 0 that
    is 1 even where |g| overflows.
    """
    if lk.beta == 0.0:
        return 1.0
    return 1.0 + lk.beta * float(np.sqrt(np.dot(lk.g, lk.g)))
