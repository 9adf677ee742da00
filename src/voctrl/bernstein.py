"""Bernstein polynomial approximation of a kernel.

The degree-n Bernstein polynomial of K on [0, T],

    K_n(t) = sum_k K(T k / n) C(n, k) (t/T)**k (1 - t/T)**(n-k),

interpolates K at both endpoints, inherits K's Holder constant, and for an
h-Holder kernel satisfies the uniform bound

    sup |K - K_n| <= holder_H * T**h * 2**(-h) * n**(-h/2).

K_n is a ``PolynomialKernel``: its monomial coefficients kappa
(K_n(t) = sum_k kappa[k] t**k, the kernel's ``coeffs``) are what make it
liftable, so they are the main product here.  It evaluates from its node
values in the Bernstein form, by Horner's rule from the nearer endpoint
(see ``BernsteinKernel._value``), not from kappa.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericRangeError
from .kernels import Kernel, PolynomialKernel, _horner

#: largest approximation degree with trustworthy double-precision coefficients;
#: k! * kappa[k] magnitudes degrade quickly beyond this.
N_CAP = 25


def _forward_differences(values):
    """All forward differences Delta^k[values](0), k = 0..n.

    Every double is p / 2**e, so over the largest denominator the samples
    are integers: the difference table is kept exact in Python ints and each
    Delta^k is rounded to a double once (int / int rounds correctly), so the
    alternating cancellation adds no rounding error to the kernel samples as
    given.  Every sample must be finite.
    """
    ratios = [float(v).as_integer_ratio() for v in values]
    den = max((d for _, d in ratios), default=1)
    row = [p * (den // d) for p, d in ratios]
    out = []
    while row:
        out.append(row[0] / den)
        row = [b - a for a, b in zip(row, row[1:])]
    return out


@dataclass(frozen=True, kw_only=True)
class BernsteinKernel(PolynomialKernel):
    """Degree-n Bernstein approximation of a source kernel: a polynomial kernel
    whose monomial coefficients ``coeffs`` are kappa, length n + 1.

    Attributes
    ----------
    node_values : numpy.ndarray
        K(T k / max(n, 1)) for k = 0..n; basis-form evaluation runs on these.
    n : int
        Approximation degree, read off the nodes: len(node_values) - 1.
    """

    node_values: np.ndarray
    n = property(lambda self: len(self.node_values) - 1)  # read-only, so it cannot disagree

    # the class's own attribute, so perfbench's tracer times K_n apart from other kernels
    __call__ = Kernel.__call__

    def _value(self, t):
        """K_n(t) by Horner's rule in the Bernstein form, from the nearer endpoint.

        With x = t/T and f_k = ``node_values``, for x <= 1/2

            K_n = f_0 + (1 - x)**n * sum_k C(n, k) (f_k - f_0) s**k,   s = x/(1 - x),

        and for x > 1/2 the mirror image about f_n, with s = (1 - x)/x, each
        sum by ``kernels._horner``.  So s <= 1 on both halves, constants come
        out exactly, and K_n(0) = f_0, K_n(T) = f_n bit for bit.  The error is
        at most a small multiple of n * eps * (sum_k |f_k| B_k(x) + |f_e|), f_e
        the half's endpoint value (Farouki & Rajan, CAGD 4, 1987).  The node
        values are scaled by a power of two, exactly, whenever the weights or
        the Horner sums (up to 2**(n+1) max |f_k|) could overflow.
        """
        n = self.n
        top = math.frexp(float(np.abs(self.node_values).max()))[1]
        e = max(0, top + n + 2 - 1023)
        f = np.ldexp(self.node_values, -e)
        binom = np.array([float(math.comb(n, k)) for k in range(n + 1)])
        x = t / self.T
        y = 1.0 - x
        low = x <= 0.5
        out = np.empty_like(x)
        for half, near, far, f_e, w in ((low, y, x, f[0], binom * (f - f[0])),
                                        (~low, x, y, f[n], (binom * (f - f[n]))[::-1])):
            a = near[half]
            out[half] = _horner(w, far[half] / a) * a**n + f_e
        out *= math.ldexp(1.0, e)
        return out


def bernstein_kernel(source: Kernel, n: int) -> BernsteinKernel:
    """Build the degree-n Bernstein approximation of ``source``.

    The monomial coefficients are, with f_k = K(T k / max(n, 1)),

        kappa[k] = C(n, k) * Delta^k[f](0) / T**k,

    the forward-difference form of the alternating binomial sum; the two are
    algebraically identical, but the differences are exact and rounded once.
    At n = 0 the one node is t = 0, so K_0 is the constant K(0).  A node
    value that is not finite raises ``NumericRangeError`` naming the node.
    """
    if n < 0:
        raise NumericRangeError(f"degree must be nonnegative, got {n}")
    if n > N_CAP:
        raise NumericRangeError(f"degree {n} exceeds numerically stable cap {N_CAP}")
    T = source.T
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing node is rejected below
        nodes = T * np.arange(n + 1) / max(n, 1)
        vals = source(nodes)
    bad = ~np.isfinite(vals)
    if bad.any():
        k = int(np.argmax(bad))
        raise NumericRangeError(f"Bernstein coefficients of degree {n} out of range: kernel value "
                                f"{vals[k]} at node {k} (t = {nodes[k]:.6g})")
    try:
        diffs = _forward_differences(vals)
        kappa = np.array([math.comb(n, k) * diffs[k] / T**k for k in range(n + 1)])
    except ArithmeticError as exc:  # T**k out of range
        raise NumericRangeError(f"Bernstein coefficients of degree {n} out of range: {exc}") from None
    if not np.all(np.isfinite(kappa)):
        raise NumericRangeError("non-finite Bernstein coefficients")
    return BernsteinKernel(T=T, coeffs=kappa, node_values=vals)


@dataclass(frozen=True)
class ApproximationReport:
    """sup |K - K_n| and its bound, with the uniform grid and both curves on it."""

    sup_error: float
    bound: float
    ts: np.ndarray
    exact: np.ndarray
    approx: np.ndarray


def uniform_error_report(source: Kernel, n: int, grid_points: int = 400) -> ApproximationReport:
    """Measured sup |K - K_n| on a uniform grid, next to the theoretical bound.

    The bound is holder_H * T**h * 2**(-h) * n**(-h/2) from the kernel's
    Holder metadata; the measured error must never exceed it.
    """
    if grid_points < 2:
        raise NumericRangeError(f"grid_points must be >= 2, got {grid_points}")
    bk = bernstein_kernel(source, n)
    ts = np.linspace(0.0, source.T, grid_points)
    approx = bk(ts)
    exact = source(ts)
    sup_error = float(np.abs(exact - approx).max())
    h, H = source.holder_metadata()
    bound = math.inf if n == 0 else H * source.T**h * 2.0**-h * n ** (-h / 2.0)
    return ApproximationReport(sup_error=sup_error, bound=bound, ts=ts, exact=exact, approx=approx)
