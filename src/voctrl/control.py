"""Near-optimal advertising controls in closed form.

For the lifted problem the optimal spend is deterministic,

    u(t) = (alpha * a2 / (2 a1)) * <g, e^{(T-t) Abar} nu>,

and truncating the operator exponential at order M turns it into an explicit
polynomial in (T - t):

    u_{n,M}(t) = scale * sum_{k<=M} c_k (T-t)**k,

where k! c_k = sum_i g[i] gamma(0, k - i), the coefficients of G(z) / (1 +
beta z G(z)), is r[k + 1] of the lift's quotient r = z G / (1 + beta z G).
Untruncated, the control is the resolvent of K_n read backwards from T:
R(s) = u(T - s) / scale solves R = K_n - beta * (K_n conv R).

The dynamic-programming equation behind this is never discretized; its
solution is affine in the state, v(t, z) = <w(t), z> + c(t), and only the
scalar trace <w(s), nu> = -(2 a1 / alpha) u(s) is ever needed, so the value
at time zero reduces to a one-dimensional quadrature over u.

The lift needs a polynomial kernel; ``on_kn`` is the one place that poses a
problem on its degree-n polynomial K_n.

For a pure monomial kernel t**N the exponential sums in closed form to a
Mittag-Leffler expression, which serves as the exact reference everywhere.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .bernstein import bernstein_kernel
from .errors import DomainError, NumericRangeError
from .kernels import Kernel, MonomialKernel, PolynomialKernel, _check_time, _horner
from .lift import LiftedKernel, _lift_resolvent, lift_from_coefficients, operator_norm_bound
from .mittag_leffler import mittag_leffler

#: hard cap for automatic truncation-order selection.
M_MAX = 200


@dataclass(frozen=True, kw_only=True)
class ControlProblem:
    """Advertising problem data.

    Attributes
    ----------
    alpha : float
        Advertising effectiveness (drift weight of the spend), > 0.
    beta : float
        Forgetting rate (mean reversion), >= 0; zero disables the feedback.
    sigma : float
        Noise scale, >= 0.
    a1 : float
        Quadratic spend-cost weight, > 0.
    a2 : float
        Terminal goodwill reward weight, > 0.
    x0 : float
        Initial goodwill.
    kernel : Kernel
        Memory kernel of the dynamics; its horizon is the problem horizon.
    """

    alpha: float
    beta: float
    sigma: float
    a1: float
    a2: float
    x0: float
    kernel: Kernel

    def __post_init__(self):
        for name in ("alpha", "a1", "a2"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be positive and finite, got {getattr(self, name)}")
        # beta = 0 (no forgetting) is admissible: the lift degenerates to the
        # pure shift and the simulator drops its feedback term
        for name in ("beta", "sigma"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be nonnegative and finite, got {getattr(self, name)}")
        if not math.isfinite(self.x0):
            raise DomainError(f"x0 must be finite, got {self.x0}")

    @property
    def T(self) -> float:
        return self.kernel.T

    @property
    def scale(self) -> float:
        """Common prefactor alpha * a2 / (2 a1) of the optimal control."""
        return self.alpha * self.a2 / (2.0 * self.a1)


@dataclass(frozen=True)
class ControlPolynomial:
    """u_{n,M}(t) = scale * sum_k coeffs[k] * (T - t)**k.

    ``trunc_bound_at_0`` is the worst-case truncation error over [0, T]
    (attained at t = 0); it is only finite when ``bound_valid`` is set, i.e.
    when M >= T * (operator norm bound), the hypothesis under which the tail
    estimate applies.
    """

    scale: float
    coeffs: np.ndarray
    M: int
    n: int
    T: float
    trunc_bound_at_0: float
    bound_valid: bool

    def __call__(self, t):
        """u(t) for a time (returns a float) or an array of times (returns an array)."""
        ts = _check_time(t, self.T)
        out = self.scale * _horner(self.coeffs, self.T - np.atleast_1d(ts))
        return float(out[0]) if np.ndim(ts) == 0 else out


def on_kn(problem: ControlProblem, n: int) -> ControlProblem:
    """The problem posed on its degree-n polynomial kernel K_n.

    A ``PolynomialKernel``, a ``BernsteinKernel`` included, is its own K_n
    whatever n is, so its problem comes back unchanged.  Any other kernel,
    ``MonomialKernel`` included, is replaced by ``bernstein_kernel(kernel, n)``.
    """
    if isinstance(problem.kernel, PolynomialKernel):
        return problem
    return replace(problem, kernel=bernstein_kernel(problem.kernel, n))


def lift_for_problem(problem: ControlProblem, n: int) -> LiftedKernel:
    """The exact lift of the problem posed on K_n (see ``on_kn``)."""
    return lift_from_coefficients(on_kn(problem, n).kernel.coeffs, problem.beta)


def _over_factorial(x: float, k: int) -> float:
    """x / k!, correctly rounded; k! itself overflows a double from k = 171 on."""
    p, q = x.as_integer_ratio()
    return p / (q * math.factorial(k))


def optimal_control_poly(problem: ControlProblem, n: int, M: int) -> ControlPolynomial:
    """Assemble the truncated near-optimal control for lift degree n, order M."""
    lk = lift_for_problem(problem, n)
    a = _lift_resolvent(lk, M)[1:]  # a[k] = k! c_k
    coeffs = np.array([_over_factorial(a_k, k) for k, a_k in enumerate(a)])
    T = problem.T
    valid = M >= T * operator_norm_bound(lk)
    bound = problem.scale * truncation_error_bound(lk, T, 0.0, M) if valid else math.inf
    return ControlPolynomial(
        scale=problem.scale,
        coeffs=coeffs,
        M=M,
        n=lk.n,
        T=T,
        trunc_bound_at_0=bound,
        bound_valid=valid,
    )


def truncation_error_bound(lk: LiftedKernel, T: float, t: float, M: int) -> float:
    """Tail bound |u_n(t) - u_{n,M}(t)| / scale for M >= (T-t) * norm bound.

    Uses |g| * exp(x) * (1 - exp(-x / (M+1))) with x = (T - t) * |Abar|,
    |Abar| replaced by its upper bound (the expression is monotone in the
    norm, so the bound stays valid).
    """
    nb = operator_norm_bound(lk)
    x = (T - t) * nb
    if M < x:
        raise NumericRangeError(
            f"M={M} below operator-norm threshold {x:.6g}; the tail bound needs M >= (T-t)*|Abar|"
        )
    with np.errstate(over="ignore"):  # |g|**2 past the float range: an infinite bound still holds
        gnorm = float(np.sqrt(np.dot(lk.g, lk.g)))
    return gnorm * math.exp(x) * -math.expm1(-x / (M + 1))


def choose_M(lk: LiftedKernel, T: float, tol: float) -> int:
    """Smallest admissible M with truncation_error_bound(lk, T, 0, M) <= tol.

    Starts at ceil(T * norm bound) (below that the bound does not apply) and
    gives up at M_MAX; lifts with large coefficient norm can make the bound
    unreachable, in which case an explicit M must be chosen by hand.
    """
    if not tol > 0.0:
        raise NumericRangeError(f"tolerance must be positive, got {tol}")
    start = max(0, math.ceil(T * operator_norm_bound(lk)))
    for M in range(start, M_MAX + 1):
        if truncation_error_bound(lk, T, 0.0, M) <= tol:
            return M
    raise NumericRangeError(f"tolerance {tol} unreachable at M <= {M_MAX}")


def monomial_closed_form(problem: ControlProblem, t):
    """Exact optimal control for K(t) = t**N via the Mittag-Leffler function:

        scale * N! * (T-t)**N * E_{N+1,N+1}(-beta * N! * (T-t)**(N+1)),

    for a time (returns a float) or an array of times (returns an array), each
    value in scalar ``math``, so an array entry equals the scalar call bit for bit.
    """
    if not isinstance(problem.kernel, MonomialKernel):
        raise DomainError("closed form undefined: kernel is not a monomial")
    N = problem.kernel.degree
    T = problem.T
    fN = float(math.factorial(N))
    ts = _check_time(t, T)
    u = [problem.scale * fN * s**N * mittag_leffler(-problem.beta * fN * s ** (N + 1), N + 1, N + 1)
         for s in map(float, np.ravel(T - ts))]
    return u[0] if np.ndim(ts) == 0 else np.reshape(u, np.shape(ts))


@dataclass(frozen=True)
class ValueFunctionReport:
    """Value-function constant at time zero and the induced optimum of the objective."""

    c0: float
    predicted_optimal_J: float


def value_function(problem: ControlProblem, control: ControlPolynomial) -> ValueFunctionReport:
    """Closed-form value function evaluated by quadrature over the control.

    With <w(s), nu> = -(2 a1 / alpha) u(s), the time-zero constant is

        c0 = int_0^T (2 a1 beta x0 u(s) / alpha - a1 u(s)**2) ds,

    computed with composite Simpson on 1000 intervals (the integrand is a
    smooth polynomial, so the fixed rule is already negligible error).  The
    predicted optimum of the maximization problem is a2 * x0 - c0.  A
    non-finite c0 raises ``NumericRangeError``.
    """
    n_intervals = 1000  # even, as composite Simpson needs
    ts = np.linspace(0.0, problem.T, n_intervals + 1)
    u = control(ts)
    weights = np.ones(n_intervals + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite c0 is rejected below
        integrand = 2.0 * problem.a1 * problem.beta * problem.x0 * u / problem.alpha - problem.a1 * u**2
        c0 = float(problem.T / n_intervals / 3.0 * np.dot(weights, integrand))
    if not np.isfinite(c0):
        raise NumericRangeError("the value function's constant c0 is out of floating-point range")
    return ValueFunctionReport(c0=c0, predicted_optimal_J=problem.a2 * problem.x0 - c0)
