import sys
from dataclasses import dataclass, field

import numpy as np
import pytest
from scipy.linalg import toeplitz

import voctrl.objective
import voctrl.simulate
from voctrl import ControlProblem, FractionalKernel, GammaKernel, MonomialKernel


@pytest.fixture(autouse=True)
def no_kept_oracle():
    """Every test starts without a kept ``lq_oracle`` answer, so none passes
    or fails by the order the tests run in."""
    voctrl.objective._last_oracle = None


def make_problem(kernel, alpha=1.0, beta=1.0, sigma=1.0, a1=1.0, a2=1.0, x0=0.0):
    return ControlProblem(alpha=alpha, beta=beta, sigma=sigma, a1=a1, a2=a2, x0=x0, kernel=kernel)


@pytest.fixture
def fractional_kernel():
    return FractionalKernel(T=2.0, exponent=0.3)


@pytest.fixture
def smooth_kernel():
    # t**1.1 is differentiable, so Lipschitz metadata with the sup of the
    # derivative 1.1 * T**0.1 must be supplied explicitly
    return FractionalKernel(T=2.0, exponent=1.1, holder_h=1.0, holder_H=1.1 * 2.0**0.1)


@pytest.fixture
def gamma_kernel():
    return GammaKernel(T=2.0, rate=1.0, exponent=0.3)


@pytest.fixture
def square_kernel():
    return MonomialKernel(T=2.0, degree=2)


def trapezoid_operator(ktab, dt):
    """Dense lower-triangular trapezoidal product-quadrature operator A of
    the scheme: row i discretizes int_0^{t_i} K(t_i - s) f(s) ds with half
    weights on column 0 and on the diagonal; row 0 is empty."""
    n_steps = len(ktab) - 1
    A = dt * toeplitz(ktab, np.zeros(n_steps + 1))
    A[1:, 0] *= 0.5
    A[np.arange(1, n_steps + 1), np.arange(1, n_steps + 1)] *= 0.5
    A[0] = 0.0
    return A


def grid_sup(f, g, ts):
    return max(abs(f(t) - g(t)) for t in ts)


def uniform_grid(T, n):
    return np.linspace(0.0, T, n)


@dataclass(frozen=True, kw_only=True)
class CountingKernel(FractionalKernel):
    """t**exponent that records the shape of every argument it is called with."""

    shapes: list = field(default_factory=list)

    def __call__(self, t):
        self.shapes.append(np.shape(t))
        return super().__call__(t)


class CountingControl:
    """A control that records the shape of every argument it is called with."""

    def __init__(self, control):
        self.control = control
        self.shapes = []

    def __call__(self, t):
        self.shapes.append(np.shape(t))
        return self.control(t)


@pytest.fixture
def resolvent_calls(monkeypatch):
    """The column length of every ``_resolvent`` solve of the scheme: the
    patch is on ``voctrl.simulate``'s name, so the lift's solves in
    ``voctrl.lift`` (the control's coefficients) are not counted."""
    resolvent = voctrl.simulate._resolvent
    calls = []

    def counting(a, beta_dt):
        calls.append(len(a))
        return resolvent(a, beta_dt)

    monkeypatch.setattr(voctrl.simulate, "_resolvent", counting)
    return calls


@pytest.fixture
def bernstein_calls(monkeypatch):
    """The degree of every ``bernstein_kernel`` call, wherever voctrl holds it."""
    from voctrl.bernstein import bernstein_kernel

    calls = []

    def counting(source, n):
        calls.append(n)
        return bernstein_kernel(source, n)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "voctrl" and getattr(module, "bernstein_kernel", None) is bernstein_kernel:
            monkeypatch.setattr(module, "bernstein_kernel", counting)
    return calls
