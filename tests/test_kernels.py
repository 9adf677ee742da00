import math

import numpy as np
import pytest

from voctrl import (
    ControlProblem,
    DomainError,
    FractionalKernel,
    GammaKernel,
    MetadataError,
    MonomialKernel,
    PolynomialKernel,
    TabulatedKernel,
    TimeGrid,
    bernstein_kernel,
    optimal_control_poly,
)

from .conftest import uniform_grid


def test_monomial_evaluation():
    k = MonomialKernel(T=2.0, degree=2)
    assert k(1.5) == 2.25


def test_monomial_degree_zero_is_constant_one():
    k = MonomialKernel(T=2.0, degree=0)
    assert k(0.0) == 1.0
    assert k(1.7) == 1.0


def test_fractional_at_zero():
    k = FractionalKernel(T=2.0, exponent=0.3)
    assert k(0.0) == 0.0


def test_gamma_value_at_one():
    # e^{-t} t^{0.3} at t = 1 is exp(-1)
    k = GammaKernel(T=2.0, rate=1.0, exponent=0.3)
    assert k(1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_polynomial_matches_numpy_polyval():
    coeffs = (0.5, -1.25, 2.0, 0.75)
    k = PolynomialKernel(T=2.0, coeffs=coeffs)
    for t in uniform_grid(2.0, 17):
        assert k(t) == pytest.approx(np.polyval(coeffs[::-1], t), rel=1e-14)


def test_polynomial_in_place_horner_keeps_every_bit():
    kappa = bernstein_kernel(FractionalKernel(T=2.0, exponent=0.3), 20).coeffs
    t = TimeGrid(T=2.0, dt=0.001).nodes
    acc = 0.0
    for c in reversed(kappa):
        acc = acc * t + c
    assert np.array_equal(PolynomialKernel(T=2.0, coeffs=tuple(kappa))(t), acc)


def test_array_fields_are_read_only_copies():
    coeffs, times, values = np.array([1.0, 2.0]), np.array([0.0, 2.0]), np.array([1.0, 0.0])
    kernels = (PolynomialKernel(T=2.0, coeffs=coeffs),
               TabulatedKernel(T=2.0, times=times, values=values, holder_h=1.0, holder_H=1.0))
    coeffs[0] = times[1] = values[0] = 5.0  # the caller's arrays stay the caller's
    assert kernels[0](0.0) == 1.0 and kernels[1](0.0) == 1.0
    for arr in (kernels[0].coeffs, kernels[1].times, kernels[1].values):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_tabulated_linear_interpolation():
    k = TabulatedKernel(T=2.0, times=(0.0, 1.0, 2.0), values=(0.0, 1.0, 0.5),
                        holder_h=1.0, holder_H=1.0)
    assert k(0.5) == 0.5
    assert k(1.5) == 0.75
    assert k(2.0) == 0.5


def test_tabulated_validation():
    with pytest.raises(DomainError):
        TabulatedKernel(T=2.0, times=(0.0, 1.0, 0.5), values=(0.0, 1.0, 2.0))
    with pytest.raises(DomainError):
        TabulatedKernel(T=2.0, times=(0.1, 1.0, 2.0), values=(0.0, 1.0, 2.0))
    with pytest.raises(DomainError):
        TabulatedKernel(T=2.0, times=(0.0, 1.0, 1.9), values=(0.0, 1.0, 2.0))


def test_domain_errors():
    k = MonomialKernel(T=2.0, degree=1)
    with pytest.raises(DomainError):
        k(-0.1)
    with pytest.raises(DomainError):
        k(2.1)
    # grid nodes built as i*dt may overshoot T by a few ulps
    assert k(2.0 + 1e-13) == 2.0


@pytest.mark.parametrize("kernel,expected", [
    (FractionalKernel(T=2.0, exponent=0.3), (0.3, 1.0)),
    (MonomialKernel(T=2.0, degree=1), (1.0, 1.0)),
    (MonomialKernel(T=2.0, degree=2), (1.0, 4.0)),  # sup of 2t on [0, 2]
    (MonomialKernel(T=2.0, degree=0), (1.0, 1.0)),
    (GammaKernel(T=2.0, rate=1.0, exponent=0.3), (0.3, 1.0 + 2.0**0.3)),
    (GammaKernel(T=2.0, rate=0.1, exponent=0.3), (0.3, 1.0 + 0.2**0.3)),  # 1 + (rate T)**h
    (GammaKernel(T=10.0, rate=3.0, exponent=0.3), (0.3, 1.0 + 30.0**0.3)),
    (FractionalKernel(T=2.0, exponent=1.1), (1.0, 1.1 * 2.0**0.1)),  # sup of 1.1 t**0.1
    (FractionalKernel(T=2.0, exponent=2.5), (1.0, 2.5 * 2.0**1.5)),
    (MonomialKernel(T=1e10, degree=31), (1.0, 31 * 1e10**30)),  # T**31 would overflow
])
def test_default_holder_metadata(kernel, expected):
    h, H = kernel.holder_metadata()
    assert h == pytest.approx(expected[0], rel=1e-15)
    assert H == pytest.approx(expected[1], rel=1e-15)


def test_metadata_required_errors():
    with pytest.raises(MetadataError):
        PolynomialKernel(T=2.0, coeffs=(0.0, 1.0)).holder_metadata()
    with pytest.raises(MetadataError):
        TabulatedKernel(T=2.0, times=(0.0, 2.0), values=(0.0, 1.0)).holder_metadata()


def test_rate_zero_values_are_plain_powers():
    # the family's one formula exp(-rate t) t**h: exp(-0 t) is exactly 1
    t = np.concatenate([[0.0, 5e-324, 1e-300], TimeGrid(T=2.0, dt=0.005).nodes])
    for h in (0.1, 0.3, 0.5, 0.99, 1.1, 2.5):
        assert np.array_equal(FractionalKernel(T=2.0, exponent=h)(t), t**h)
    for N in (0, 1, 2, 3, 5, 7):
        assert np.array_equal(MonomialKernel(T=2.0, degree=N)(t), t**N)


def test_explicit_metadata_wins():
    k = FractionalKernel(T=2.0, exponent=0.3, holder_h=0.25, holder_H=3.0)
    assert k.holder_metadata() == (0.25, 3.0)


def test_invalid_parameters():
    with pytest.raises(DomainError):
        MonomialKernel(T=-1.0, degree=2)
    with pytest.raises(DomainError):
        FractionalKernel(T=2.0, exponent=-0.3)
    with pytest.raises(DomainError):
        GammaKernel(T=2.0, rate=0.0, exponent=0.3)
    with pytest.raises(DomainError):
        MonomialKernel(T=2.0, degree=2, holder_h=1.5)
    # half a Holder pair is refused, not dropped for the family default
    with pytest.raises(DomainError, match="holder_H is missing"):
        FractionalKernel(T=2.0, exponent=0.3, holder_h=0.2)
    with pytest.raises(DomainError, match="holder_h is missing"):
        FractionalKernel(T=2.0, exponent=0.3, holder_H=5.0)


@pytest.mark.parametrize("make", [
    lambda: MonomialKernel(T=math.inf, degree=2),
    lambda: FractionalKernel(T=math.nan, exponent=0.3),
    lambda: FractionalKernel(T=2.0, exponent=math.inf),
    lambda: GammaKernel(T=2.0, rate=math.inf, exponent=0.3),
    lambda: FractionalKernel(T=2.0, exponent=0.3, holder_h=0.3, holder_H=math.inf),
], ids=["T=inf", "T=nan", "exponent=inf", "rate=inf", "holder_H=inf"])
def test_non_finite_parameters_are_rejected(make):
    with pytest.raises(DomainError, match="must be finite"):
        make()


def _shipped_kernels():
    return [
        FractionalKernel(T=2.0, exponent=0.3),
        FractionalKernel(T=2.0, exponent=1.1),
        FractionalKernel(T=2.0, exponent=2.5),
        GammaKernel(T=2.0, rate=1.0, exponent=0.3),
        MonomialKernel(T=2.0, degree=1),
        MonomialKernel(T=2.0, degree=2),
        TabulatedKernel(T=2.0, times=(0.0, 0.5, 1.0, 2.0), values=(0.0, 0.6, 0.9, 1.1),
                        holder_h=1.0, holder_H=1.2),
    ]


def holder_margin(kernel, grid_points: int = 200) -> float:
    """Worst slack of the sampled Holder inequality on a uniform grid.

    Returns min over grid pairs of H*|t-s|**h - |K(t)-K(s)|; nonnegative
    means the metadata is consistent with the sampled kernel.
    """
    h, H = kernel.holder_metadata()
    ts = np.linspace(0.0, kernel.T, grid_points)
    vals = kernel(ts)
    dv = np.abs(vals[:, None] - vals[None, :])
    dt = np.abs(ts[:, None] - ts[None, :])
    mask = ~np.eye(grid_points, dtype=bool)
    return float((H * dt[mask] ** h - dv[mask]).min())


@pytest.mark.parametrize("kernel", [
    *_shipped_kernels(),
    pytest.param(GammaKernel(T=2.0, rate=0.1, exponent=0.3), id="GammaKernel-rate0.1"),
    pytest.param(GammaKernel(T=10.0, rate=3.0, exponent=0.3), id="GammaKernel-rate3"),
], ids=lambda k: type(k).__name__)
def test_sampled_holder_inequality(kernel):
    # min over 200-grid pairs of H|t-s|^h - |K(t)-K(s)| must be nonnegative
    assert holder_margin(kernel, 200) >= -1e-12


@pytest.mark.parametrize("kernel", _shipped_kernels(), ids=lambda k: type(k).__name__)
def test_pointwise_continuity(kernel):
    # increments over delta are controlled by the Holder modulus H delta^h
    # (kernels with a cusp at zero are continuous but nothing better)
    delta = 1e-6
    h, H = kernel.holder_metadata()
    for t in uniform_grid(kernel.T - delta, 50):
        assert abs(kernel(t + delta) - kernel(t)) <= H * delta**h * (1.0 + 1e-9)


ROUGH = FractionalKernel(T=2.0, exponent=0.3)
EVALUATORS = {
    "t^0": MonomialKernel(T=2.0, degree=0),
    "t^3": MonomialKernel(T=2.0, degree=3),
    "t^0.3": ROUGH,
    "t^1.1": FractionalKernel(T=2.0, exponent=1.1, holder_h=1.0, holder_H=1.1 * 2.0**0.1),
    "gamma": GammaKernel(T=2.0, rate=1.0, exponent=0.3),
    "polynomial": PolynomialKernel(T=2.0, coeffs=(0.5, -1.25, 2.0, 0.75)),
    "tabulated": TabulatedKernel(T=2.0, times=(0.0, 0.5, 1.0, 2.0), values=(0.0, 0.6, 0.9, 1.1),
                                 holder_h=1.0, holder_H=1.2),
    "bernstein": bernstein_kernel(ROUGH, 20),
    "control": optimal_control_poly(
        ControlProblem(alpha=1.0, beta=1.0, sigma=1.0, a1=1.0, a2=1.0, x0=0.0, kernel=ROUGH), 20, 50),
}


@pytest.mark.parametrize("name", EVALUATORS)
def test_scalar_and_array_calls_agree_bitwise(name):
    f = EVALUATORS[name]
    nodes = TimeGrid(T=2.0, dt=0.001).nodes
    values = f(nodes)
    assert isinstance(values, np.ndarray) and values.shape == nodes.shape
    scalars = [f(t) for t in nodes]
    assert all(type(v) is float for v in scalars)
    assert np.array_equal(values, np.array(scalars))


@pytest.mark.parametrize("name", EVALUATORS)
def test_array_outside_domain_names_the_entry(name):
    f = EVALUATORS[name]
    with pytest.raises(DomainError, match=r"time 2\.25 outside"):
        f(np.array([0.0, 1.0, 2.25, -0.5]))
    with pytest.raises(DomainError, match=r"time -0\.5 outside"):
        f(np.array([0.0, -0.5, 1.0]))


@pytest.mark.parametrize("name", EVALUATORS)
def test_array_overshoot_of_a_few_ulps_is_clamped(name):
    f = EVALUATORS[name]
    over = 2.0 + 4 * np.spacing(2.0)
    under = -1e-12
    assert np.array_equal(f(np.array([under, 1.0, over])), f(np.array([0.0, 1.0, 2.0])))
    assert f(over) == f(2.0)


@pytest.mark.parametrize("name", EVALUATORS)
def test_domain_slack_is_1e_9_of_max_1_T(name):
    # T = 2: times up to 2e-9 outside [0, 2] are clamped, further out raise
    f = EVALUATORS[name]
    assert f(2.0 + 1.5e-9) == f(2.0) and f(-1.5e-9) == f(0.0)
    for t in (2.0 + 2.5e-9, -2.5e-9):
        with pytest.raises(DomainError, match="outside"):
            f(t)
