import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import solve_triangular, toeplitz

import voctrl.simulate
from voctrl import (
    DomainError,
    FractionalKernel,
    Kernel,
    MonomialKernel,
    NumericRangeError,
    PolynomialKernel,
    SimulationError,
    TimeGrid,
    deterministic_mean,
    evaluate_J_deterministic,
    evaluate_J_mc,
    gaussian_increments,
    lq_oracle,
    optimal_control_poly,
    simulate_paths,
)
from voctrl.lift import _resolvent
from voctrl.simulate import (
    _BLOCK_PATHS,
    _control_values,
    _kernel_table,
    _terminal_states,
    _trapezoid_resolvent,
)

from .conftest import CountingControl, CountingKernel, make_problem, trapezoid_operator


def zero(t):
    return 0.0


def one(t):
    return 1.0


def test_time_grid_nodes():
    grid = TimeGrid(T=2.0, dt=0.05)
    assert grid.n_steps == 40
    assert len(grid.nodes) == 41
    assert grid.nodes[0] == 0.0
    assert abs(grid.nodes[-1] - 2.0) < 1e-12


def test_time_grid_rejects_uneven_mesh():
    with pytest.raises(DomainError):
        TimeGrid(T=1.0, dt=0.3)
    with pytest.raises(DomainError):
        TimeGrid(T=1.0, dt=-0.1)


@pytest.mark.parametrize("dt", [0.1, 0.05, 0.01])
def test_time_grid_allows_rounding_of_a_long_horizon(dt):
    # n_steps * dt - T is one ulp of T = 10000.3 for each of these meshes:
    # rounding, not an uneven mesh; a mesh off by 1e-9 T is one
    grid = TimeGrid(T=10000.3, dt=dt)
    assert grid.n_steps == round(10000.3 / dt)
    with pytest.raises(DomainError):
        TimeGrid(T=10000.3, dt=dt * (1 + 1e-9))


def test_kernel_table_allows_rounding_of_a_long_horizon():
    # the grid's T = 100003 * 0.1 is one ulp (1.8e-12) above the problem's
    # 10000.3, the rounding TimeGrid allows; a coarse mesh keeps the solve small
    problem = make_problem(FractionalKernel(T=10000.3, exponent=0.3))
    grid = TimeGrid(T=100003 * 0.1, dt=1000.03)
    assert grid.T != problem.T
    assert np.all(np.isfinite(deterministic_mean(problem, zero, grid)))
    assert np.isfinite(lq_oracle(problem, grid).j_opt)
    T = 10000.3 * (1 + 1e-9)
    with pytest.raises(DomainError, match="grid horizon does not match"):
        deterministic_mean(problem, zero, TimeGrid(T=T, dt=T / 10))


@pytest.mark.parametrize("T, dt", [(1.0, math.inf), (math.inf, 0.1), (1.0, math.nan)],
                         ids=["dt=inf", "T=inf", "dt=nan"])
def test_time_grid_rejects_non_finite_values(T, dt):
    # dt = inf would otherwise pass as a grid of zero steps
    with pytest.raises(DomainError, match="must be positive and finite"):
        TimeGrid(T=T, dt=dt)


def test_frozen_dynamics_stay_at_initial_state():
    problem = make_problem(MonomialKernel(T=2.0, degree=2), beta=0.0, sigma=0.0, x0=1.25)
    batch = simulate_paths(problem, zero, TimeGrid(T=2.0, dt=0.1), 7, seed=1)
    assert np.all(batch.paths == 1.25)


def test_constant_kernel_unit_control_integrates_time():
    # K = 1, beta = 0, u = 1: the Riemann sum of a constant is exact
    problem = make_problem(MonomialKernel(T=2.0, degree=0), beta=0.0, sigma=0.0, x0=0.5)
    grid = TimeGrid(T=2.0, dt=0.05)
    batch = simulate_paths(problem, one, grid, 3, seed=1)
    for i, t in enumerate(grid.nodes):
        assert batch.paths[0, i] == pytest.approx(0.5 + t, abs=1e-12)


@pytest.mark.parametrize("degree", [0, 1])
def test_terminal_variance_matches_ito_isometry(degree):
    # Var X(T) = int_0^T K(s)^2 ds = T^(2N+1) / (2N+1) for K = t^N
    problem = make_problem(MonomialKernel(T=2.0, degree=degree), beta=0.0, sigma=1.0, x0=0.0)
    grid = TimeGrid(T=2.0, dt=0.01)
    n_paths = 20_000
    batch = simulate_paths(problem, zero, grid, n_paths, seed=424242)
    target = 2.0 ** (2 * degree + 1) / (2 * degree + 1)
    se = target * np.sqrt(2.0 / (n_paths - 1))
    assert abs(batch.paths[:, -1].var(ddof=1) - target) <= 3.0 * se


def chunk_reference(seed, chunk, n_paths, n_steps, dt):
    """The first n_paths increment rows of one noise chunk, from one draw of
    a fresh stream of that chunk alone."""
    gen = np.random.Generator(np.random.PCG64DXSM(seed).jumped(chunk))
    return gen.standard_normal((n_paths, n_steps)) * np.sqrt(dt)


def test_increment_layout_is_counter_addressable():
    # path _BLOCK_PATHS + 3 must be reproducible from (seed, chunk 1, position 3) alone
    seed, n_steps, dt = 987, 10, 0.1
    dw = gaussian_increments(seed, _BLOCK_PATHS + 6, n_steps, dt)
    assert np.array_equal(dw[_BLOCK_PATHS + 3], chunk_reference(seed, 1, 4, n_steps, dt)[3])


@pytest.fixture(scope="module")
def three_chunk_reference():
    # 2 * _BLOCK_PATHS + 5 paths: two full noise chunks and a short third one
    B = _BLOCK_PATHS
    seed, n_paths, n_steps, dt = 4242, 2 * B + 5, 7, 0.25
    ref = np.concatenate([chunk_reference(seed, c, min(B, n_paths - B * c), n_steps, dt)
                          for c in range(3)])
    return seed, n_paths, n_steps, dt, ref


def test_increment_chunks_are_disjoint(three_chunk_reference):
    # each chunk's stretch of the stream is its own: chunk 1 shares no value
    # with its neighbours, as it would if the chunk index were a short shift
    B = _BLOCK_PATHS
    seed, n_paths, n_steps, dt, _ = three_chunk_reference
    dw = gaussian_increments(seed, n_paths, n_steps, dt)
    chunks = dw[:B], dw[B : 2 * B], dw[2 * B :]
    assert np.intersect1d(chunks[1], chunks[0]).size == 0
    assert np.intersect1d(chunks[1], chunks[2]).size == 0


def test_increment_stream_is_pinned():
    # NEP 19 does not promise Generator streams across numpy versions; a
    # change of the ziggurat, of PCG64DXSM or of its jump moves every
    # Monte-Carlo number
    import hashlib

    dw = gaussian_increments(2021, _BLOCK_PATHS + 4, 3, 0.5)
    digest = hashlib.sha256(np.ascontiguousarray(dw).tobytes()).hexdigest()
    assert digest == "6192252bbda37210f615537973dbd0e388e158ba5c9743309b5cdc17d5d8ae5c", (
        f"gaussian_increments under numpy {np.__version__} differs from the stream "
        f"pinned under numpy 2.4.6: every Monte-Carlo number and simulate CSV moves with it"
    )


def test_free_variance_paths_are_pinned():
    # beta = 0, sigma = 1, zero control on t^0, t^1, t^2 at 800 steps: the
    # noise convolution's bits, pinned under numpy 2.4.6 and its OpenBLAS
    import hashlib

    digest = hashlib.sha256()
    for degree in (0, 1, 2):
        problem = make_problem(MonomialKernel(T=2.0, degree=degree), beta=0.0)
        batch = simulate_paths(problem, zero, TimeGrid(T=2.0, dt=0.0025), 5000, seed=11 + degree)
        digest.update(np.ascontiguousarray(batch.paths).tobytes())
    assert digest.hexdigest() == "38f225b538b949c652b6ddb12913d34735bfd5fe5e206599e31b718586dc1e28", (
        f"free-variance paths under numpy {np.__version__} differ from the bits pinned under "
        f"numpy 2.4.6: the increment stream or the BLAS build changed them"
    )


@pytest.mark.parametrize("n_paths, n_steps, dt, named", [
    (3, 0, 0.1, "n_steps"),
    (-1, 5, 0.1, "n_paths"),
    (3, 5, math.nan, "dt"),
    (3, 5, -0.1, "dt"),
], ids=["no-steps", "negative-paths", "nan-dt", "negative-dt"])
def test_increments_reject_arguments_out_of_domain(n_paths, n_steps, dt, named):
    with pytest.raises(DomainError, match=f"^{named} must be"):
        gaussian_increments(1, n_paths, n_steps, dt)


def set_threads(monkeypatch, workers):
    """VOC_THREADS = workers, or unset for None (then the usable CPUs)."""
    if workers is None:
        monkeypatch.delenv("VOC_THREADS", raising=False)
    else:
        monkeypatch.setenv("VOC_THREADS", str(workers))


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
def test_seed_outside_64_bits_is_rejected(seed, fractional_kernel):
    # SeedSequence would hash 2**64 and past without aliasing, and refuse -1
    # with a bare ValueError: the check keeps one documented seed domain
    problem, grid = make_problem(fractional_kernel), TimeGrid(T=2.0, dt=0.1)
    message = rf"seed must be an integer in \[0, 2\*\*64\), got {seed}$"
    for draw in (lambda: gaussian_increments(seed, 3, 4, 0.1),
                 lambda: simulate_paths(problem, zero, grid, 3, seed),
                 lambda: evaluate_J_mc(problem, zero, grid, 3, seed)):
        with pytest.raises(DomainError, match=message):
            draw()


@pytest.mark.parametrize("workers", [1, 2, 3, None])
def test_increment_chunks_match_per_path_reference(workers, three_chunk_reference, monkeypatch):
    seed, n_paths, n_steps, dt, ref = three_chunk_reference
    set_threads(monkeypatch, workers)
    assert np.array_equal(gaussian_increments(seed, n_paths, n_steps, dt), ref)


def test_increments_fill_a_strided_out_in_place(three_chunk_reference, monkeypatch):
    seed, n_paths, n_steps, dt, ref = three_chunk_reference
    X = np.zeros((n_steps + 1, n_paths + 3))
    set_threads(monkeypatch, 2)
    dw = gaussian_increments(seed, n_paths, n_steps, dt, out=X[1:, :n_paths])
    assert np.shares_memory(dw, X)
    assert np.array_equal(X[1:, :n_paths].T, ref)
    assert not X[0].any() and not X[:, n_paths:].any()
    with pytest.raises(ValueError):
        gaussian_increments(seed, n_paths, n_steps, dt, out=X[1:])


@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("dt, n_paths", [(0.01, 8200), (0.002, 4200)], ids=["200steps", "1000steps"])
def test_simulation_holds_one_stripe_buffer(dt, n_paths, beta):
    # the increments are drawn into the path array itself and every block's
    # convolution is written over them in place: beside the paths there is one
    # stripe buffer of _STRIPE x _BLOCK_PATHS floats, whatever the step count
    import tracemalloc

    from voctrl.simulate import _BLOCK_PATHS, _PAD, _STRIPE

    problem = make_problem(FractionalKernel(T=2.0, exponent=0.3), beta=beta)
    grid = TimeGrid(T=2.0, dt=dt)
    n_steps = grid.n_steps
    simulate_paths(problem, one, grid, 2, seed=1)  # lazy imports and caches
    paths_bytes = 8 * (n_steps + 1) * (-(-n_paths // _PAD) * _PAD)
    stripe_bytes = 8 * _STRIPE * _BLOCK_PATHS
    tracemalloc.start()
    try:
        simulate_paths(problem, one, grid, n_paths, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < paths_bytes + stripe_bytes + 2 * 2**20


def test_long_paths_are_drawn_in_smaller_fills_of_the_same_stream():
    # at 4000 steps a draw holds 16 paths: the chunk's stream is the same
    seed, n_paths, n_steps, dt = 77, 300, 4000, 0.0005
    assert np.array_equal(gaussian_increments(seed, n_paths, n_steps, dt),
                          chunk_reference(seed, 0, n_paths, n_steps, dt))


def test_terminal_states_bound_the_draw_buffer(monkeypatch):
    # a draw holds at most _DRAW_FLOATS normals whatever the step count, so
    # at 4000 steps two threads hold 8 P + 2 x 8 _DRAW_FLOATS bytes, with
    # 512 KiB for the O(N) arrays and the rest
    import tracemalloc

    from voctrl.simulate import _DRAW_FLOATS

    set_threads(monkeypatch, 2)
    problem = make_problem(FractionalKernel(T=2.0, exponent=0.3))
    grid = TimeGrid(T=2.0, dt=0.0005)
    u = np.ones(grid.n_steps + 1)
    n_paths = 4200
    _terminal_states(problem, u, grid, 2, seed=1)  # lazy imports and caches
    tracemalloc.start()
    try:
        _terminal_states(problem, u, grid, n_paths, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n_paths + 2 * 8 * _DRAW_FLOATS + 2**19


def test_draw_size_changes_no_bit(monkeypatch):
    # the draw budget only sets how many paths one fill holds: a split fill
    # continues the chunk's own generator and the einsum reduces each row on
    # its own, so one path per draw and a ragged last draw (3 paths per draw,
    # and no chunk holds a multiple of 3) give the same bits as the default
    problem = make_problem(FractionalKernel(T=2.0, exponent=0.3), x0=0.3)
    grid = TimeGrid(T=2.0, dt=0.05)
    n_steps, n_paths = grid.n_steps, 4200
    ctl = np.cos(grid.nodes)
    set_threads(monkeypatch, 2)

    def runs():
        mc = evaluate_J_mc(problem, np.cos, grid, n_paths, seed=9)
        return (gaussian_increments(9, n_paths, n_steps, grid.dt),
                _terminal_states(problem, ctl, grid, n_paths, seed=9),
                simulate_paths(problem, np.cos, grid, n_paths, seed=9).paths,
                np.array([mc.j_estimate, mc.std_error]))

    monkeypatch.setattr(voctrl.simulate, "_DRAW_FLOATS", 2**16)
    reference = runs()
    for draw_floats in (n_steps, 3 * n_steps + 1):
        monkeypatch.setattr(voctrl.simulate, "_DRAW_FLOATS", draw_floats)
        for got, want in zip(runs(), reference):
            assert np.array_equal(got, want), draw_floats


def test_increment_moments():
    dw = gaussian_increments(5, 4000, 50, 0.05)
    assert dw.mean() == pytest.approx(0.0, abs=3.0 * np.sqrt(0.05 / 200_000))
    assert dw.var() == pytest.approx(0.05, rel=0.02)


def dense_scheme(problem, u, grid):
    """The scheme as dense matrices, X = mean + sigma noise @ dW, from one
    implicit solve of (I + beta A) X = x0 + alpha A u + sigma L dW: A the
    trapezoidal operator (row 0 zero) and L the left-endpoint one, so X_0 =
    x0 and no X_i sees dW_i or later."""
    n_steps = grid.n_steps
    ktab = _kernel_table(problem, grid)
    A = trapezoid_operator(ktab, grid.dt)
    L = toeplitz(np.concatenate(([0.0], ktab[1:])), np.zeros(n_steps))
    lhs = np.eye(n_steps + 1) + problem.beta * A
    return (solve_triangular(lhs, problem.x0 + problem.alpha * (A @ u), lower=True),
            solve_triangular(lhs, L, lower=True))


def reference_paths(problem, control, grid, n_paths, seed):
    """The dense scheme, path-major."""
    mean, noise = dense_scheme(problem, _control_values(control, grid.nodes), grid)
    dw = gaussian_increments(seed, n_paths, grid.n_steps, grid.dt)
    return mean + problem.sigma * dw @ noise.T


@pytest.mark.parametrize("beta, dt", [(0.0, 0.02), (1.0, 0.02), (10.0, 0.02),
                                      (0.0, 0.2), (1.0, 0.2), (10.0, 0.2),
                                      (0.0, 0.0032), (1.0, 0.0032), (10.0, 0.0032)],
                         ids=["0.0", "1.0", "10.0", "0.0-10steps", "1.0-10steps", "10.0-10steps",
                              "0.0-625steps", "1.0-625steps", "10.0-625steps"])
@pytest.mark.parametrize("kernel", [MonomialKernel(T=2.0, degree=0), FractionalKernel(T=2.0, exponent=0.3)],
                         ids=["K0=1", "K0=0"])
def test_kernel_matches_reference_recursion(kernel, beta, dt):
    # 100 steps: row stripes of 16, 16, 32 and an uneven last 36; 10 steps:
    # one stripe; 625 steps: stripes of 16, 16, 32, 64, 128, then capped ones
    # of 128, 128 and an uneven last 113; 4100 paths: two path blocks
    problem = make_problem(kernel, beta=beta, x0=0.3)
    grid = TimeGrid(T=2.0, dt=dt)
    control = lambda t: 1.0 + t
    paths = simulate_paths(problem, control, grid, 4100, seed=77).paths
    ref = reference_paths(problem, control, grid, 4100, seed=77)
    assert np.abs(paths - ref).max() <= 1e-12 * np.abs(ref).max()


def test_resolvent_of_constant_kernel_is_geometric():
    # K = 1: r[m] - r[m-1] = -beta dt r[m-1], so r[m] = (1 - beta dt)^(m-1)
    grid = TimeGrid(T=2.0, dt=0.02)
    m = np.arange(1, grid.n_steps + 1)
    for beta in [1.0, 10.0, 100.0]:
        problem = make_problem(MonomialKernel(T=2.0, degree=0), beta=beta)
        r = _resolvent(np.concatenate(([0.0], _kernel_table(problem, grid)[1:])), beta * grid.dt)
        expected = (1.0 - beta * grid.dt) ** (m - 1)
        assert r[0] == 0.0
        assert np.abs(r[1:] - expected).max() <= 1e-13 * np.abs(expected).max()
    # beta = 0: no feedback to fold in, the kernel table itself (K(0) = 0 here)
    ktab = _kernel_table(make_problem(FractionalKernel(T=2.0, exponent=0.3), beta=0.0), grid)
    assert np.array_equal(_resolvent(ktab, 0.0), ktab)
    # the trapezoidal column (K(0)/2, K(dt), ...): with h = beta dt and
    # q = (2 - h) / (2 + h), r[0] = 1 / (2 + h) and r[m] = 4 q^(m-1) / (2 + h)^2.
    # Over 2000 steps at h = 3 it stays bounded, |q| < 1, while the
    # left-endpoint r = (1 - h)^(m-1) = (-2)^(m-1) overflows
    grid = TimeGrid(T=2.0, dt=0.001)
    ktab = _kernel_table(make_problem(MonomialKernel(T=2.0, degree=0)), grid)
    m = np.arange(1, grid.n_steps + 1)
    for h in [0.02, 0.2, 3.0]:
        q = (2.0 - h) / (2.0 + h)
        expected = np.concatenate(([1.0 / (2.0 + h)], 4.0 * q ** (m - 1) / (2.0 + h) ** 2))
        r = _resolvent(np.concatenate(([0.5 * ktab[0]], ktab[1:])), h)
        assert np.abs(r - expected).max() <= 1e-13 * np.abs(expected).max()
    assert not np.all(np.isfinite(_resolvent(np.concatenate(([0.0], ktab[1:])), 3.0)))


def test_noise_column_is_read_off_the_resolvent():
    # c = r - (K(0)/2)(e_0 - beta rho): r itself where K(0) == 0 ...
    grid = TimeGrid(T=2.0, dt=0.005)
    for beta in [1.0, 5.0]:
        problem = make_problem(FractionalKernel(T=2.0, exponent=0.3), beta=beta)
        ktab, rho, c = _trapezoid_resolvent(problem, grid)
        assert np.array_equal(c, _resolvent(ktab, beta * grid.dt)), beta
    # ... and (0, K_1, .., K_N) at beta == 0, whatever K(0)
    ktab, rho, c = _trapezoid_resolvent(make_problem(MonomialKernel(T=2.0, degree=0), beta=0.0), grid)
    assert np.array_equal(c, np.concatenate(([0.0], ktab[1:])))


def resolvent_columns(n):
    """Trapezoidal t^0.3, left-endpoint t^0.3 and left-endpoint K = 1 columns
    of n entries; the last grows like (1 - h)^m at h > 2."""
    k = (np.arange(n) * 0.01) ** 0.3
    return {"trap-t^0.3": np.concatenate(([0.5 * k[0]], k[1:])),
            "left-t^0.3": np.concatenate(([0.0], k[1:])),
            "left-K=1": np.concatenate(([0.0], np.ones(n - 1)))}


@pytest.mark.parametrize("h", [0.0, 0.3, 2.5])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 128, 129, 300])
def test_resolvent_matches_dense_triangular_solve(n, h):
    # (I + h T) r = a with T the lower-triangular Toeplitz matrix of a; the
    # lengths straddle the 64-entry block edges
    for name, a in resolvent_columns(n).items():
        ref = solve_triangular(np.eye(n) + h * toeplitz(a, np.zeros(n)), a, lower=True)
        assert np.abs(_resolvent(a, h) - ref).max() <= 1e-13 * np.abs(ref).max(), name


def scalar_resolvent(a, h):
    """The one-dot-per-step recursion the blocked solve starts with."""
    pivot = 1.0 + h * a[0]
    n = len(a) - 1
    ba = (h * a)[::-1].copy()
    r = np.empty(n + 1)
    r[0] = a[0] / pivot
    for m in range(1, n + 1):
        r[m] = (a[m] - np.dot(r[:m], ba[n - m : n])) / pivot
    return r


@pytest.mark.parametrize("h", [0.3, 2.5])
def test_resolvent_blocks_are_exact(h):
    for name, a in resolvent_columns(300).items():
        full = _resolvent(a, h)
        # a prefix of the column gives the prefix of r, bit for bit, on both
        # sides of every block edge
        for k in [1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 299]:
            assert np.array_equal(_resolvent(a[:k], h), full[:k]), (name, k)
        # one block is the scalar recursion itself
        for k in [1, 2, 17, 63, 64]:
            assert np.array_equal(_resolvent(a[:k], h), scalar_resolvent(a[:k], h)), (name, k)
    # no feedback: r is the column itself across several blocks, also where
    # a * r overflows (K = 1e154 from entry 64 on)
    for a in [resolvent_columns(2001)["trap-t^0.3"], np.full(201, 1e154)]:
        for k in [65, 129, 2001]:
            assert np.array_equal(_resolvent(a[:k], 0.0), a[:k])


def test_reruns_are_bit_identical(fractional_kernel):
    problem = make_problem(fractional_kernel)
    cp = optimal_control_poly(problem, 10, 30)
    grid = TimeGrid(T=2.0, dt=0.05)
    a = simulate_paths(problem, cp, grid, 50, seed=11)
    b = simulate_paths(problem, cp, grid, 50, seed=11)
    assert np.array_equal(a.paths, b.paths)


@pytest.mark.parametrize("workers", [2, 3, 5])
def test_worker_count_does_not_change_results(workers, fractional_kernel, monkeypatch):
    # 9000 paths make five path blocks, so every worker count fans out
    problem = make_problem(fractional_kernel)
    cp = optimal_control_poly(problem, 10, 30)
    grid = TimeGrid(T=2.0, dt=0.05)
    set_threads(monkeypatch, 1)
    serial = simulate_paths(problem, cp, grid, 9000, seed=3)
    set_threads(monkeypatch, workers)
    fanned = simulate_paths(problem, cp, grid, 9000, seed=3)
    assert np.array_equal(serial.paths, fanned.paths)


@pytest.fixture(scope="module", params=["beta=0", "beta=1", "400steps"])
def long_run(request):
    # 40 steps under the degree-10 control, and 400 steps under cos, where
    # a GEMM block narrower than _PAD paths took another OpenBLAS kernel
    if request.param == "400steps":
        problem = make_problem(FractionalKernel(T=2.0, exponent=0.3), x0=0.1)
        control, grid, seed = np.cos, TimeGrid(T=2.0, dt=0.005), 3
    else:
        problem = make_problem(FractionalKernel(T=2.0, exponent=0.3),
                               beta=0.0 if request.param == "beta=0" else 1.0)
        control, grid, seed = optimal_control_poly(problem, 10, 30), TimeGrid(T=2.0, dt=0.05), 13
    return problem, control, grid, seed, simulate_paths(problem, control, grid, 8200, seed).paths


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n_paths", [1, 17, 64, 65, 4097,
                                     7, 13, 100, 128, 255, 257, 1000, 2047, 2049, 4095])
def test_paths_do_not_depend_on_path_count(n_paths, workers, long_run, monkeypatch):
    problem, control, grid, seed, long = long_run
    set_threads(monkeypatch, workers)
    short = simulate_paths(problem, control, grid, n_paths, seed).paths
    assert np.array_equal(short, long[:n_paths])


@pytest.mark.parametrize("beta", [0.0, 1.0, 10.0])
@pytest.mark.parametrize("kernel", [MonomialKernel(T=2.0, degree=0), FractionalKernel(T=2.0, exponent=0.3),
                                    MonomialKernel(T=2.0, degree=2)], ids=["t^0", "t^0.3", "t^2"])
def test_terminal_states_are_path_ends(kernel, beta):
    # X(T) = m_N + c-row @ sigma dW summed in another order than the
    # stripes' last row, so the two agree to rounding; the paths cross a draw
    from voctrl.simulate import _DRAW_FLOATS

    problem = make_problem(kernel, beta=beta, x0=0.3)
    grid = TimeGrid(T=2.0, dt=0.02)
    n_paths = _DRAW_FLOATS // grid.n_steps + 100
    control = lambda t: 1.0 + t
    ends = simulate_paths(problem, control, grid, n_paths, seed=77).paths[:, -1]
    xT = _terminal_states(problem, _control_values(control, grid.nodes), grid, n_paths, seed=77)
    assert np.abs(xT - ends).max() <= 1e-13 * np.abs(ends).max()


@pytest.fixture(scope="module")
def long_terminal_run():
    problem = make_problem(FractionalKernel(T=2.0, exponent=0.3), x0=0.4)
    grid = TimeGrid(T=2.0, dt=0.05)
    ctl = np.cos(grid.nodes)
    return problem, ctl, grid, _terminal_states(problem, ctl, grid, 8193, seed=13)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("n_paths", [1, 2, 513, 4097, 8193])
def test_terminal_states_do_not_depend_on_path_count(n_paths, workers, long_terminal_run, monkeypatch):
    # 513 ends inside a draw and 4097 crosses draws and two chunks; 8193 is
    # the long run itself, so it is a rerun on another thread count
    problem, ctl, grid, long = long_terminal_run
    set_threads(monkeypatch, workers)
    assert np.array_equal(_terminal_states(problem, ctl, grid, n_paths, seed=13), long[:n_paths])


def test_voc_threads_env_bounds_workers(monkeypatch, fractional_kernel):
    problem = make_problem(fractional_kernel)
    grid = TimeGrid(T=2.0, dt=0.1)
    baseline = simulate_paths(problem, zero, grid, 4097, seed=9)
    monkeypatch.setenv("VOC_THREADS", "4")
    fanned = simulate_paths(problem, zero, grid, 4097, seed=9)
    assert np.array_equal(baseline.paths, fanned.paths)


def test_zero_noise_paths_track_deterministic_mean(gamma_kernel):
    # the simulator is the mean plus a noise convolution: without noise it
    # is the mean itself, bit for bit
    problem = make_problem(gamma_kernel, sigma=0.0, x0=0.2)
    cp = optimal_control_poly(problem, 10, 30)
    grid = TimeGrid(T=2.0, dt=0.01)
    paths = simulate_paths(problem, cp, grid, 3, seed=0).paths
    mean = deterministic_mean(problem, cp, grid)
    assert all(np.array_equal(path, mean) for path in paths)


@pytest.mark.parametrize("beta", [0.0, 1.0, 10.0])
def test_terminal_moments_match_the_scheme(beta):
    # X(T) is Gaussian with the scheme's mean m_N and variance sigma^2 dt
    # sum_k c_k^2, both from the dense solve; 40 000 paths, both within z =
    # 3.5 of them
    problem = make_problem(FractionalKernel(T=2.0, exponent=0.3), beta=beta, sigma=0.8, x0=0.3)
    grid = TimeGrid(T=2.0, dt=0.02)
    u = 1.0 + grid.nodes
    mean, noise = dense_scheme(problem, u, grid)
    var = problem.sigma**2 * grid.dt * np.sum(noise[-1] ** 2)
    n_paths = 40_000
    xT = _terminal_states(problem, u, grid, n_paths, seed=2718)
    assert abs(xT.mean() - mean[-1]) <= 3.5 * np.sqrt(var / n_paths)
    assert abs(xT.var(ddof=1) - var) <= 3.5 * var * np.sqrt(2.0 / (n_paths - 1))


def test_mean_scheme_first_order_consistency(fractional_kernel):
    problem = make_problem(fractional_kernel, x0=0.3)
    cp = optimal_control_poly(problem, 10, 30)
    m1 = deterministic_mean(problem, cp, TimeGrid(T=2.0, dt=0.02))
    m2 = deterministic_mean(problem, cp, TimeGrid(T=2.0, dt=0.01))
    assert abs(m1[-1] - m2[-1]) <= 1.0 * 0.02


def test_deterministic_mean_flat_when_unforced():
    problem = make_problem(MonomialKernel(T=2.0, degree=1), beta=0.0, sigma=0.0, x0=0.7)
    m = deterministic_mean(problem, zero, TimeGrid(T=2.0, dt=0.1))
    assert np.allclose(m, 0.7, atol=1e-14)


def test_deterministic_mean_exponential_decay():
    # K = 1, beta = 1, u = 0, x0 = 1: m' = -m, so m(t) = e^{-t}
    problem = make_problem(MonomialKernel(T=1.0, degree=0), beta=1.0, sigma=0.0, x0=1.0)
    m = deterministic_mean(problem, zero, TimeGrid(T=1.0, dt=0.01))
    assert m[-1] == pytest.approx(np.exp(-1.0), abs=1e-4)


def test_monte_carlo_mean_matches_deterministic(gamma_kernel):
    problem = make_problem(gamma_kernel, x0=0.0)
    cp = optimal_control_poly(problem, 10, 30)
    grid = TimeGrid(T=2.0, dt=0.02)
    batch = simulate_paths(problem, cp, grid, 4000, seed=2024)
    m = deterministic_mean(problem, cp, grid)
    xT = batch.paths[:, -1]
    se = xT.std(ddof=1) / np.sqrt(len(xT))
    assert abs(xT.mean() - m[-1]) <= 3.0 * se


def test_monte_carlo_z_scores_are_standard(fractional_kernel):
    # z = (J_mc - J_det) / SE over 200 seeds of four chunks each: chunks that
    # repeat or correlate leave the SE as it is and widen z (about 2.2 when
    # every chunk draws chunk 0's stream); sound chunks give sd 1 +- 0.05
    problem = make_problem(fractional_kernel)
    cp = optimal_control_poly(problem, 10, 30)
    grid = TimeGrid(T=2.0, dt=0.08)
    j_det = evaluate_J_deterministic(problem, cp, grid).j_estimate
    z = []
    for seed in range(200):
        mc = evaluate_J_mc(problem, cp, grid, 4 * _BLOCK_PATHS, seed)
        z.append((mc.j_estimate - j_det) / mc.std_error)
    assert 0.85 <= np.std(z, ddof=1) <= 1.15


def test_non_finite_control_rejected(fractional_kernel):
    problem = make_problem(fractional_kernel)
    with pytest.raises(SimulationError):
        simulate_paths(problem, lambda t: float("nan"), TimeGrid(T=2.0, dt=0.1), 2, seed=1)


def test_state_overflow_names_path_and_step():
    # s_1 = x0 - beta dt x0 / 2 is about -5e298, so beta s_1 overflows: the
    # mean's first non-finite state is at step 1, and no noise is drawn
    problem = make_problem(MonomialKernel(T=2.0, degree=0), beta=1e300, x0=1.0)
    with pytest.raises(NumericRangeError, match=r"mean equation .* at step 1 \(t = 0\.1\)"):
        simulate_paths(problem, zero, TimeGrid(T=2.0, dt=0.1), 70, seed=1)


def test_noise_overflow_names_path_and_step():
    # the mean stays 0, but sigma c_1 = 1e200 * 1e200 overflows in the
    # column: every path first turns non-finite at step 1
    problem = make_problem(PolynomialKernel(T=2.0, coeffs=(1e200,)), beta=0.0, sigma=1e200, x0=0.0)
    with pytest.raises(SimulationError, match=r"on path 0 at step 1 \(t = 0\.1\)"):
        simulate_paths(problem, zero, TimeGrid(T=2.0, dt=0.1), 70, seed=1)


def test_noise_overflow_names_the_lowest_path_and_earliest_step_across_stripes():
    # 300 steps in six stripes, run from the last to the first, and 4200
    # paths in two blocks: every path is non-finite from step 1 on, and the
    # error still names path 0 at step 1
    problem = make_problem(PolynomialKernel(T=3.0, coeffs=(1e200,)), beta=0.0, sigma=1e200, x0=0.0)
    with pytest.raises(SimulationError, match=r"on path 0 at step 1 \(t = 0\.01\)"):
        simulate_paths(problem, zero, TimeGrid(T=3.0, dt=0.01), 4200, seed=1)


def test_beta_zero_scheme_is_finite_where_the_resolvent_product_overflows():
    # K = 1e154: rho * K overflows past the resolvent's first 64-entry
    # block, but at beta == 0 it enters multiplied by 0
    problem = make_problem(PolynomialKernel(T=2.0, coeffs=(1e154,)), beta=0.0, x0=1.0)
    grid = TimeGrid(T=2.0, dt=0.01)
    assert lq_oracle(problem, grid).j_opt == pytest.approx(5e307, rel=1e-13)
    assert np.array_equal(deterministic_mean(problem, zero, grid), np.ones(grid.n_steps + 1))
    assert np.all(np.isfinite(simulate_paths(problem, zero, grid, 5, seed=1).paths))


def test_mean_overflow_names_the_first_non_finite_step():
    # s_1 = x0 - beta dt x0 / 2 is about -5e198, so beta s_1 overflows and
    # m_1 is the first non-finite state
    problem = make_problem(MonomialKernel(T=2.0, degree=0), beta=1e200, x0=1.0)
    with pytest.raises(NumericRangeError, match=r"at step 1 \(t = 0\.1\)"):
        deterministic_mean(problem, zero, TimeGrid(T=2.0, dt=0.1))


def test_grid_horizon_must_match(fractional_kernel):
    problem = make_problem(fractional_kernel)
    with pytest.raises(DomainError):
        simulate_paths(problem, zero, TimeGrid(T=1.0, dt=0.1), 2, seed=1)
    with pytest.raises(DomainError):
        simulate_paths(problem, zero, TimeGrid(T=2.0, dt=0.1), 0, seed=1)


def test_kernel_table_is_one_array_call():
    kernel = CountingKernel(T=2.0, exponent=0.3)
    grid = TimeGrid(T=2.0, dt=0.001)
    ktab = _kernel_table(make_problem(kernel), grid)
    assert kernel.shapes == [(2001,)]
    assert np.array_equal(ktab, [FractionalKernel(T=2.0, exponent=0.3)(j * grid.dt) for j in range(2001)])


@dataclass(frozen=True, kw_only=True)
class NanKernel(Kernel):
    def _value(self, t):
        return np.full_like(t, np.nan)


def test_non_finite_kernel_table_raises_every_time_and_is_not_kept(resolvent_calls):
    grid = TimeGrid(T=2.0, dt=0.1)
    bad = make_problem(NanKernel(T=2.0))
    for _ in range(2):
        with pytest.raises(NumericRangeError, match="kernel produced non-finite values"):
            deterministic_mean(bad, one, grid)
    good = make_problem(FractionalKernel(T=2.0, exponent=0.3))
    m = deterministic_mean(good, one, grid)
    assert resolvent_calls == [21]
    assert np.array_equal(m, deterministic_mean(good, one, grid))


@pytest.mark.parametrize("consumer", ["paths", "terminal states", "mean"])
def test_each_consumer_solves_the_resolvent_once(fractional_kernel, resolvent_calls, consumer):
    # the mean and the noise column come off one _trapezoid_resolvent call
    problem, grid = make_problem(fractional_kernel), TimeGrid(T=2.0, dt=0.1)
    {"paths": lambda: simulate_paths(problem, one, grid, 3, seed=1),
     "terminal states": lambda: _terminal_states(problem, np.ones(21), grid, 3, seed=1),
     "mean": lambda: deterministic_mean(problem, one, grid)}[consumer]()
    assert resolvent_calls == [21]


def test_scheme_core_keeps_no_state(fractional_kernel):
    # no call binds or rebinds a name in the simulator's namespace, so its
    # results cannot depend on the calls before it
    problem, grid = make_problem(fractional_kernel, x0=0.2), TimeGrid(T=2.0, dt=0.05)
    control = optimal_control_poly(problem, 10, 30)
    before = dict(vars(voctrl.simulate))
    simulate_paths(problem, control, grid, 70, seed=3)
    deterministic_mean(problem, control, grid)
    evaluate_J_mc(problem, control, grid, 70, seed=3)
    lq_oracle(problem, grid)
    evaluate_J_deterministic(problem, control, grid)
    after = vars(voctrl.simulate)
    assert after.keys() == before.keys()
    assert all(after[name] is obj for name, obj in before.items())


def test_control_values_is_one_array_call(fractional_kernel):
    cp = optimal_control_poly(make_problem(fractional_kernel), 10, 30)
    control = CountingControl(cp)
    nodes = TimeGrid(T=2.0, dt=0.001).nodes
    vals = _control_values(control, nodes)
    assert control.shapes == [(2001,)]
    assert np.array_equal(vals, cp(nodes))


def test_constant_control_is_one_call():
    # a scalar for the node array is the constant on every node
    control = CountingControl(lambda t: 0.25)
    vals = _control_values(control, TimeGrid(T=2.0, dt=0.001).nodes)
    assert control.shapes == [(2001,)]
    assert np.array_equal(vals, np.full(2001, 0.25))


@pytest.mark.parametrize("control", [
    lambda t: 1.0 if t < 1.0 else 0.0,  # raises ValueError on an array
    lambda t: math.cos(t),  # raises TypeError on an array
    lambda t: np.array([t, t]) if np.ndim(t) else t,  # does not broadcast to the nodes
], ids=["step", "cos", "unbroadcastable"])
def test_scalar_only_control_falls_back_per_node(control):
    nodes = TimeGrid(T=2.0, dt=0.001).nodes
    vals = _control_values(control, nodes)
    assert np.array_equal(vals, np.array([float(control(t)) for t in nodes]))
