"""Sample-path simulation and the deterministic mean equation.

The state follows the stochastic convolution equation

    X(t) = x0 + int_0^t K(t-s)(alpha u(s) - beta X(s)) ds
              + sigma int_0^t K(t-s) dW(s),

discretized with a left-endpoint rule so no step ever references a future
Brownian increment:

    X_i = x0 + sum_{j<i} K(t_i - t_j) g_j,
    g_j = (alpha u_j - beta X_j) dt + sigma dW_j.

Noise is counter-based: one Philox stream keyed by the seed, with path p
owning counter blocks [p*bpp, (p+1)*bpp) where bpp = ceil(n_steps / 4)
(Philox emits 4 words per block).  The word for (path, step) is therefore a
pure function of (seed, path, step).

State and forcing are stored time-major (steps x paths).  ``_fill`` solves
the first half of a step range, adds that half's whole effect on the second
half as one GEMM against a Toeplitz block of the kernel table, and recurses
into the second half; short ranges go one GEMV per step.  When beta == 0 the
forcing does not depend on the state and the whole strictly-lower triangle
is one GEMM.  The path count is padded to a multiple of ``_PAD`` with extra
Philox paths, dropped afterwards, and workers take fixed ``_BLOCK_PATHS``
column blocks: every real path sees the same BLAS tiling, so its values are
bit-identical whatever the worker count or ``n_paths``.

The deterministic mean, and the LQ oracle in ``objective``, solve linear
Volterra equations of the second kind with one trapezoidal product-quadrature
sweep, ``_volterra_solve``: O(n_steps) memory, one division by the K(0)
pivot per step, several right-hand sides swept together.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import ndtri

from .control import ControlProblem
from .errors import ConfigError, DomainError, NumericRangeError, SimulationError

#: name of the simulation kernel, reported in benchmark run records.
DEFAULT_BACKEND = "numpy"

_MASK64 = (1 << 64) - 1
_PAD = 64  # path-count multiple: no real path falls in a BLAS edge tile
_BLOCK_PATHS = 4096  # columns per worker task, never derived from the worker count
_LEAF_STEPS = 16  # step ranges this short go one GEMV per step


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * dt, i = 0..n_steps, with n_steps * dt = T."""

    T: float
    dt: float

    def __post_init__(self):
        if not self.dt > 0.0:
            raise DomainError(f"dt must be positive, got {self.dt}")
        if not self.T > 0.0:
            raise DomainError(f"T must be positive, got {self.T}")
        if abs(self.n_steps * self.dt - self.T) > 1e-12:
            raise DomainError(
                f"grid mesh {self.dt} does not divide horizon {self.T} evenly"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True)
class PathBatch:
    """Simulated goodwill paths: row p is path p on the grid nodes."""

    paths: np.ndarray
    seed: int
    grid: TimeGrid


def gaussian_increments(seed: int, n_paths: int, n_steps: int, dt: float) -> np.ndarray:
    """Increment matrix dW ~ Normal(0, dt), shape (n_paths, n_steps).

    Philox counter addressing as described in the module docstring; the
    uniform for each word w is ((w >> 11) + 0.5) * 2**-53, mapped through the
    normal quantile function.  The result is stored step-major, so its
    transpose is a contiguous (n_steps, n_paths) array.
    """
    blocks_per_path = max(1, -(-n_steps // 4))
    bg = np.random.Philox(key=seed & _MASK64)
    words = bg.random_raw(4 * blocks_per_path * n_paths)
    words >>= np.uint64(11)
    by_path = words.reshape(n_paths, 4 * blocks_per_path)[:, :n_steps]
    u = np.empty((n_steps, n_paths))
    for a in range(0, n_paths, 512):  # transpose in cache-sized blocks
        u[:, a : a + 512] = by_path[a : a + 512].T
    u += 0.5
    u *= 2.0**-53
    ndtri(u, out=u)
    u *= math.sqrt(dt)
    return u.T


def _resolve_workers(workers: int | None) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("VOC_THREADS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        raise ConfigError(f"VOC_THREADS must be an integer, got {env!r}") from None


def _control_values(control, nodes) -> np.ndarray:
    vals = np.array([float(control(t)) for t in nodes])
    if not np.all(np.isfinite(vals)):
        raise SimulationError("control produced non-finite values")
    return vals


def _kernel_table(problem: ControlProblem, grid: TimeGrid) -> np.ndarray:
    if abs(grid.T - problem.T) > 1e-12:
        raise DomainError("grid horizon does not match the problem horizon")
    # tabulate once; the inner loops only ever need K on the grid offsets
    ktab = np.array([problem.kernel(j * grid.dt) for j in range(grid.n_steps + 1)])
    if not np.all(np.isfinite(ktab)):
        raise SimulationError("kernel produced non-finite values on the grid")
    return ktab


def _volterra_solve(ktab: np.ndarray, dt: float, beta: float, x0, v: np.ndarray) -> np.ndarray:
    """Solve m = x0 + A (v - beta m) on the grid, every column of ``v`` at once.

    A is the trapezoidal product-quadrature operator: row i integrates
    K(t_i - s) f(s) over [0, t_i] with half weights on t_0 and t_i, and row 0
    is empty.  Sweeping i upward, m_i enters row i only through the diagonal
    K(0) dt / 2, so each step divides by the pivot 1 + beta K(0) dt / 2.
    ``v`` has shape (n_steps + 1,) or (n_steps + 1, k); ``x0`` is a scalar or
    one value per column.
    """
    n = len(ktab) - 1
    pivot = 1.0 + beta * ktab[0] * dt / 2.0
    if pivot == 0.0:
        raise NumericRangeError("singular step in the Volterra sweep")
    wk = dt * ktab[:0:-1]  # wk[n - l] = dt K(l dt), l = 1..n
    m = np.empty(v.shape)
    f = np.empty(v.shape)  # f = v - beta m, final up to the current step
    m[0] = x0
    f[0] = v[0] - beta * m[0]
    # everything but the interior history: x0, the t_0 and the t_i half weights
    known = x0 + np.multiply.outer(0.5 * dt * ktab, f[0]) + 0.5 * dt * ktab[0] * v
    for i in range(1, n + 1):
        m[i] = (known[i] + wk[n - i + 1 :] @ f[1:i]) / pivot
        f[i] = v[i] - beta * m[i]
    return m


def _toeplitz(rk: np.ndarray, lag: int, rows: int, cols: int) -> np.ndarray:
    """Contiguous T[r, c] = K((lag + r - c) dt), zero where the lag is <= 0.

    ``rk`` is the reversed table rk[n - m] = K(m dt), m = 1..n, followed by
    n zeros, so K(0) never enters; row r of T is window n - lag - r of it.
    """
    n = len(rk) // 2
    windows = sliding_window_view(rk, cols)
    return windows[n - lag - np.arange(rows)]


def _fill(X, G, rk, beta_dt, lo, hi):
    """Finish steps lo..hi-1 of the recursion on a (steps x paths) block.

    On entry X[lo:hi+1] holds x0 plus the effect of every g_j with j < lo and
    G[lo:hi] holds the state-free part of g; on exit G[lo:hi] is the full
    forcing and X[lo+1:hi+1] is final.
    """
    n = len(rk) // 2
    if hi - lo <= _LEAF_STEPS:
        for j in range(lo, hi):
            G[j] -= beta_dt * X[j]
            X[j + 1] += rk[n - (j + 1 - lo) : n] @ G[lo : j + 1]
        return
    mid = (lo + hi) // 2
    _fill(X, G, rk, beta_dt, lo, mid)
    X[mid + 1 : hi + 1] += _toeplitz(rk, mid + 1 - lo, hi - mid, mid - lo) @ G[lo:mid]
    _fill(X, G, rk, beta_dt, mid, hi)


@np.errstate(over="ignore", invalid="ignore")  # the caller rejects non-finite states
def _simulate_block(X, G, rk, x0, beta_dt):
    n_steps = len(G)
    X[0] = x0
    if beta_dt == 0.0:
        np.matmul(_toeplitz(rk, 1, n_steps, n_steps), G, out=X[1:])
        X[1:] += x0
    else:
        X[1:] = x0
        _fill(X, G, rk, beta_dt, 0, n_steps)


def simulate_paths(
    problem: ControlProblem,
    control,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    workers: int | None = None,
) -> PathBatch:
    """Simulate n_paths goodwill trajectories under a deterministic control.

    ``workers`` bounds thread fan-out over fixed path blocks (default: the
    VOC_THREADS environment variable, else 1); it never changes the result.
    ``paths`` of the returned batch is a transposed view of the time-major
    (steps x paths) storage.
    """
    if n_paths < 1:
        raise DomainError(f"n_paths must be >= 1, got {n_paths}")
    workers = _resolve_workers(workers)
    n_steps = grid.n_steps
    dt = grid.dt
    ktab = _kernel_table(problem, grid)
    ctl = _control_values(control, grid.nodes[:-1])
    rk = np.concatenate((ktab[:0:-1], np.zeros(n_steps)))
    n_padded = -(-n_paths // _PAD) * _PAD
    G = gaussian_increments(seed, n_padded, n_steps, dt).T
    G *= problem.sigma
    G += (problem.alpha * dt * ctl)[:, None]
    X = np.empty((n_steps + 1, n_padded))

    def run(cols):
        _simulate_block(X[:, cols], G[:, cols], rk, problem.x0, problem.beta * dt)

    blocks = [slice(a, a + _BLOCK_PATHS) for a in range(0, n_padded, _BLOCK_PATHS)]
    if workers == 1 or len(blocks) == 1:
        for cols in blocks:
            run(cols)
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            list(pool.map(run, blocks))
    paths = X[:, :n_paths].T
    if not np.all(np.isfinite(paths)):
        raise SimulationError("simulation produced non-finite state values")
    return PathBatch(paths=paths, seed=seed, grid=grid)


def deterministic_mean(problem: ControlProblem, control, grid: TimeGrid) -> np.ndarray:
    """Mean goodwill on the grid via trapezoidal product quadrature."""
    ktab = _kernel_table(problem, grid)
    u = _control_values(control, grid.nodes)
    return _volterra_solve(ktab, grid.dt, problem.beta, problem.x0, problem.alpha * u)
