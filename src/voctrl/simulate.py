"""Sample-path simulation and the deterministic mean equation.

The state follows the stochastic convolution equation

    X(t) = x0 + int_0^t K(t-s)(alpha u(s) - beta X(s)) ds
              + sigma int_0^t K(t-s) dW(s),

discretized by trapezoidal product quadrature in the drift and the
left-endpoint rule in the noise, so no step references a future Brownian
increment.  With g_j = alpha u_j - beta X_j,

    X_i = x0 + dt (K_i g_0 / 2 + sum_{0<j<i} K_{i-j} g_j + K_0 g_i / 2)
             + sigma sum_{j<i} K_{i-j} dW_j.

The scheme is linear in X, so X = m + Y with m its mean and (I + beta A) Y
= sigma L dW, A the trapezoidal operator and L the left-endpoint one.  Y_0 =
0, so A's half weight at t_0 never acts on Y, and (I + beta A)^{-1} = I -
beta P with P the Toeplitz matrix of rho = dt r, r the resolvent of the
trapezoidal column a = (K_0/2, K_1, .., K_N).  So

    X_i = m_i + sigma sum_{j<i} c[i-j] dW_j,   c = K_left - beta rho * K_left,

with K_left = a - a[0] e_0 and * the convolution cut to N + 1 entries.  As
r + beta dt a * r = a, c = r - a[0] (e_0 - beta rho), which is r where K_0
is 0.  ``_trapezoid_resolvent`` (``lift._resolvent`` of a, afresh on every
call) gives (kernel table, rho, c) only to ``_mean``, which returns (m, c),
and to ``objective.lq_oracle``.

Noise comes in fixed chunks of ``_BLOCK_PATHS`` paths, each with its own
stream: chunk c of seed s draws from ``PCG64DXSM(s).jumped(c)`` (O'Neill,
HMC-CS-2014-0905, numpy's DXSM output), the seed's stream advanced by c * J
words, J = 210306068529402873165736369884012333109, about (phi - 1) * 2**128.
Chunk starts are the points c * J mod 2**128 of one period, and by the
three-distance theorem (gaps of the continued fraction of J / 2**128) any two
of fewer than 2**32 of them are more than 2**95 words apart (2**107 for
2**20 chunks), so no chunk reaches another's words.  A chunk draws its paths
in order, n_steps standard normals each (numpy's ziggurat, which takes a
variable number of words per value, so a path needs the ones before it in
its chunk): path p is a pure function of (seed, p // _BLOCK_PATHS, p mod
_BLOCK_PATHS), whatever the thread count or n_paths.  ``_chunk_draws`` is
that stream, and ``_on_chunks`` runs one function per chunk on
``VOC_THREADS`` threads (the draws release the GIL), by default as many as
the usable CPUs, for the two consumers, ``gaussian_increments`` and
``_terminal_states``.  Chunks are small enough to keep the threads even:
20 000 paths are 10 chunks, 5 per thread on two.  Re-runs under
one numpy build are byte-identical; NEP 19 does not promise ``Generator``
streams across numpy versions, and ``tests/test_simulate.py`` pins a digest.

State and noise are stored time-major (steps x paths).  ``simulate_paths``
writes the increments straight into rows 1..N of the path array, then runs
fixed ``_BLOCK_PATHS`` column blocks in the calling thread, on BLAS threads.
Each block writes the noise convolution over its rows of dW bottom-up, in row
stripes that double in height up to ``_STRIPE`` rows: a stripe is one GEMM of a
Toeplitz block of sigma c against the rows above it, which no stripe run so far
has overwritten, into one reused ``_STRIPE`` x ``_BLOCK_PATHS`` buffer, where m
is added and finiteness checked before the stripe is copied back.  So beside
the paths there is one stripe buffer and one Toeplitz block, whatever the step
count, and the stripes are small enough at CLI sizes to stay on one BLAS
thread.  The path count is padded to a multiple of ``_PAD`` with extra paths of
the last chunk, dropped afterwards, so no path's values depend on the thread
count or on ``n_paths``.  The second rests on OpenBLAS's kernel choice as
measured, not on a promise: under 64-path padding a block of at most 128
paths took another GEMM kernel from 385 steps on, one that differs in the
last bits, and with ``_PAD`` = 256 no block is that narrow (checked at 400,
500 and 1000 steps).

A Monte-Carlo objective reads X only at T, and X_N = m_N + sigma sum_j
c[N-j] dW_j is one weight vector dotted with each path's noise, so
``_terminal_states`` reduces every draw (``_DRAW_FLOATS`` = 2**16 normals,
unless one path needs more) to X(T) in the thread that drew it, one
fixed-order einsum dot per path and no BLAS call: no path array exists,
memory is 512 KiB of draws per thread plus O(N + P), and the work is the draw
plus N multiply-adds per path instead of the stripes' 0.63 * N**2.  X(T) of path p
matches ``paths[p, -1]`` to rounding and depends neither on the
thread count nor on ``n_paths``.
"""

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .control import ControlProblem
from .errors import ConfigError, DomainError, NumericRangeError, SimulationError
from .lift import _resolvent

#: name of the simulation kernel, reported in benchmark run records.
DEFAULT_BACKEND = "numpy"

_PAD = 256  # path-count multiple: no GEMM block is narrower, so no path count changes a bit
_BLOCK_PATHS = 2048  # paths per noise chunk and per recursion block, whatever the threads
_DRAW_FLOATS = 1 << 16  # most normals per draw unless one path needs more: 512 KiB per thread
_LEAF_STEPS = 16  # rows of the first stripe; each later stripe doubles the rows done
_STRIPE = 128  # most rows per stripe: the stripe buffer is _STRIPE * _BLOCK_PATHS floats


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * dt, i = 0..n_steps, with n_steps * dt = T."""

    T: float
    dt: float

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise DomainError(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 < self.T < math.inf:
            raise DomainError(f"T must be positive and finite, got {self.T}")
        if not self.T / self.dt < np.iinfo(np.intp).max:  # n_steps + 1 nodes, indexable
            raise DomainError(f"dt {self.dt} is too fine: T / dt passes the largest array index")
        # a mesh that divides T in decimals lands within about 2 ulps of T
        # (dt's rounding times n_steps, the product's and T's): allow 4
        if abs(self.n_steps * self.dt - self.T) > 4 * math.ulp(self.T):
            raise DomainError(f"grid mesh {self.dt} does not divide horizon {self.T} evenly")

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


def _chunk_draws(seed: int, first_path: int, n_paths: int, n_steps: int):
    """Standard normals of paths first_path .. first_path + n_paths - 1.

    ``first_path`` starts a chunk: a multiple of ``_BLOCK_PATHS``, with
    n_paths at most ``_BLOCK_PATHS``.  The chunk's own stream is drawn
    path-major into one reused buffer, as many whole paths at a time as fit
    in ``_DRAW_FLOATS`` normals, at least one (splitting a fill does not
    change the stream); each draw is yielded as (offset in the chunk, (k,
    n_steps) view of the buffer), valid until the next one.  The stream is
    ``PCG64DXSM(seed).jumped(chunk)``: seeded through SeedSequence, which
    hashes every word of the seed, so two seeds never share a stream except
    by a hash collision.  SeedSequence would take any integer past 2**64 too
    and refuse a negative one with a bare ``ValueError``; a seed outside [0,
    2**64), the documented domain, raises ``DomainError``.
    """
    if not 0 <= operator.index(seed) < 2**64:  # a float seed raises TypeError
        raise DomainError(f"seed must be an integer in [0, 2**64), got {seed}")
    chunk = first_path // _BLOCK_PATHS
    gen = np.random.Generator(np.random.PCG64DXSM(seed).jumped(chunk))
    per_draw = max(1, _DRAW_FLOATS // n_steps)
    buf = np.empty((min(per_draw, n_paths), n_steps))
    for a in range(0, n_paths, per_draw):
        k = min(per_draw, n_paths - a)
        gen.standard_normal(out=buf[:k])
        yield a, buf[:k]


def _on_chunks(fn, n_paths: int) -> None:
    """fn(first_path) for every chunk of n_paths paths, on ``VOC_THREADS``
    threads, else as many as the usable CPUs (the draws release the GIL)."""
    starts = range(0, n_paths, _BLOCK_PATHS)
    with ThreadPoolExecutor(max_workers=max(1, min(_resolve_workers(), len(starts)))) as pool:
        list(pool.map(fn, starts))


def gaussian_increments(seed: int, n_paths: int, n_steps: int, dt: float,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Increment matrix dW ~ Normal(0, dt), shape (n_paths, n_steps).

    Path p is draw p mod ``_BLOCK_PATHS`` of chunk p // ``_BLOCK_PATHS``'s
    stream, ``PCG64DXSM(seed).jumped(p // _BLOCK_PATHS)`` (see the module
    docstring): n_steps standard normals (numpy's ziggurat) times sqrt(dt).
    The result is stored step-major: it is the transpose of a C-contiguous
    (n_steps, n_paths) array, or of ``out`` when given (a float64 array of
    that shape, rows may be strided), which is filled in place.  The chunks
    are drawn on ``VOC_THREADS`` threads, else as many as the usable CPUs;
    the values never depend on the count.
    """
    for name, value in (("n_paths", n_paths), ("n_steps", n_steps), ("dt", dt)):
        if not 0 < value < math.inf:
            raise DomainError(f"{name} must be positive and finite, got {value}")
    if out is None:
        out = np.empty((n_steps, n_paths))
    elif out.shape != (n_steps, n_paths) or out.dtype != np.float64:
        raise ValueError(f"out must be float64 of shape {(n_steps, n_paths)}, "
                         f"got {out.dtype} {out.shape}")
    scale = math.sqrt(dt)

    def fill(first):
        u = out[:, first : first + _BLOCK_PATHS]
        for a, z in _chunk_draws(seed, first, u.shape[1], n_steps):
            np.multiply(z.T, scale, out=u[:, a : a + len(z)])

    _on_chunks(fill, n_paths)
    return out.T


def _resolve_workers() -> int:
    env = os.environ.get("VOC_THREADS", "")
    try:
        workers = int(env) if env else _usable_cpus()
    except ValueError:
        workers = 0  # refused below, as a count below 1 is
    if workers < 1:
        raise ConfigError(f"VOC_THREADS must be a positive integer, got {env!r}")
    return workers


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _control_values(control, nodes) -> np.ndarray:
    """The control on ``nodes``: one call on the node array, whose result
    (a constant included) is broadcast to the nodes' shape, or one call per
    node when the control cannot take an array (it raises ``TypeError`` or
    ``ValueError``, or returns something that does not broadcast)."""
    try:
        vals = np.broadcast_to(np.asarray(control(nodes), dtype=float), nodes.shape)
    except (TypeError, ValueError):
        vals = np.array([float(control(t)) for t in nodes])
    if not np.all(np.isfinite(vals)):
        raise SimulationError("control produced non-finite values")
    return vals


def _kernel_table(problem: ControlProblem, grid: TimeGrid) -> np.ndarray:
    if abs(grid.T - problem.T) > 4 * math.ulp(problem.T):  # TimeGrid's rounding rule
        raise DomainError("grid horizon does not match the problem horizon")
    # tabulate once; the inner loops only ever need K on the grid offsets
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite table is rejected below
        ktab = problem.kernel(grid.nodes)
    if not np.all(np.isfinite(ktab)):
        raise NumericRangeError("kernel produced non-finite values on the grid")
    return ktab


def _toeplitz(rr: np.ndarray, lag: int, rows: int, cols: int) -> np.ndarray:
    """Contiguous T[i, j] = r[lag + i - j], zero where the lag is <= 0.

    ``rr`` is a reversed column rr[n - m] = r[m], m = 1..n, followed by n
    zeros; row i of T is window n - lag - i of it.
    """
    n = len(rr) // 2
    windows = sliding_window_view(rr, cols)
    return windows[n - lag - np.arange(rows)]


@np.errstate(over="ignore", invalid="ignore")  # the caller rejects non-finite states
def _simulate_block(X, cc, m, buf, n_real) -> bool:
    """Paths of one (n_steps + 1) x paths block whose rows 1.. hold dW on
    entry; False if a state of its first ``n_real`` columns is not finite.

    Stripe (a, b] has b - a = min(max(a, _LEAF_STEPS), _STRIPE) rows, and the
    stripes run from the last to the first: each is one GEMM of the Toeplitz
    block of ``cc`` (sigma c reversed as ``_toeplitz`` reads it) against rows
    1..b, none yet overwritten, into ``buf`` (flat, room for the tallest
    stripe), which adds m's rows and is checked before it is copied into rows
    a+1..b.
    """
    n_steps, width = X.shape[0] - 1, X.shape[1]
    bounds = [0]
    while bounds[-1] < n_steps:
        a = bounds[-1]
        bounds.append(min(n_steps, a + min(max(a, _LEAF_STEPS), _STRIPE)))
    finite = True
    for a, b in reversed(list(zip(bounds, bounds[1:]))):
        out = buf[: (b - a) * width].reshape(b - a, width)
        np.matmul(_toeplitz(cc, a + 1, b - a, b), X[1 : b + 1], out=out)
        out += m[a + 1 : b + 1, None]
        finite = finite and bool(np.isfinite(out[:, :n_real]).all())
        X[a + 1 : b + 1] = out
    X[0] = m[0]
    return finite


def simulate_paths(problem: ControlProblem, control, grid: TimeGrid, n_paths: int,
                   seed: int) -> PathBatch:
    """Simulate n_paths goodwill trajectories under a deterministic control.

    ``paths`` of the returned batch is a transposed view of the time-major
    (steps x paths) storage.  A non-finite mean raises ``NumericRangeError``
    before any noise is drawn.
    """
    if n_paths < 1:
        raise DomainError(f"n_paths must be >= 1, got {n_paths}")
    n_steps, dt = grid.n_steps, grid.dt
    m, c = _mean(problem, _control_values(control, grid.nodes), grid)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite state is rejected below
        cc = np.concatenate((problem.sigma * c[:0:-1], np.zeros(n_steps)))
    n_padded = -(-n_paths // _PAD) * _PAD
    X = np.empty((n_steps + 1, n_padded))
    gaussian_increments(seed, n_padded, n_steps, dt, out=X[1:])
    buf = np.empty(min(_STRIPE, n_steps) * min(_BLOCK_PATHS, n_padded))
    for a in range(0, n_padded, _BLOCK_PATHS):
        Xb = X[:, a : a + _BLOCK_PATHS]
        if not _simulate_block(Xb, cc, m, buf, n_paths - a):
            _check_finite(Xb[:, : n_paths - a], a, dt)
    return PathBatch(paths=X[:, :n_paths].T)


def _check_finite(Xb: np.ndarray, first_path: int, dt: float, first_step: int = 0) -> None:
    """Raise naming the first non-finite state of a (steps x paths) block
    whose rows start at ``first_step``: the lowest path, at the earliest
    step it has one."""
    bad = ~np.isfinite(Xb)
    if bad.any():
        p = int(np.argmax(bad.any(axis=0)))
        i = first_step + int(np.argmax(bad[:, p]))
        raise SimulationError(
            f"simulation produced a non-finite state on path {first_path + p} "
            f"at step {i} (t = {i * dt:.6g})"
        )


def _terminal_states(problem: ControlProblem, u: np.ndarray, grid: TimeGrid, n_paths: int,
                     seed: int) -> np.ndarray:
    """X(T) = m_N + ws @ z of paths 0..n_paths-1 for the control ``u`` on the
    nodes: z the path's normals as ``simulate_paths`` draws them and ws =
    sigma sqrt(dt) (c_N, .., c_1) (see the module docstring)."""
    n_steps, dt = grid.n_steps, grid.dt
    m, c = _mean(problem, u, grid)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite X(T) is rejected below
        ws = c[:0:-1] * (problem.sigma * math.sqrt(dt))
    xT = np.empty(n_paths)

    @np.errstate(over="ignore", invalid="ignore")  # pool threads keep their own error state
    def reduce(first):
        out = xT[first : first + _BLOCK_PATHS]
        for a, z in _chunk_draws(seed, first, len(out), n_steps):
            np.einsum("ij,j->i", z, ws, out=out[a : a + len(z)])
        out += m[-1]

    _on_chunks(reduce, n_paths)
    _check_finite(xT[None], 0, dt, first_step=n_steps)
    return xT


def _trapezoid_resolvent(problem: ControlProblem, grid: TimeGrid):
    """(ktab, rho, c): the kernel table, rho = dt r with r the resolvent of
    the trapezoidal column a, and the noise column c = r - a[0] (e_0 - beta
    rho) (see the module docstring); the caller rejects non-finite results."""
    ktab = _kernel_table(problem, grid)
    a = np.concatenate(([0.5 * ktab[0]], ktab[1:]))
    with np.errstate(over="ignore", invalid="ignore"):
        r = _resolvent(a, problem.beta * grid.dt)
        rho = grid.dt * r
        c = r + a[0] * (problem.beta * rho)
    c[0] = 0.0
    return ktab, rho, c


def _mean(problem: ControlProblem, u: np.ndarray, grid: TimeGrid):
    """(m, c): the scheme's mean m for the control ``u`` on the nodes and the
    noise column c, off one ``_trapezoid_resolvent`` call.

    With v = alpha u and s_i = x0 + dt K_i (v_0 - beta x0) / 2 the t_0 term,
    m_0 = x0 and m_i = s_i + sum_{j=1}^{i} rho[i-j] (v_j - beta s_j).  A
    non-finite m_i raises ``NumericRangeError`` naming the first such step.
    """
    beta, dt, x0, n_steps = problem.beta, grid.dt, problem.x0, grid.n_steps
    ktab, rho, c = _trapezoid_resolvent(problem, grid)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite mean is rejected below
        v = problem.alpha * u
        s = x0 + 0.5 * dt * ktab[1:] * (v[0] - beta * x0)
        m = np.concatenate(([x0], s + np.convolve(rho[:-1], v[1:] - beta * s)[:n_steps]))
    bad = ~np.isfinite(m)
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericRangeError(f"mean equation produced a non-finite state at step {i} "
                                f"(t = {i * dt:.6g})")
    return m, c


def deterministic_mean(problem: ControlProblem, control, grid: TimeGrid) -> np.ndarray:
    """Mean goodwill on the grid, the scheme's m (see ``_mean``)."""
    return _mean(problem, _control_values(control, grid.nodes), grid)[0]
