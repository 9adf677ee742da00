"""Spans around voctrl's module functions, recorded from outside the package.

``install`` replaces each function named in ``TARGETS`` with a wrapper,
everywhere voctrl holds a reference to it (the package namespace and every
``from .x import f`` copy), and patches the ``__call__`` of the kernel,
Bernstein and control-polynomial classes.  voctrl itself is not modified.

A span is ``[name, start, end, parent, op_id]``; spans nest on one thread,
so a span's self time is its duration minus the summed durations of its
direct children.  ``end_op`` folds one op's spans into per-name totals and
drops them, which keeps memory flat over long runs.
"""

import inspect
import math
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


def _hook_simulate(tr, a):
    P, N = int(a["n_paths"]), a["grid"].n_steps
    tr.counts["euler_flops"] += P * N * (N + 1)  # sum_i 2 P i, one GEMV per step
    tr.peak("state_bytes", 8 * P * (2 * N + 1))  # paths (N+1) + increments (N)


def _hook_noise(tr, a):
    P, N = int(a["n_paths"]), int(a["n_steps"])
    tr.counts["noise_words_used"] += P * N
    tr.counts["noise_words_drawn"] += P * 4 * max(1, math.ceil(N / 4))


def _hook_mc(tr, a):
    P, N = int(a["n_paths"]), a["grid"].n_steps
    tr.counts["mc_values_used"] += P
    tr.counts["mc_values_stored"] += P * (N + 1)


def _hook_oracle(tr, a):
    N = a["grid"].n_steps
    tr.peak("oracle_dense_bytes", 2 * 8 * (N + 1) ** 2)  # A and I + beta A


# (module, attribute, span name, hook).  A hook sees the bound arguments of
# each call and adds the work it implies to the tracer's counters.
TARGETS = (
    ("voctrl.kernels", "Kernel.__call__", "kernels.eval", None),
    ("voctrl.bernstein", "BernsteinKernel.__call__", "bernstein.eval", None),
    ("voctrl.bernstein", "bernstein_kernel", "bernstein.coeffs", None),
    ("voctrl.bernstein", "uniform_error_report", "bernstein.error_report", None),
    ("voctrl.lift", "lift_from_coefficients", "lift.lift", None),
    ("voctrl.lift", "gamma_table", "lift.gamma", None),
    ("voctrl.control", "ControlPolynomial.__call__", "control.eval", None),
    ("voctrl.control", "optimal_control_poly", "control.assemble", None),
    ("voctrl.control", "value_function", "control.value_function", None),
    ("voctrl.control", "monomial_closed_form", "control.closed_form", None),
    ("voctrl.mittag_leffler", "mittag_leffler", "mittag_leffler", None),
    ("voctrl.simulate", "simulate_paths", "simulate.euler", _hook_simulate),
    ("voctrl.simulate", "gaussian_increments", "simulate.noise", _hook_noise),
    ("voctrl.simulate", "deterministic_mean", "simulate.mean", None),
    ("voctrl.objective", "evaluate_J_mc", "objective.mc", _hook_mc),
    ("voctrl.objective", "evaluate_J_deterministic", "objective.deterministic", None),
    ("voctrl.objective", "lq_oracle", "objective.oracle", _hook_oracle),
    ("voctrl.config", "load_config", "config.load", None),
    ("voctrl.cli", "cmd_kernel_approx", "cli.kernel_approx", None),
    ("voctrl.cli", "cmd_control", "cli.control", None),
    ("voctrl.cli", "cmd_simulate", "cli.simulate", None),
    ("voctrl.cli", "cmd_oracle", "cli.oracle", None),
    ("voctrl.cli", "cmd_convergence", "cli.convergence", None),
    ("voctrl.cli", "_write_csv", "cli.write", None),
    ("voctrl.cli", "_write_json", "cli.write", None),
)

SPAN_NAMES = sorted({t[2] for t in TARGETS})
LAYERS = sorted({name.split(".")[0] for name in SPAN_NAMES})


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = 0
        self.errors = defaultdict(int)  # layer -> spans that raised
        self.counts = defaultdict(float)  # summed over ops
        self.peaks = defaultdict(float)  # max over ops
        self.self_s = defaultdict(float)  # span name -> self seconds, summed over ops
        self.calls = defaultdict(int)  # span name -> calls, summed over ops
        self.covered_s = 0.0  # op time under some top-level span
        self.op_s = []  # wall seconds of each traced op

    def peak(self, key, value):
        self.peaks[key] = max(self.peaks[key], value)

    def wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self.stack, _clock
        layer = name.split(".")[0]
        sig = inspect.signature(fn) if hook is not None else None
        tracer = self

        def traced(*args, **kwargs):
            if sig is not None:
                hook(tracer, sig.bind(*args, **kwargs).arguments)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def end_op(self, op_seconds):
        """Fold the spans of the op that just ended into the totals."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        for s, c in zip(spans, child):
            d = s[2] - s[1]
            self.self_s[s[0]] += d - c
            self.calls[s[0]] += 1
            if s[3] < 0:
                self.covered_s += d
        spans.clear()
        self.op_s.append(op_seconds)
        self.op_id += 1


def install(tracer):
    """Route every call into the traced voctrl functions through ``tracer``."""
    modules = [m for n, m in list(sys.modules.items()) if n == "voctrl" or n.startswith("voctrl.")]
    for modname, attr, name, hook in TARGETS:
        owner = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(name, vars(cls)[meth], hook))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
