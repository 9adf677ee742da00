"""One benchmark process: set up one workload, then run its ops in a closed loop.

Spawned by run.py, never by hand:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                                --work-dir D [--tiny] [--setup-only]

It prints ``READY`` as soon as setup is done (run.py times ``setup_s`` up to
that line), then one warm-up op that is checked but not timed, then timed
ops until the next one would overrun ``--seconds``.  One client, closed loop:
an op starts only when the previous one has ended.  The last line of output
is one JSON object with the raw per-op records and, with ``--trace 1``, the
per-layer metrics.

With ``--trace 1`` the first half of the time runs untraced and the second
half traced, so the tracing overhead is measured in the same process;
tracemalloc runs only after the traced half, for one extra untimed op.
"""

import argparse
import json
import random
import resource
import statistics
import sys
import time
import traceback
import tracemalloc

import envinfo
import tracer as tracing
from workloads import WORKLOADS

MIN_OPS = 3


def run_ops(wl, state, seconds, rng, tr=None, min_ops=MIN_OPS):
    """Closed loop for ``seconds``; returns (wall seconds, cpu seconds, failed count)."""
    walls, cpus, failed = [], [], 0
    start = time.perf_counter()
    while True:
        if wl.prepare is not None:
            wl.prepare(state)
        op_seed = rng.randrange(1, 2**62)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result, error = wl.op(state, op_seed), None
        except Exception:
            result, error = None, traceback.format_exc(limit=3)
        w1, c1 = time.perf_counter(), time.process_time()
        if tr is not None:
            tr.end_op(w1 - w0)
        if error is None:
            try:
                wl.check(state, result)
            except Exception:
                error = traceback.format_exc(limit=1)
        if error is not None:
            failed += 1
            print(f"op {len(walls)} of {wl.name} failed:\n{error}", file=sys.stderr)
        walls.append(w1 - w0)
        cpus.append(c1 - c0)
        elapsed = time.perf_counter() - start
        if len(walls) >= min_ops and elapsed + statistics.median(walls) > seconds:
            return walls, cpus, failed


def _span_metric(span):
    return f"{span}_s" if "." in span else f"{span}.s"


def layer_metrics(tr, state, untraced_walls):
    """Per-op means of self time and counts over the traced ops."""
    n = len(tr.op_s)
    c = tr.counts
    m = {}
    for span in tracing.SPAN_NAMES:
        m[_span_metric(span)] = (tr.self_s[span] / n, "s")
    for span in ("kernels.eval", "bernstein.eval", "control.eval"):
        m[f"{span}_calls"] = (tr.calls[span] / n, "count")
    m["other_s"] = ((sum(tr.op_s) - tr.covered_s) / n, "s")
    euler_s = tr.self_s["simulate.euler"]
    m["simulate.euler_gflops"] = (c["euler_flops"] / euler_s / 1e9 if euler_s > 0 else 0.0, "GFLOP/s")
    drawn = c["noise_words_drawn"]
    m["simulate.noise_useful_ratio"] = (c["noise_words_used"] / drawn if drawn else 0.0, "ratio")
    m["simulate.state_mib"] = (tr.peaks["state_bytes"] / 2**20, "MiB")
    stored = c["mc_values_stored"]
    m["objective.mc_used_fraction"] = (c["mc_values_used"] / stored if stored else 0.0, "ratio")
    m["objective.oracle_dense_mib"] = (tr.peaks["oracle_dense_bytes"] / 2**20, "MiB")
    m["cli.bytes_written"] = (float(state.get("bytes", 0)), "bytes")  # per pass
    m["cli.nonfinite_json_values"] = (float(state.get("nonfinite", 0)), "count")  # per pass
    for layer in tracing.LAYERS:
        m[f"{layer}.errors"] = (float(tr.errors[layer]), "count")
    traced_p50 = statistics.median(tr.op_s)
    untraced_p50 = statistics.median(untraced_walls)
    m["traced_op_s_p50"] = (traced_p50, "s")
    m["untraced_op_s_p50"] = (untraced_p50, "s")
    m["trace_overhead_s"] = (traced_p50 - untraced_p50, "s")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    state = wl.setup(args.seed, args.tiny, args.work_dir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    rng = random.Random(f"{args.workload}:{args.seed}:ops")
    # one untimed warm-up op: lazy imports, caches, reference artifacts
    out = {"untimed_ops": 1, "untimed_failed": run_ops(wl, state, 0.0, rng, min_ops=1)[2]}
    if args.trace:
        walls, cpus, failed = run_ops(wl, state, args.seconds / 2, rng, min_ops=2)
        tr = tracing.Tracer()
        tracing.install(tr)
        t_walls, t_cpus, t_failed = run_ops(wl, state, args.seconds / 2, rng, tr=tr, min_ops=2)
        out["layers"] = layer_metrics(tr, state, walls)
        walls, cpus, failed = walls + t_walls, cpus + t_cpus, failed + t_failed
        # tracemalloc slows every allocation several-fold, so it gets one
        # untimed op of its own instead of skewing the span times
        tracemalloc.start()
        out["untimed_ops"] += 1
        out["untimed_failed"] += run_ops(wl, state, 0.0, rng, min_ops=1)[2]
        out["layers"]["simulate.peak_traced_mib"] = (tracemalloc.get_traced_memory()[1] / 2**20, "MiB")
        tracemalloc.stop()
    else:
        walls, cpus, failed = run_ops(wl, state, args.seconds, rng)
    out.update(
        op_s=walls,
        cpu_s=cpus,
        failed=failed,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=envinfo.environment(),
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
