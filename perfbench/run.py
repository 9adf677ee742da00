"""voctrl benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` with no install step.  Workloads, metrics and bounds are listed in
BENCHMARK.json and explained in perfbench/README.md.

Each run starts fresh worker processes (perfbench/worker.py) with
``VOC_THREADS`` and the BLAS thread variables removed, so the library runs on
the defaults users get.  ``setup_s`` is the median over SETUP_SAMPLES
processes of the time from spawning one to its ``READY`` line: interpreter
start, imports and input construction.  The last of them goes on to run the
ops.  The last line printed is the result object; the lines before it record
the machine and the raw per-op samples.
"""

import argparse
import contextlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run, setup samples included
THREAD_VARS = ("VOC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunError(Exception):
    pass


def _child_env():
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _wait_ready(proc, deadline):
    """Block until the worker prints READY; return the time it was read."""
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            raise RunError("worker did not finish setup before the deadline")
        ready, _, _ = select.select([proc.stdout], [], [], left)
        if ready:
            # unbuffered pipe: readline takes exactly one line, so nothing
            # is left in a buffer that communicate() would not see
            line = proc.stdout.readline()
            if line == b"":
                raise RunError(f"worker exited during setup (code {proc.wait()})")
            if line.strip() == b"READY":
                return time.perf_counter()


def _spawn(worker_args, deadline, setup_only):
    cmd = [sys.executable, str(HERE / "worker.py"), *worker_args]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, env=_child_env(), cwd=ROOT)
    try:
        setup_s = _wait_ready(proc, deadline) - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunError("worker did not finish before the deadline") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return setup_s, out.decode()


def run(args):
    if not (ROOT / "src" / "voctrl" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        raise RunError(f"no voctrl source tree (src/voctrl, configs/) under {ROOT}")
    deadline = time.monotonic() + DEADLINE_S
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    worker_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace), "--work-dir", str(work_dir)]
    if args.tiny:
        worker_args.append("--tiny")
    try:
        samples = 2 if args.tiny else SETUP_SAMPLES
        setup = [_spawn(worker_args, deadline, True)[0] for _ in range(samples - 1)]
        setup_s, out = _spawn(worker_args, deadline, False)
        setup.append(setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()  # only if no other run is using it
    try:
        rec = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise RunError("worker printed no result") from exc

    # untimed ops (warm-up, tracemalloc) are checked too
    attempted = len(rec["op_s"]) + rec["untimed_ops"]
    failed = rec["failed"] + rec["untimed_failed"]
    if args.trace:
        metrics = dict(rec["layers"])
        metrics["failed_share"] = (failed / attempted, "ratio")
    else:
        metrics = {
            "op_s_p50": (statistics.median(rec["op_s"]), "s"),
            "cpu_s_p50": (statistics.median(rec["cpu_s"]), "s"),
            "peak_rss_mib": (rec["peak_rss_mib"], "MiB"),
            "setup_s": (statistics.median(setup), "s"),
            "ok_share": (1.0 - failed / attempted, "ratio"),
        }
    print(json.dumps({"environment": rec["environment"]}))
    print(json.dumps({"samples": {"ops_timed": len(rec["op_s"]), "op_s": rec["op_s"],
                                  "cpu_s": rec["cpu_s"], "setup_s": setup}}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("mc_objective", "free_variance", "fine_mesh_solve", "cli_configs"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes (perfbench/smoke.py)")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so running workers are killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
