"""z-scores of the benchmark's Monte-Carlo op, run in process.

    python3 scripts/mc_zscan.py [--seed N] [--ops K]

loads ``perfbench/workloads.py`` by path, as
``tests/test_perfbench_workloads.py`` does, sets ``mc_objective`` up for
``--seed`` and runs its op and check for K op seeds, drawn as the benchmark
worker draws them: ``random.Random(f"mc_objective:{seed}:ops")``, one
``randrange(1, 2**62)`` per op.  Each op gives z = (J_mc - J_det) / SE, and
the check fails it when |z| > 4.  Prints every failed op, then the mean and
sd of z and max |z|.

With sound noise z is close to standard normal: its sample sd is 1 with a
standard error of about 0.018 at 1500 ops, and |z| > 4 in about 6e-5 of the
ops.  Noise chunks that repeat or correlate leave SE as it is and widen z.
Run it after any change to the noise stream, before any benchmark run.
"""

import argparse
import importlib.util
import random
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = "mc_objective"


def _load_workloads():
    source = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", source)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1, help="the benchmark's --seed (default 1)")
    ap.add_argument("--ops", type=int, default=1500, help="ops to run (default 1500)")
    args = ap.parse_args(argv)
    if args.ops < 2:
        ap.error("--ops must be at least 2")

    sys.path.insert(0, str(ROOT / "src"))  # this checkout's voctrl, as the benchmark imports it
    wl = _load_workloads()[WORKLOAD]
    with tempfile.TemporaryDirectory() as work_dir:
        state = wl.setup(args.seed, False, work_dir)
    rng = random.Random(f"{WORKLOAD}:{args.seed}:ops")
    z, failed = [], 0
    for k in range(args.ops):
        op_seed = rng.randrange(1, 2**62)
        try:
            report = wl.op(state, op_seed)
            z.append((report.j_estimate - state["j_ref"]) / report.std_error)
            wl.check(state, report)
        except Exception:
            failed += 1
            print(f"op {k} (op seed {op_seed}) failed:\n{traceback.format_exc(limit=1)}")
    print(f"{WORKLOAD} seed {args.seed}: {args.ops} ops, {failed} failed")
    print(f"z: mean {statistics.fmean(z):.4f}, sd {statistics.stdev(z):.4f}, "
          f"max |z| {max(map(abs, z)):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
