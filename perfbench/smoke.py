"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Run from the root of a source checkout.  It checks that

* every workload, untraced and traced, prints a correct result whose metrics
  are exactly the ones BENCHMARK.json lists, each with its unit;
* a deliberately wrong reference, and an op that raises, count as failed ops;
* run.py exits non-zero, printing no result, where only BENCHMARK.json and
  perfbench/ exist.
"""

import io
import json
import math
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stderr
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(spec):
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload list drifted"
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = _run(ROOT, name, trace)
            assert proc.returncode == 0, (name, trace, proc.stderr[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (name, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], (name, trace, set(got) ^ set(expected[trace]))
            for key, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), (name, key, v)
            print(f"smoke: {name} trace={trace}: {len(got)} metrics")


# Each corruption makes the check compare against a wrong reference.
WRONG_REFERENCE = {
    "mc_objective": lambda st: st.update(j_ref=st["j_ref"] + 1.0),
    "free_variance": lambda st: st.update(targets=[2.0 * t for t in st["targets"]]),
    "fine_mesh_solve": lambda st: st.update(jgap_max=-1.0),
    "cli_configs": lambda st: st.update(reference={"control.json": "0" * 64}),
}


def check_failures():
    work = ROOT / ".perfbench_work" / "smoke"
    for name, wl in WORKLOADS.items():
        state = wl.setup(3, True, str(work))
        WRONG_REFERENCE[name](state)
        with redirect_stderr(io.StringIO()):  # the expected failure reports
            failed = worker.run_ops(wl, state, 0.0, random.Random(0), min_ops=1)[2]
        assert failed == 1, f"{name}: a wrong reference did not fail the op"
    state = WORKLOADS["mc_objective"].setup(3, True, str(work))
    state["n_paths"] = 1  # evaluate_J_mc raises on fewer than two paths
    with redirect_stderr(io.StringIO()):
        failed = worker.run_ops(WORKLOADS["mc_objective"], state, 0.0, random.Random(0), min_ops=1)[2]
    assert failed == 1, "an op that raised did not count as failed"
    shutil.rmtree(work, ignore_errors=True)
    print("smoke: wrong references and raising ops count as failed")


def check_bare_dir():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "cli_configs", 0)
        assert proc.returncode != 0, "run.py succeeded without the voctrl sources"
        assert '"metrics"' not in proc.stdout, "run.py printed a result without the voctrl sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: bare benchmark directory exits non-zero without a result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_failures()
    check_bare_dir()
    check_metrics(spec)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
