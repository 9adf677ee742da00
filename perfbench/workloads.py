"""The four benchmark workloads: inputs from a seed, one op, and its check.

Each workload is a ``Workload`` with three functions:

* ``setup(seed, tiny, work_dir)`` builds every input the ops need (problem,
  control polynomial, grid, parsed configs) and the reference values the
  checks compare against; the benchmark times it as ``setup_s``.
* ``op(state, op_seed)`` is the timed unit of work.  It calls voctrl only
  through module attributes looked up at call time, so the tracer's wrappers
  see every call.
* ``check(state, result)`` runs untimed and raises ``CheckFailed`` when the
  op's output is wrong; a failed check counts as a failed op.

``tiny`` shrinks every size for the smoke test; the timed benchmark always
runs the full sizes.
"""

import dataclasses
import hashlib
import io
import json
import math
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import voctrl
import voctrl.cli


class CheckFailed(Exception):
    """An op returned, but its output failed the workload's correctness check."""


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    op: object
    check: object
    prepare: object = None  # untimed, before each op


def _problem(kernel, beta=1.0, x0=0.0):
    return voctrl.ControlProblem(alpha=1.0, beta=beta, sigma=1.0, a1=1.0, a2=1.0, x0=x0, kernel=kernel)


# ---------------------------------------------------------------- mc_objective
# Monte-Carlo validation of the t^0.3 control at the acceptance suite's mesh:
# the feedback Euler loop dominates, noise is the rest.


def _mc_setup(seed, tiny, work_dir):
    problem = _problem(voctrl.FractionalKernel(T=2.0, exponent=0.3))
    control = voctrl.optimal_control_poly(problem, 20, 50)
    grid = voctrl.TimeGrid(T=2.0, dt=0.01 if tiny else 0.005)
    j_det = voctrl.evaluate_J_deterministic(problem, control, grid).j_estimate
    return {"problem": problem, "control": control, "grid": grid,
            "n_paths": 1000 if tiny else 20_000, "j_ref": j_det}


def _mc_op(st, op_seed):
    return voctrl.evaluate_J_mc(st["problem"], st["control"], st["grid"], st["n_paths"], seed=op_seed)


def _mc_check(st, report):
    dev = abs(report.j_estimate - st["j_ref"])
    if not (math.isfinite(report.j_estimate) and dev <= 4.0 * report.std_error):
        raise CheckFailed(f"|J_mc - J_det| = {dev:.3g} exceeds 4 SE = {4.0 * report.std_error:.3g}")


# --------------------------------------------------------------- free_variance
# Zero control without forgetting on t^0, t^1, t^2 at test_8's mesh: no
# feedback loop, so noise generation and the beta == 0 convolution dominate.
# X(T) is Gaussian with Ito-isometry variance T^(2N+1)/(2N+1).

DEGREES = (0, 1, 2)


def _zero_control(t):
    return 0.0


def _fv_setup(seed, tiny, work_dir):
    T = 2.0
    problems = [_problem(voctrl.MonomialKernel(T=T, degree=d), beta=0.0) for d in DEGREES]
    targets = [T ** (2 * d + 1) / (2 * d + 1) for d in DEGREES]
    grid = voctrl.TimeGrid(T=T, dt=0.01 if tiny else 0.0025)
    return {"problems": problems, "targets": targets, "grid": grid,
            "n_paths": 2000 if tiny else 20_000}


def _fv_op(st, op_seed):
    out = []
    for k, problem in enumerate(st["problems"]):
        batch = voctrl.simulate_paths(problem, _zero_control, st["grid"], st["n_paths"], seed=op_seed + k)
        out.append(float(batch.paths[:, -1].var(ddof=1)))
    return out


def _fv_check(st, variances):
    P = st["n_paths"]
    for d, v, target in zip(DEGREES, variances, st["targets"]):
        se = target * math.sqrt(2.0 / (P - 1))
        if not abs(v - target) <= 4.0 * se:
            raise CheckFailed(f"t^{d}: variance {v:.6g} vs Ito {target:.6g} beyond 4 SE ({se:.3g})")


# ------------------------------------------------------------- fine_mesh_solve
# Oracle cross-check at the dense oracle's step cap: per-node scalar kernel
# and control evaluation plus the dense triangular algebra, no Monte-Carlo.
# The control does not depend on x0 and the objective gap is invariant to it,
# so the seed picks x0 without moving the check limits.


def _fm_setup(seed, tiny, work_dir):
    x0 = random.Random(f"fine_mesh_solve:{seed}").uniform(-0.5, 0.5)
    kernels = [
        voctrl.FractionalKernel(T=2.0, exponent=0.3),
        voctrl.FractionalKernel(T=2.0, exponent=1.1, holder_h=1.0, holder_H=1.1 * 2.0**0.1),
        voctrl.GammaKernel(T=2.0, rate=1.0, exponent=0.3),
    ]
    cases = []
    for kernel in kernels:
        problem = _problem(kernel, x0=x0)
        control = voctrl.optimal_control_poly(problem, 20, 50)
        lifted = dataclasses.replace(problem, kernel=voctrl.bernstein_kernel(kernel, 20))
        cases.append((type(kernel).__name__, lifted, control))
    grid = voctrl.TimeGrid(T=2.0, dt=0.05 if tiny else 0.001)
    return {"cases": cases, "grid": grid, "gap_max": 1e-2, "jgap_max": 1e-3}


def _fm_op(st, op_seed):
    grid = st["grid"]
    out = []
    for name, lifted, control in st["cases"]:
        oracle = voctrl.lq_oracle(lifted, grid)
        gap = float(np.abs(oracle.u_values - control(grid.nodes)).max())
        j_hat = voctrl.evaluate_J_deterministic(lifted, control, grid).j_estimate
        out.append((name, gap, oracle.j_opt - j_hat))
    return out


def _fm_check(st, rows):
    for name, gap, jgap in rows:
        if not gap <= st["gap_max"]:
            raise CheckFailed(f"{name}: control gap {gap:.3g} > {st['gap_max']}")
        if not 0.0 <= jgap <= st["jgap_max"]:
            raise CheckFailed(f"{name}: J_opt - J_hat = {jgap:.3g} outside [0, {st['jgap_max']}]")


# ----------------------------------------------------------------- cli_configs
# Every CLI command on every shipped config, in process, into a scratch
# directory.  Artifacts must be byte-identical across passes of one run.

CONFIGS = ("fractional", "gamma", "monomial_sweep", "smooth")
COMMANDS = (
    ("kernel-approx",),
    ("control",),
    ("simulate",),
    ("oracle",),
    ("convergence", "--n-list", "1,2,5,10,20"),
)


def _cli_argvs(config_dir, out_dir, sim_seed, tiny):
    argvs = []
    for cfg in CONFIGS[:1] if tiny else CONFIGS:
        for cmd in COMMANDS:
            extra = ("--n", "1,2,5,10") if cmd[0] == "control" and cfg == "monomial_sweep" else ()
            if tiny and cmd[0] == "simulate":
                extra = ("--n-paths", "20")
            argvs.append(["--config", str(config_dir / f"{cfg}.ini"), "--output-dir",
                          str(out_dir / cfg), "--seed", str(sim_seed), *cmd, *extra])
    return argvs


def _cli_setup(seed, tiny, work_dir):
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    for c in CONFIGS:  # a broken shipped config stops the run before any op
        voctrl.config.load_config(config_dir / f"{c}.ini")
    out_dir = Path(work_dir) / "cli_out"
    sim_seed = random.Random(f"cli_configs:{seed}").randrange(1, 2**31)
    return {"argvs": _cli_argvs(config_dir, out_dir, sim_seed, tiny), "out_dir": out_dir,
            "reference": None, "nonfinite": 0, "bytes": 0}


def _cli_prepare(st):
    shutil.rmtree(st["out_dir"], ignore_errors=True)


def _cli_op(st, op_seed):
    sink = io.StringIO()
    codes = []
    with redirect_stdout(sink), redirect_stderr(sink):
        for argv in st["argvs"]:
            codes.append(voctrl.cli.main(argv))
    return codes


def _count_nonfinite(obj):
    if isinstance(obj, float):
        return 0 if math.isfinite(obj) else 1
    if isinstance(obj, dict):
        return sum(_count_nonfinite(v) for v in obj.values())
    if isinstance(obj, list):
        return sum(_count_nonfinite(v) for v in obj)
    return 0


def _cli_check(st, codes):
    bad = [(" ".join(a[-3:]), c) for a, c in zip(st["argvs"], codes) if c != 0]
    if bad:
        raise CheckFailed(f"non-zero exit codes: {bad}")
    digests, nonfinite, nbytes = {}, 0, 0
    for path in sorted(st["out_dir"].rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        nbytes += len(data)
        digests[str(path.relative_to(st["out_dir"]))] = hashlib.sha256(data).hexdigest()
        if path.suffix == ".json":
            nonfinite += _count_nonfinite(json.loads(data))
    st["nonfinite"], st["bytes"] = nonfinite, nbytes
    if st["reference"] is None:
        st["reference"] = digests
    elif digests != st["reference"]:
        changed = sorted(set(digests.items()) ^ set(st["reference"].items()))
        raise CheckFailed(f"artifacts differ from the first pass: {changed[:4]}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_objective", _mc_setup, _mc_op, _mc_check),
        Workload("free_variance", _fv_setup, _fv_op, _fv_check),
        Workload("fine_mesh_solve", _fm_setup, _fm_op, _fm_check),
        Workload("cli_configs", _cli_setup, _cli_op, _cli_check, prepare=_cli_prepare),
    )
}
