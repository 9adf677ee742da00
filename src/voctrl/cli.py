"""Batch command-line front end, on the standard library's argparse.

Commands read one INI config (see voctrl.config), apply flag overrides, and
write CSV/JSON artifacts into the output directory.  A flag that sets a
``RunConfig`` field is read as text by the config's own entry for its INI
key (``_SETTING_FLAGS``), so ``--m auto`` means what ``M = auto`` means and
an error names the flag.  Every command builds all of its artifacts
first and ends in one ``_write_artifacts`` call, which serializes each JSON
document before it creates the directory: a command that fails writes
nothing, no file and no directory.  Runs are deterministic given the config,
including seeds, so re-runs are byte-identical.  VOC_THREADS, the only thread
setting, bounds the threads that draw simulation noise (default: the usable
CPUs) without changing any output.  ``_control`` poses the problem on each
degree's K_n once, through ``control.on_kn``, for both the choice of M and the
control; simulation and the objective stay on the original kernel.

Exit codes: 0 success (``--help`` included), 2 config or usage error, 3
numeric-range error (an allocation that fails counts as one), 4 simulation
error.  ``main`` returns the code for every argv and never exits.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bernstein import uniform_error_report
from .config import RunConfig, load_config, parse_setting, split_list
from .control import (
    choose_M,
    lift_for_problem,
    monomial_closed_form,
    on_kn,
    optimal_control_poly,
    value_function,
)
from .errors import (
    ConfigError,
    DomainError,
    MetadataError,
    NumericRangeError,
    SimulationError,
)
from .kernels import MonomialKernel
from .objective import evaluate_J_deterministic, lq_oracle
from .simulate import TimeGrid, simulate_paths


def _write_csv(path: Path, header, columns):
    """One CSV row per index of the columns (1-d arrays or 2-d column blocks)."""
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")


def _json_text(path: Path, obj) -> str:
    """Strict sorted JSON text for ``path``; a value JSON cannot hold raises."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericRangeError(f"{path}: {exc}") from None


def _write_json(path: Path, text: str):
    """Write JSON text that ``_json_text`` serialized."""
    path.write_text(text)


def _write_artifacts(cfg: RunConfig, files) -> list[Path]:
    """Write ``files``, (file name, JSON object or (header, columns) table)
    pairs, into the output directory in order and return their paths.  Every
    JSON object is serialized before the directory is created, so a value
    JSON cannot hold raises with nothing written."""
    out = Path(cfg.output_dir)
    texts = {name: _json_text(out / name, c) for name, c in files if isinstance(c, dict)}
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"output directory {out} is a file or lies under one") from None
    for name, content in files:
        if name in texts:
            _write_json(out / name, texts[name])
        else:
            _write_csv(out / name, *content)
    return [out / name for name, _ in files]


def _finite_or_none(x: float):
    """JSON has no infinity: a bound that does not apply is written as null."""
    return x if np.isfinite(x) else None


def _control(cfg: RunConfig, problem, n: int):
    """The degree-n control at the configured M, or at the M that ``choose_M``
    picks for ``cfg.tol`` when M is auto; both lifts take K_n exactly."""
    kn = on_kn(problem, n)
    M = choose_M(lift_for_problem(kn, n), kn.T, cfg.tol) if cfg.M is None else cfg.M
    return optimal_control_poly(kn, n, M)


def _parse_n_list(text: str) -> list[int]:
    try:
        ns = [int(p) for p in split_list(text)]
    except ValueError as exc:
        raise ConfigError(f"could not parse degree list {text!r}") from exc
    if not ns:
        raise ConfigError(f"degree list {text!r} names no degree")
    repeated = sorted({n for n in ns if ns.count(n) > 1})
    if repeated:
        raise ConfigError(f"degree list {text!r} repeats degree {', '.join(map(str, repeated))}")
    return ns


def cmd_kernel_approx(cfg: RunConfig, grid_points: int = 400) -> list[Path]:
    r = uniform_error_report(cfg.kernel(), cfg.n, grid_points)
    return _write_artifacts(cfg, [
        ("kernel_approx.csv", (["t", "K", "K_n", "abs_error"],
                               (r.ts, r.exact, r.approx, np.abs(r.exact - r.approx)))),
        ("kernel_approx_summary.json",
         {"n": cfg.n, "sup_error": r.sup_error, "bound": _finite_or_none(r.bound)}),
    ])


def cmd_control(cfg: RunConfig, ns: list[int]) -> list[Path]:
    problem = cfg.problem()
    ts = np.linspace(0.0, problem.T, 200)
    files = []
    for n in ns:
        cp = _control(cfg, problem, n)
        vf = value_function(problem, cp)
        stem = f"control_n{n}" if len(ns) > 1 else "control"
        files.append((f"{stem}.csv", (["t", "u_hat"], (ts, cp(ts)))))
        files.append((f"{stem}.json", {
            "scale": cp.scale,
            "coeffs": list(map(float, cp.coeffs)),
            "M": cp.M,
            "n": cp.n,
            "trunc_bound": _finite_or_none(cp.trunc_bound_at_0),
            "bound_valid": cp.bound_valid,
            "predicted_optimal_J": vf.predicted_optimal_J,
        }))
    if isinstance(problem.kernel, MonomialKernel):
        files.append(("control_reference.csv",
                      (["t", "u_exact"], (ts, monomial_closed_form(problem, ts)))))
    return _write_artifacts(cfg, files)


def cmd_simulate(cfg: RunConfig) -> list[Path]:
    if cfg.n_paths < 2:  # var_XT is a sample variance
        raise ConfigError(f"simulate needs n_paths >= 2, got {cfg.n_paths}")
    problem = cfg.problem()
    grid = TimeGrid(T=problem.T, dt=cfg.dt)
    cp = _control(cfg, problem, cfg.n)
    batches, stats = [], []
    for label, control in (("controlled", cp), ("uncontrolled", lambda t: 0.0)):
        paths = simulate_paths(problem, control, grid, cfg.n_paths, cfg.seed).paths
        batches.append((f"paths_{label}.csv", paths))
        xT = paths[:, -1]
        # an overflowing statistic is named by the strict JSON, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            stats.append({"mean_XT": float(xT.mean()), "var_XT": float(xT.var(ddof=1))})
    # made after both batches: a path count too large to allocate fails first
    header = ["t"] + [f"path_{p + 1}" for p in range(cfg.n_paths)]
    files = [(name, (header, (grid.nodes, paths.T))) for name, paths in batches]
    summary = {"n_paths": cfg.n_paths, "seed": cfg.seed, **stats[0], "zero_control": stats[1]}
    return _write_artifacts(cfg, [*files, ("simulate_summary.json", summary)])


def cmd_convergence(cfg: RunConfig, n_values: list[int]) -> list[Path]:
    problem = cfg.problem()
    grid = TimeGrid(T=problem.T, dt=cfg.dt)
    oracle = lq_oracle(problem, grid)
    try:
        h, _ = problem.kernel.holder_metadata()
    except MetadataError:  # rate_proxy needs h; the other columns do not
        h = None
    ts = np.linspace(0.0, problem.T, 100)
    exact = monomial_closed_form(problem, ts) if isinstance(problem.kernel, MonomialKernel) else None
    rows = []
    for n in n_values:
        cp = _control(cfg, problem, n)
        j_hat = evaluate_J_deterministic(problem, cp, grid).j_estimate
        gap = oracle.j_opt - j_hat
        # gap against the discretized optimum of the original-kernel problem;
        # a proxy only, since the true supremum is unknown for rough kernels
        rate_proxy = gap * n ** (h / 2.0) if n > 0 and h is not None else float("nan")
        sup_dist = float("nan") if exact is None else float(np.abs(cp(ts) - exact).max())
        rows.append((n, j_hat, oracle.j_opt, gap, rate_proxy, sup_dist))
    return _write_artifacts(cfg, [
        ("convergence.csv", (["n", "J_hat", "J_oracle_proxy", "gap_proxy", "rate_proxy",
                              "supdist_closed_form"], tuple(zip(*rows)))),
    ])


def cmd_oracle(cfg: RunConfig) -> list[Path]:
    # cross-validate against an independent discretization of the same
    # polynomial-kernel program the lift solves
    problem = on_kn(cfg.problem(), cfg.n)
    grid = TimeGrid(T=problem.T, dt=cfg.dt)
    cp = _control(cfg, problem, cfg.n)
    oracle = lq_oracle(problem, grid)
    uh = cp(grid.nodes)
    diff = np.abs(oracle.u_values - uh)
    j_hat = evaluate_J_deterministic(problem, cp, grid).j_estimate
    return _write_artifacts(cfg, [
        ("oracle.csv", (["t", "u_star", "u_hat_nM", "abs_diff"],
                        (grid.nodes, oracle.u_values, uh, diff))),
        ("oracle_summary.json", {
            "J_opt_oracle": oracle.j_opt,
            "J_hat": j_hat,
            "sup_diff": float(diff.max()),
        }),
    ])


# every flag that sets a RunConfig field -> the INI key whose entry parses
# its text, as it parses the file's
_SETTING_FLAGS = {
    "--output-dir": ("output", "dir"), "--seed": ("mc", "seed"), "--n-paths": ("mc", "n_paths"),
    "--n": ("lift", "n"), "--m": ("lift", "M"), "--tol": ("lift", "tol"), "--dt": ("grid", "dt"),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voctrl", allow_abbrev=False,
        description="Near-optimal advertising controls for goodwill dynamics with memory.")
    parser.add_argument("--config", help="INI config file; flags override its keys.")
    parser.add_argument("--output-dir", help="Artifact directory.")
    parser.add_argument("--seed", help="Simulation seed override.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(name, about):
        return commands.add_parser(name, help=about, description=about, allow_abbrev=False)

    def grid_points(text):  # argparse names it: "invalid grid_points value"
        if int(text) < 2:
            raise argparse.ArgumentTypeError(f"must be >= 2, got {text}")
        return int(text)

    sub = command("kernel-approx", "Tabulate the kernel against its polynomial approximation.")
    sub.add_argument("--n", help="Approximation degree override.")
    sub.add_argument("--grid-points", type=grid_points, default=400, help="Table size (default: %(default)s).")
    sub = command("control", "Compute the near-optimal control polynomial and its predicted objective.")
    sub.add_argument("--n", dest="n_list", help="Degree or comma-separated degree list override.")
    sub.add_argument("--m", help='Truncation order override (integer or "auto").')
    sub.add_argument("--tol", help="Tolerance for M = auto.")
    sub = command("simulate", "Simulate goodwill paths under the near-optimal and the zero control.")
    sub.add_argument("--n-paths", help="Path count override.")
    sub.add_argument("--dt", help="Grid mesh override.")
    sub = command("convergence", "Objective gap and closed-form distance across approximation degrees.")
    sub.add_argument("--n-list", required=True, help="Comma-separated degrees.")
    sub.add_argument("--dt", help="Grid mesh override.")
    sub = command("oracle", "Cross-validate the control against the discretized brute-force optimizer.")
    sub.add_argument("--dt", help="Grid mesh override.")
    return parser


_PARSER = _parser()


def _join_values(argv: list[str]) -> list[str]:
    """``--flag -1e-3`` as ``--flag=-1e-3``: every flag but ``--help`` takes
    one value, and argparse reads a dash-led value such as -1e-3 or -inf as
    a flag of its own."""
    words = []
    for word in argv:
        flag = words[-1] if words else ""
        if word.startswith("-") and flag.startswith("--") and "=" not in flag and flag != "--help":
            words[-1] = f"{flag}={word}"
        else:
            words.append(word)
    return words


def main(argv=None) -> int:
    """The documented exit code for ``argv``, ``--help`` and usage errors included."""
    try:
        args = _PARSER.parse_args(_join_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code
    try:
        cfg = load_config(args.config)
        for flag, (section, key) in _SETTING_FLAGS.items():
            text = getattr(args, flag[2:].replace("-", "_"), None)
            if text is not None:
                field, value = parse_setting(section, key, text, flag)
                setattr(cfg, field, value)
        # cmd_* are looked up when they run, so a replaced one (a tracer's) is called
        if args.command == "kernel-approx":
            paths = cmd_kernel_approx(cfg, args.grid_points)
        elif args.command == "control":
            paths = cmd_control(cfg, _parse_n_list(args.n_list) if args.n_list else [cfg.n])
        elif args.command == "simulate":
            paths = cmd_simulate(cfg)
        elif args.command == "convergence":
            paths = cmd_convergence(cfg, _parse_n_list(args.n_list))
        else:
            paths = cmd_oracle(cfg)
        for path in paths:
            print(path)
        return 0
    except (ConfigError, MetadataError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericRangeError, DomainError) as exc:
        print(f"numeric-range error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a grid or path count too large to allocate
        print(f"numeric-range error: out of memory: {exc}", file=sys.stderr)
        return 3
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 4


def entrypoint():  # console_scripts hook
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
