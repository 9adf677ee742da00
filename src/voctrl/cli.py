"""Batch command-line front end.

Commands read one INI config (see voctrl.config), apply flag overrides, and
write CSV/JSON artifacts into the output directory; ``--m`` is read by the
config's own ``[lift] M`` entry.  Every command builds all of its artifacts
first and ends in one ``_write_artifacts`` call, which serializes each JSON
document before it creates the directory: a command that fails writes
nothing, no file and no directory.  Runs are deterministic given the config,
including seeds, so re-runs are byte-identical.  VOC_THREADS, the only thread
setting, bounds the threads that draw simulation noise (default: the usable
CPUs) without changing any output.  ``_control`` poses the problem on each
degree's K_n once, through ``control.on_kn``, for both the choice of M and the
control; simulation and the objective stay on the original kernel.

Exit codes: 0 success, 2 config error, 3 numeric-range error (an allocation
that fails counts as one), 4 simulation error.
"""

import dataclasses
import json
import sys
from pathlib import Path

import click
import numpy as np

from .bernstein import uniform_error_report
from .config import RunConfig, load_config, parse_setting, split_list, with_overrides
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
    out.mkdir(parents=True, exist_ok=True)
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
    header = ["t"] + [f"path_{p + 1}" for p in range(cfg.n_paths)]
    files, stats = [], []
    for label, control in (("controlled", cp), ("uncontrolled", lambda t: 0.0)):
        paths = simulate_paths(problem, control, grid, cfg.n_paths, cfg.seed).paths
        files.append((f"paths_{label}.csv", (header, (grid.nodes, paths.T))))
        xT = paths[:, -1]
        # an overflowing statistic is named by the strict JSON, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            stats.append({"mean_XT": float(xT.mean()), "var_XT": float(xT.var(ddof=1))})
    summary = {"n_paths": cfg.n_paths, "seed": cfg.seed, **stats[0], "zero_control": stats[1]}
    return _write_artifacts(cfg, [*files, ("simulate_summary.json", summary)])


def cmd_convergence(cfg: RunConfig, n_values: list[int]) -> list[Path]:
    problem = cfg.problem()
    grid = TimeGrid(T=problem.T, dt=cfg.dt)
    oracle = lq_oracle(problem, grid)
    h, _ = problem.kernel.holder_metadata()
    ts = np.linspace(0.0, problem.T, 100)
    exact = monomial_closed_form(problem, ts) if isinstance(problem.kernel, MonomialKernel) else None
    rows = []
    for n in n_values:
        cp = _control(cfg, problem, n)
        j_hat = evaluate_J_deterministic(problem, cp, grid).j_estimate
        gap = oracle.j_opt - j_hat
        # gap against the discretized optimum of the original-kernel problem;
        # a proxy only, since the true supremum is unknown for rough kernels
        rate_proxy = gap * n ** (h / 2.0) if n > 0 else float("nan")
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


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="INI config file; flags override its keys.")
@click.option("--output-dir", type=click.Path(), default=None, help="Artifact directory.")
@click.option("--seed", type=int, default=None, help="Simulation seed override.")
@click.pass_context
def cli(ctx, config_path, output_dir, seed):
    """Near-optimal advertising controls for goodwill dynamics with memory."""
    cfg = load_config(config_path)
    cfg = with_overrides(cfg, output_dir=output_dir, seed=seed)
    ctx.obj = cfg


@cli.command("kernel-approx")
@click.option("--n", type=int, default=None, help="Approximation degree override.")
@click.option("--grid-points", type=int, default=400, show_default=True)
@click.pass_obj
def kernel_approx_command(cfg, n, grid_points):
    """Tabulate the kernel against its polynomial approximation."""
    for path in cmd_kernel_approx(with_overrides(cfg, n=n), grid_points):
        click.echo(str(path))


@cli.command("control")
@click.option("--n", "n_text", type=str, default=None,
              help="Degree or comma-separated degree list override.")
@click.option("--m", "m_text", type=str, default=None,
              help='Truncation order override (integer or "auto").')
@click.option("--tol", type=float, default=None, help="Tolerance for M = auto.")
@click.pass_obj
def control_command(cfg, n_text, m_text, tol):
    """Compute the near-optimal control polynomial and its predicted objective."""
    cfg = with_overrides(cfg, tol=tol)
    if m_text is not None:  # not through with_overrides: None means auto here
        cfg = dataclasses.replace(cfg, M=parse_setting("lift", "M", m_text, "--m")[1])
    for path in cmd_control(cfg, _parse_n_list(n_text) if n_text else [cfg.n]):
        click.echo(str(path))


@cli.command("simulate")
@click.option("--n-paths", type=int, default=None, help="Path count override.")
@click.option("--dt", type=float, default=None, help="Grid mesh override.")
@click.pass_obj
def simulate_command(cfg, n_paths, dt):
    """Simulate goodwill paths under the near-optimal and the zero control."""
    for path in cmd_simulate(with_overrides(cfg, n_paths=n_paths, dt=dt)):
        click.echo(str(path))


@cli.command("convergence")
@click.option("--n-list", type=str, required=True, help="Comma-separated degrees.")
@click.option("--dt", type=float, default=None, help="Grid mesh override.")
@click.pass_obj
def convergence_command(cfg, n_list, dt):
    """Objective gap and closed-form distance across approximation degrees."""
    for path in cmd_convergence(with_overrides(cfg, dt=dt), _parse_n_list(n_list)):
        click.echo(str(path))


@cli.command("oracle")
@click.option("--dt", type=float, default=None, help="Grid mesh override.")
@click.pass_obj
def oracle_command(cfg, dt):
    """Cross-validate the control against the discretized brute-force optimizer."""
    for path in cmd_oracle(with_overrides(cfg, dt=dt)):
        click.echo(str(path))


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:  # --help and friends
        return int(exc.exit_code)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 2
    except (ConfigError, MetadataError) as exc:
        click.echo(f"config error: {exc}", err=True)
        return 2
    except (NumericRangeError, DomainError) as exc:
        click.echo(f"numeric-range error: {exc}", err=True)
        return 3
    except MemoryError as exc:  # a grid or path count too large to allocate
        click.echo(f"numeric-range error: out of memory: {exc}", err=True)
        return 3
    except SimulationError as exc:
        click.echo(f"simulation error: {exc}", err=True)
        return 4


def entrypoint():  # console_scripts hook
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
