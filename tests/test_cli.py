import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import voctrl
import voctrl.cli
from voctrl.cli import main
from voctrl.config import load_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

BASE = """
[problem]
alpha = 1.0
beta = 1.0
sigma = 1.0
a1 = 1.0
a2 = 1.0
x0 = 0.0
T = 2.0

[kernel]
family = {family}
params = {params}
{extra}

[lift]
n = {n}
M = {M}

[grid]
dt = {dt}

[mc]
n_paths = {n_paths}
seed = 321

[output]
dir = {out}
"""


def write_config(tmp_path, family="fractional", params="0.3", extra="", n=10, M=30,
                 dt=0.05, n_paths=20, name="run.ini"):
    path = tmp_path / name
    out = tmp_path / "out"
    path.write_text(BASE.format(family=family, params=params, extra=extra, n=n, M=M,
                                dt=dt, n_paths=n_paths, out=out))
    return path, out


def test_kernel_approx_fractional_summary(tmp_path):
    cfg, out = write_config(tmp_path, n=20)
    assert main(["--config", str(cfg), "kernel-approx"]) == 0
    summary = json.loads((out / "kernel_approx_summary.json").read_text())
    assert summary["n"] == 20
    assert summary["bound"] == pytest.approx(0.63803646567959137, rel=1e-12)
    assert summary["sup_error"] <= summary["bound"]
    header = (out / "kernel_approx.csv").read_text().splitlines()[0]
    assert header == "t,K,K_n,abs_error"


def test_kernel_approx_constant_kernel_exact(tmp_path):
    cfg, out = write_config(tmp_path, family="monomial", params="0")
    assert main(["--config", str(cfg), "kernel-approx"]) == 0
    summary = json.loads((out / "kernel_approx_summary.json").read_text())
    assert summary["sup_error"] == 0.0


def test_missing_metadata_is_config_error(tmp_path):
    extra = "times = 0.0, 1.0, 2.0\nvalues = 0.0, 0.5, 1.0"
    cfg, _ = write_config(tmp_path, family="tabulated", params="", extra=extra)
    assert main(["--config", str(cfg), "kernel-approx"]) == 2


def test_fractional_monomial_degree_is_config_error(tmp_path, capsys):
    # the degree is not rounded down to a kernel nobody asked for
    cfg, _ = write_config(tmp_path, family="monomial", params="2.5")
    assert main(["--config", str(cfg), "control"]) == 2
    assert "2.5" in capsys.readouterr().err


def test_unknown_family_is_config_error(tmp_path):
    cfg, _ = write_config(tmp_path, family="spline")
    assert main(["--config", str(cfg), "control"]) == 2


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["--config", str(tmp_path / "absent.ini"), "control"]) == 2


def test_degree_above_cap_is_numeric_error(tmp_path):
    cfg, _ = write_config(tmp_path, n=30)
    assert main(["--config", str(cfg), "control"]) == 3


def test_control_outputs(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["--config", str(cfg), "control"]) == 0
    meta = json.loads((out / "control.json").read_text())
    assert set(meta) == {"scale", "coeffs", "M", "n", "trunc_bound", "bound_valid",
                         "predicted_optimal_J"}
    assert meta["M"] == 30
    # T * (1 + beta |g|) far exceeds M = 30 at n = 10, so no tail bound applies
    assert meta["bound_valid"] is False and meta["trunc_bound"] is None
    assert len(meta["coeffs"]) == 31
    rows = (out / "control.csv").read_text().splitlines()
    assert rows[0] == "t,u_hat"
    assert len(rows) == 201
    ts = [float(r.split(",")[0]) for r in rows[1:]]
    assert ts[0] == 0.0 and ts[-1] == 2.0  # spans [0, T] inclusive


def _strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_every_written_json_is_strict_json(tmp_path):
    # Infinity and NaN are not JSON: bounds that do not apply are written as null
    commands = [["kernel-approx"], ["kernel-approx", "--n", "0"], ["control"], ["simulate"],
                ["oracle"], ["convergence", "--n-list", "1,5"]]
    for name in ("fractional", "gamma", "monomial_sweep", "smooth"):
        for k, cmd in enumerate(commands):
            out = tmp_path / f"{name}_{k}"
            argv = ["--config", str(CONFIGS / f"{name}.ini"), "--output-dir", str(out), *cmd]
            assert main(argv) == 0, argv
            for path in out.glob("*.json"):
                _strict_json(path.read_text())
    summary = _strict_json((tmp_path / "fractional_1" / "kernel_approx_summary.json").read_text())
    assert summary["bound"] is None
    control = _strict_json((tmp_path / "fractional_2" / "control.json").read_text())
    assert control["bound_valid"] is False and control["trunc_bound"] is None


def test_control_auto_truncation_order(tmp_path):
    # the tail bound decays like 1/(M+1), so automatic selection only works
    # for modest horizon-times-norm products; T = 1 keeps it reachable.
    # "auto" is read by the one [lift] M entry, from the file and from --m
    config = BASE.replace("T = 2.0", "T = 1.0")
    metas = []
    for M, flags in (("auto", []), ("AUTO", []), (5, ["--m", "auto"])):
        cfg = tmp_path / "run.ini"
        out = tmp_path / f"out_{M}"
        cfg.write_text(config.format(family="monomial", params="1", extra="", n=2,
                                     M=M, dt=0.05, n_paths=4, out=out))
        assert main(["--config", str(cfg), "control", "--tol", "0.1", *flags]) == 0
        metas.append(json.loads((out / "control.json").read_text()))
    meta = metas[0]
    assert metas[1] == meta and metas[2] == meta
    # the emitted bound is the scaled tail estimate at the chosen order
    assert meta["bound_valid"] is True and meta["M"] != 5
    assert meta["trunc_bound"] <= 0.5 * 0.1


def test_control_m_that_does_not_parse_is_config_error(tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    assert main(["--config", str(cfg), "control", "--m", "abc"]) == 2
    err = capsys.readouterr().err
    assert "'abc'" in err and "--m" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["simulate", "--n-paths", "abc"], "--n-paths: [mc] n_paths = 'abc' does not parse"),
    (["oracle", "--dt", "abc"], "--dt: [grid] dt = 'abc' does not parse"),
], ids=["n-paths", "dt"])
def test_setting_flag_that_does_not_parse_names_the_flag(tmp_path, capsys, argv, named):
    cfg, out = write_config(tmp_path)
    assert main(["--config", str(cfg), *argv]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {named}")
    assert not out.exists()


def test_negative_truncation_order_is_numeric_range_error(tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    assert main(["--config", str(cfg), "control", "--m", "-1"]) == 3
    assert "truncation order must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, field, value", [
    (["--output-dir", "elsewhere", "oracle"], "output_dir", "elsewhere"),
    (["--seed", "7", "simulate"], "seed", 7),
    (["kernel-approx", "--n", "7"], "n", 7),
    (["control", "--m", "7"], "M", 7),
    (["control", "--m", "auto"], "M", None),
    (["control", "--tol", "0.5"], "tol", 0.5),
    (["simulate", "--n-paths", "7"], "n_paths", 7),
    (["simulate", "--dt", "0.25"], "dt", 0.25),
    (["convergence", "--n-list", "1", "--dt", "0.25"], "dt", 0.25),
    (["oracle", "--dt", "0.25"], "dt", 0.25),
    (["oracle", "--dt", "-1e-3"], "dt", -1e-3),  # a dash-led value is still a value
], ids=["output-dir", "seed", "kernel-approx-n", "m", "m-auto", "tol", "n-paths", "simulate-dt",
        "convergence-dt", "oracle-dt", "dash-led-dt"])
def test_setting_flag_reaches_the_run_config(monkeypatch, argv, field, value):
    # the command is looked up when it runs, so a replaced cmd_* is the one called
    seen = []
    for name in ("cmd_kernel_approx", "cmd_control", "cmd_simulate", "cmd_convergence",
                 "cmd_oracle"):
        monkeypatch.setattr(voctrl.cli, name, lambda cfg, *rest: seen.append(cfg) or [])
    assert main(["--config", str(CONFIGS / "fractional.ini"), *argv]) == 0
    expected = load_config(CONFIGS / "fractional.ini")
    setattr(expected, field, value)
    assert seen == [expected]


@pytest.mark.parametrize("argv", [["--help"], ["kernel-approx", "--help"]], ids=["top", "command"])
def test_help_returns_0(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: voctrl")


@pytest.mark.parametrize("argv", [
    ["fit"],
    ["--bogus", "control"],
    ["simulate", "--n-p", "5"],
    ["convergence"],
    ["kernel-approx", "--grid-points", "abc"],
    ["kernel-approx", "--grid-points", "1"],
    ["kernel-approx", "--grid-points", "-5"],
    [],
], ids=["unknown-command", "unknown-flag", "flag-prefix", "no-n-list", "grid-points-abc",
        "grid-points-1", "grid-points-negative", "no-command"])
def test_usage_error_returns_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(["--config", str(CONFIGS / "fractional.ini"), "--output-dir", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: voctrl") and "error:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("edit, named", [
    (("n_paths = 20", "n_path = 20"), "'n_path'"),
    (("[lift]", "[lfit]"), "[lfit]"),
    (("params = 0.3", "params = 0.3\nT = 1.0"), "'T'"),
    (("[problem]", "[DEFAULT]\nT = 1.0\n\n[problem]"), "[DEFAULT]"),
], ids=["mc-n_path", "lfit", "kernel-T", "DEFAULT"])
def test_unknown_section_or_key_is_config_error(tmp_path, capsys, edit, named):
    cfg, out = write_config(tmp_path)
    cfg.write_text(cfg.read_text().replace(*edit))
    assert main(["--config", str(cfg), "simulate"]) == 2
    err = capsys.readouterr().err
    assert named in err and str(cfg) in err
    assert not out.exists()


@pytest.mark.parametrize("edit, named", [
    (("dt = 0.05", "dt = fast"), "[grid] dt = 'fast'"),
    (("n = 10", "n = 2.5"), "[lift] n = '2.5'"),
    (("params = 0.3", "params = 0.3, x"), "[kernel] params = '0.3, x'"),
    (("[grid]", "[grid\n"), "line"),
    (("dir = ", "dir = 100%/"), "'%'"),
], ids=["float", "int", "list", "malformed", "interpolation"])
def test_value_that_does_not_parse_is_config_error(tmp_path, capsys, edit, named):
    cfg, _ = write_config(tmp_path)
    cfg.write_text(cfg.read_text().replace(*edit))
    assert main(["--config", str(cfg), "control"]) == 2
    err = capsys.readouterr().err
    assert named in err and str(cfg) in err


def test_control_degree_list_reproduces_reference(tmp_path):
    cfg, out = write_config(tmp_path, family="monomial", params="2", M=20)
    assert main(["--config", str(cfg), "control", "--n", "1,2,5,10"]) == 0
    ref = np.loadtxt(out / "control_reference.csv", delimiter=",", skiprows=1)
    sups = []
    for n in (1, 2, 5, 10):
        got = np.loadtxt(out / f"control_n{n}.csv", delimiter=",", skiprows=1)
        sups.append(np.abs(got[:, 1] - ref[:, 1]).max())
    assert all(a >= b for a, b in zip(sups, sups[1:]))


def test_control_single_degree_keeps_plain_file_names(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["--config", str(cfg), "control", "--n", "7"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["control.csv", "control.json"]
    assert json.loads((out / "control.json").read_text())["n"] == 7


@pytest.mark.parametrize("cmd", [["control", "--n", ","], ["convergence", "--n-list", " , "]])
def test_empty_degree_list_is_config_error(tmp_path, cmd):
    cfg, _ = write_config(tmp_path)
    assert main(["--config", str(cfg), *cmd]) == 2


@pytest.mark.parametrize("cmd", [["control", "--n", "5,5"], ["convergence", "--n-list", "1,2,1"]])
def test_repeated_degree_is_config_error(tmp_path, capsys, cmd):
    cfg, out = write_config(tmp_path)
    assert main(["--config", str(cfg), *cmd]) == 2
    assert "repeats degree" in capsys.readouterr().err
    assert not out.exists()


def test_missing_problem_keys_take_run_config_defaults(tmp_path):
    from dataclasses import replace

    from voctrl.config import RunConfig, load_config

    path = tmp_path / "partial.ini"
    path.write_text("[problem]\nbeta = 0.5\n\n[kernel]\nfamily = fractional\nparams = 0.3\n")
    assert load_config(path) == replace(RunConfig(), beta=0.5, family="fractional", params=(0.3,))


def test_simulate_outputs_and_reruns_are_byte_identical(tmp_path):
    cfg, out = write_config(tmp_path, n_paths=5, dt=0.1)
    assert main(["--config", str(cfg), "simulate"]) == 0
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert main(["--config", str(cfg), "simulate"]) == 0
    second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert first == second
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert {"mean_XT", "var_XT", "n_paths", "seed", "zero_control"} <= set(summary)
    rows = (out / "paths_controlled.csv").read_text().splitlines()
    assert rows[0] == "t,path_1,path_2,path_3,path_4,path_5"
    assert len(rows) == 22


@pytest.mark.parametrize("argv", [[], ["--n-paths", "1"]], ids=["file", "flag"])
def test_simulate_needs_two_paths(tmp_path, capsys, argv):
    # var_XT is a sample variance: one path is rejected before anything is written
    cfg, out = write_config(tmp_path, n_paths=1 if not argv else 20, dt=0.1)
    assert main(["--config", str(cfg), "simulate", *argv]) == 2
    assert "n_paths" in capsys.readouterr().err
    assert not out.exists()


def test_json_that_cannot_hold_a_value_leaves_no_file(tmp_path):
    # the table listed first is not written either: every document is
    # serialized before the directory is created
    from voctrl.cli import _write_artifacts
    from voctrl.config import RunConfig

    out = tmp_path / "out"
    files = [("table.csv", (["x"], ([1.0, 2.0],))),
             ("summary.json", {"ok": 1.0, "var": float("nan")})]
    with pytest.raises(voctrl.NumericRangeError, match="summary.json"):
        _write_artifacts(RunConfig(output_dir=str(out)), files)
    assert not out.exists()


def test_simulate_overflowing_variance_writes_nothing(tmp_path, capsys):
    # the paths stay finite at sigma = 1e160, their sample variance does not:
    # exit 3 naming the summary, with no numpy warning and no directory
    import warnings

    cfg = tmp_path / "run.ini"
    cfg.write_text((CONFIGS / "fractional.ini").read_text().replace("sigma = 1.0", "sigma = 1e160"))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = ["--config", str(cfg), "--output-dir", str(out), "simulate", "--n-paths", "50"]
        assert main(argv) == 3
    assert "simulate_summary.json" in capsys.readouterr().err
    assert not out.exists()


class _NotWritten(Exception):
    pass


@pytest.mark.parametrize("cmd", [["kernel-approx"], ["control"], ["simulate", "--n-paths", "20"],
                                 ["oracle"], ["convergence", "--n-list", "1,2"]],
                         ids=lambda cmd: cmd[0])
def test_every_command_writes_only_through_the_helper(tmp_path, monkeypatch, cmd):
    def refuse(cfg, files):
        raise _NotWritten

    monkeypatch.setattr("voctrl.cli._write_artifacts", refuse)
    out = tmp_path / "out"
    with pytest.raises(_NotWritten):
        main(["--config", str(CONFIGS / "fractional.ini"), "--output-dir", str(out), *cmd])
    assert not out.exists()


def test_simulate_zero_noise_tracks_mean(tmp_path):
    config = BASE.replace("sigma = 1.0", "sigma = 0.0")
    cfg = tmp_path / "run.ini"
    out = tmp_path / "out"
    cfg.write_text(config.format(family="gamma", params="1.0, 0.3", extra="", n=10,
                                 M=30, dt=0.01, n_paths=2, out=out))
    assert main(["--config", str(cfg), "simulate"]) == 0
    data = np.loadtxt(out / "paths_controlled.csv", delimiter=",", skiprows=1)
    from voctrl import TimeGrid, deterministic_mean, optimal_control_poly
    from voctrl.config import load_config

    run = load_config(cfg)
    problem = run.problem()
    cp = optimal_control_poly(problem, run.n, run.M)
    m = deterministic_mean(problem, cp, TimeGrid(T=2.0, dt=0.01))
    assert np.array_equal(data[:, 1], m)  # the paths are the mean plus noise


def test_worker_env_does_not_change_artifacts(tmp_path, monkeypatch):
    cfg, out = write_config(tmp_path, n_paths=8, dt=0.1)
    assert main(["--config", str(cfg), "simulate"]) == 0
    baseline = (out / "paths_controlled.csv").read_bytes()
    monkeypatch.setenv("VOC_THREADS", "3")
    assert main(["--config", str(cfg), "simulate"]) == 0
    assert (out / "paths_controlled.csv").read_bytes() == baseline


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_non_integer_worker_env_is_config_error(tmp_path, monkeypatch, capsys, value):
    # a count below one thread is refused, not read as one
    cfg, _ = write_config(tmp_path, n_paths=2, dt=0.1)
    monkeypatch.setenv("VOC_THREADS", value)
    assert main(["--config", str(cfg), "simulate"]) == 2
    assert f"VOC_THREADS must be a positive integer, got '{value}'" in capsys.readouterr().err


def test_convergence_single_degree(tmp_path):
    cfg, out = write_config(tmp_path, dt=0.05)
    assert main(["--config", str(cfg), "convergence", "--n-list", "5"]) == 0
    rows = (out / "convergence.csv").read_text().splitlines()
    assert len(rows) == 2
    assert rows[0].startswith("n,J_hat,J_oracle_proxy,gap_proxy")


def test_convergence_without_holder_data_writes_nan_rate_proxy(tmp_path):
    # only rate_proxy needs the Holder exponent; the gap columns are written
    cfg, out = write_config(tmp_path, family="polynomial", params="0, 1, 0.5")
    assert main(["--config", str(cfg), "convergence", "--n-list", "1,2,5"]) == 0
    data = np.loadtxt(out / "convergence.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(data[:, :4])) and np.all(np.isnan(data[:, 4]))


def test_convergence_monomial_distance_column(tmp_path):
    cfg, out = write_config(tmp_path, family="monomial", params="2", M=20)
    assert main(["--config", str(cfg), "convergence", "--n-list", "1,2,5,10"]) == 0
    data = np.loadtxt(out / "convergence.csv", delimiter=",", skiprows=1)
    sup = data[:, 5]
    assert np.all(np.diff(sup) <= 0.0)


def test_convergence_fractional_rate_proxy_bounded(tmp_path):
    # the oracle gap shrinks at least like n^(-h/2): the rescaled column must
    # not grow along the degree sweep
    cfg, out = write_config(tmp_path, M=50, dt=0.02)
    assert main(["--config", str(cfg), "convergence", "--n-list", "1,2,5,10,20"]) == 0
    data = np.loadtxt(out / "convergence.csv", delimiter=",", skiprows=1)
    gap, rate = data[:, 3], data[:, 4]
    assert np.all(gap >= 0.0)
    assert np.all(rate <= rate[0] * 1.5)


def test_state_overflow_is_simulation_error(tmp_path, capsys):
    # absurdly scaled kernel: the low-order control stays finite but the
    # first trapezoidal step of the mean overflows, a numeric-range error
    # raised before any path is drawn or written
    extra = ("times = 0.0, 1.0, 2.0\nvalues = 1e150, 1e150, 1e150\n"
             "holder_h = 1.0\nholder_H = 1.0")
    cfg, out = write_config(tmp_path, family="tabulated", params="", extra=extra,
                            n=1, M=1, n_paths=4, dt=0.1)
    assert main(["--config", str(cfg), "simulate"]) == 3
    assert "at step 1 (t = 0.1)" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_noise_overflow_is_simulation_error(tmp_path, capsys):
    # the mean stays finite, the noise column's sigma c_1 = 1e400 does not
    cfg, _ = write_config(tmp_path, family="polynomial", params="1e200", n_paths=4, dt=0.1)
    text = cfg.read_text().replace("beta = 1.0", "beta = 0.0").replace("sigma = 1.0", "sigma = 1e200")
    cfg.write_text(text.replace("a1 = 1.0", "a1 = 1e300"))
    assert main(["--config", str(cfg), "simulate"]) == 4
    assert "on path 0 at step 1" in capsys.readouterr().err


def test_oracle_cross_validation_outputs(tmp_path):
    cfg, out = write_config(tmp_path, dt=0.01)
    assert main(["--config", str(cfg), "oracle"]) == 0
    summary = json.loads((out / "oracle_summary.json").read_text())
    assert summary["sup_diff"] <= 1e-2
    assert 0.0 <= summary["J_opt_oracle"] - summary["J_hat"] <= 1e-3
    header = (out / "oracle.csv").read_text().splitlines()[0]
    assert header == "t,u_star,u_hat_nM,abs_diff"


def test_csv_floats_round_trip_losslessly(tmp_path):
    # 17 significant digits reproduce doubles exactly on parse-back
    cfg, out = write_config(tmp_path)
    assert main(["--config", str(cfg), "control"]) == 0
    data = np.loadtxt(out / "control.csv", delimiter=",", skiprows=1)
    from voctrl import optimal_control_poly
    from voctrl.config import load_config

    run = load_config(cfg)
    cp = optimal_control_poly(run.problem(), run.n, run.M)
    ts = np.linspace(0.0, 2.0, 200)
    assert np.array_equal(data[:, 0], ts)
    assert np.array_equal(data[:, 1], cp(ts))


def test_csv_text_is_pinned(tmp_path):
    # integers print bare; -0, subnormals and non-finite values survive
    from voctrl.cli import _write_csv

    path = tmp_path / "pinned.csv"
    nan, inf = float("nan"), float("inf")
    _write_csv(path, ["n", "x", "y"], ([0, 1, 20], [0.1, -0.0, 5e-324], [nan, inf, -inf]))
    assert path.read_bytes() == (b"n,x,y\n0,0.10000000000000001,nan\n1,-0,inf\n"
                                 b"20,4.9406564584124654e-324,-inf\n")


@pytest.mark.parametrize("command, setting, value, code, message", [
    ("simulate", "T = 2.0", "T = inf", 2, "T must be finite"),
    ("control", "T = 2.0", "T = 1e300", 3, "out of range"),
    ("simulate", "dt = 0.05", "dt = inf", 3, "dt must be positive and finite"),
    ("control", "x0 = 0.0", "x0 = nan", 2, "x0 must be finite"),
    ("control", "alpha = 1.0", "alpha = inf", 2, "alpha must be positive and finite"),
    ("control", "a1 = 1.0", "a1 = inf", 2, "a1 must be positive and finite"),
    ("simulate", "seed = 321", "seed = -1", 3, "seed must be an integer in [0, 2**64), got -1"),
    # the output directory is the config file itself, or lies under it
    ("control", "/out\n", "/run.ini\n", 2, "run.ini is a file or lies under one"),
    ("control", "/out\n", "/run.ini/sub\n", 2, "run.ini/sub is a file or lies under one"),
    # half a Holder pair would otherwise be dropped for the family default
    ("kernel-approx", "params = 0.3", "params = 0.3\nholder_H = 5", 2, "holder_h is missing"),
], ids=["T=inf", "T=1e300", "dt=inf", "x0=nan", "alpha=inf", "a1=inf", "seed=-1", "dir=file",
        "dir=under-file", "holder_H-alone"])
def test_out_of_range_input_fails_cleanly(tmp_path, capsys, command, setting, value, code,
                                          message):
    # rejected before any artifact is written, with an error line, not a traceback
    cfg, out = write_config(tmp_path)
    text = cfg.read_text()
    assert setting in text
    cfg.write_text(text.replace(setting, value))
    assert main(["--config", str(cfg), command]) == code
    assert not out.exists() or not any(out.iterdir())
    assert sorted(tmp_path.iterdir()) == [cfg] and cfg.read_text() == text.replace(setting, value)
    assert message in capsys.readouterr().err


def test_allocation_failure_is_numeric_range_error(tmp_path, capsys):
    # 2e15 steps ask numpy for petabytes, which fails at once without
    # touching memory
    out = tmp_path / "out"
    argv = ["--config", str(CONFIGS / "fractional.ini"), "--output-dir", str(out),
            "oracle", "--dt", "1e-15"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric-range error:") and "allocate" in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_grid_too_fine_to_index_is_numeric_range_error(tmp_path, capsys):
    # 2e300 steps: more grid nodes than an array index reaches
    out = tmp_path / "out"
    argv = ["--config", str(CONFIGS / "fractional.ini"), "--output-dir", str(out),
            "oracle", "--dt=1e-300"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric-range error:") and "dt 1e-300" in err
    assert not out.exists()


def test_path_count_too_large_to_allocate_writes_nothing(tmp_path, capsys):
    # 1e12 paths fail in numpy's allocation of the path array, before any
    # per-path header name is made
    out = tmp_path / "out"
    argv = ["--config", str(CONFIGS / "fractional.ini"), "--output-dir", str(out),
            "simulate", "--n-paths", "1000000000000"]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("numeric-range error:")
    assert not out.exists()


def test_oracle_overflow_writes_no_artifact(tmp_path, capsys):
    # at beta = 0 the control of K = 1e160 builds, but the discretized
    # optimum overflows: exit 3 before oracle.csv is written
    cfg, out = write_config(tmp_path, family="polynomial", params="1e160")
    cfg.write_text(cfg.read_text().replace("beta = 1.0", "beta = 0.0"))
    assert main(["--config", str(cfg), "oracle"]) == 3
    assert not (out / "oracle.csv").exists()
    assert capsys.readouterr().err.startswith("numeric-range error:")


def test_control_overflow_writes_no_artifact(tmp_path, capsys):
    # at beta = 0 the control of K = 1e160 builds, but u**2 in the value
    # function's c0 overflows: exit 3, with no warning and no file written
    import warnings

    cfg, out = write_config(tmp_path, family="polynomial", params="1e160", n=1, M=5)
    cfg.write_text(cfg.read_text().replace("beta = 1.0", "beta = 0.0"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", str(cfg), "control"]) == 3
    assert not list(out.glob("control*"))
    assert capsys.readouterr().err.startswith("numeric-range error:")


@pytest.mark.parametrize("cmd", [["kernel-approx"], ["control"], ["simulate"], ["oracle"],
                                 ["convergence", "--n-list", "2,5"]], ids=lambda cmd: cmd[0])
def test_overflowing_kernel_is_numeric_range_error(tmp_path, capsys, cmd):
    # t**40 overflows on the nodes past t = 5e7: exit 3 from every command,
    # with one error line, no numpy warning and no file written
    import warnings

    cfg, out = write_config(tmp_path, family="monomial", params="40", dt=1e9)
    cfg.write_text(cfg.read_text().replace("T = 2.0", "T = 1e10").replace("beta = 1.0", "beta = 0.0"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", str(cfg), *cmd]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric-range error:") and err.count("\n") == 1
    assert "RuntimeWarning" not in err
    assert not out.exists()


def test_cancelling_mittag_leffler_reference_writes_nothing(tmp_path, capsys):
    # the t**0 reference at beta = 25, T = 2 needs E_{1,1}(-50), which the
    # series would give as -1.4e7 (so u_exact(0) = -7e6) where it is 1.9e-22
    cfg, out = write_config(tmp_path, family="monomial", params="0", n=5, M=50)
    cfg.write_text(cfg.read_text().replace("beta = 1.0", "beta = 25.0"))
    assert main(["--config", str(cfg), "control"]) == 3
    assert "cancels beyond double precision" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_builds_the_bernstein_kernel_once(tmp_path, bernstein_calls):
    # the K_n problem is built once and serves the control, the oracle and J
    argv = ["--config", str(CONFIGS / "gamma.ini"), "--output-dir", str(tmp_path), "oracle"]
    assert main(argv) == 0
    assert bernstein_calls == [20]


@pytest.mark.parametrize("argv, expected", [
    (["control"], [1]),
    (["simulate"], [1]),
    (["convergence", "--n-list", "1,2"], [1, 2]),
], ids=["control", "simulate", "convergence"])
def test_auto_M_builds_each_bernstein_kernel_once(tmp_path, bernstein_calls, argv, expected):
    # with M = auto one K_n per degree serves both the choice of M and the control
    config = BASE.replace("T = 2.0", "T = 1.0").replace("M = {M}", "M = auto\ntol = 0.5")
    cfg = tmp_path / "run.ini"
    cfg.write_text(config.format(family="monomial", params="1", extra="", n=1, dt=0.05,
                                 n_paths=4, out=tmp_path / "out"))
    assert main(["--config", str(cfg), *argv]) == 0
    assert bernstein_calls == expected


def test_seed_override_changes_simulation(tmp_path):
    cfg, out = write_config(tmp_path, n_paths=5, dt=0.1)
    assert main(["--config", str(cfg), "simulate"]) == 0
    first = (out / "paths_controlled.csv").read_bytes()
    assert main(["--config", str(cfg), "--seed", "999", "simulate"]) == 0
    assert (out / "paths_controlled.csv").read_bytes() != first


def _run_python(*args):
    # a fresh interpreter that imports the same package as this test run
    src = str(Path(voctrl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


def _run_module(*args):
    return _run_python("-m", "voctrl.cli", *args)


def test_module_entry_point_runs_a_command(tmp_path):
    out = tmp_path / "out"
    proc = _run_module("--config", str(CONFIGS / "gamma.ini"), "--output-dir", str(out), "oracle")
    assert proc.returncode == 0, proc.stderr
    written = [out / "oracle.csv", out / "oracle_summary.json"]
    assert proc.stdout.split() == [str(p) for p in written]
    assert sorted(out.iterdir()) == written
    assert json.loads(written[1].read_text())["sup_diff"] <= 1e-2


def test_module_entry_point_bad_config_exits_2(tmp_path):
    cfg, out = write_config(tmp_path, family="spline")
    proc = _run_module("--config", str(cfg), "control")
    assert proc.returncode == 2
    assert "config error" in proc.stderr
    assert not out.exists()


def test_import_loads_no_scipy():
    # scipy costs every process a quarter second and 25 MiB at import; the
    # command line needs nothing outside the standard library and numpy
    code = ("import sys, voctrl, voctrl.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'click')))")
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
