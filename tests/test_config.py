import dataclasses
from pathlib import Path

import pytest

from voctrl.config import _KEYS, RunConfig, load_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_key_table_covers_every_run_config_field_once():
    # a setting added to RunConfig without its INI key, or twice, fails here
    fields = [field for keys in _KEYS.values() for field, _ in keys.values()]
    assert sorted(fields) == sorted(f.name for f in dataclasses.fields(RunConfig))


# every field written out, so a changed RunConfig default shows up here too
SHIPPED_COMMON = RunConfig(
    alpha=1.0, beta=1.0, sigma=1.0, a1=1.0, a2=1.0, x0=0.0, T=2.0,
    family="", params=(), holder_h=None, holder_H=None, times=(), values=(),
    n=20, M=50, tol=1e-6, dt=0.05, n_paths=1000, seed=20240901, output_dir=".",
)
SHIPPED = {
    "fractional": dict(family="fractional", params=(0.3,), output_dir="out/fractional"),
    "gamma": dict(family="gamma", params=(1.0, 0.3), output_dir="out/gamma"),
    "monomial_sweep": dict(family="monomial", params=(2.0,), n=10, M=20,
                           output_dir="out/monomial_sweep"),
    "smooth": dict(family="fractional", params=(1.1,), output_dir="out/smooth"),
}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_configs_load_pinned_values(name):
    assert load_config(CONFIGS / f"{name}.ini") == dataclasses.replace(SHIPPED_COMMON, **SHIPPED[name])


def test_every_key_parses_into_its_field(tmp_path):
    path = tmp_path / "all.ini"
    path.write_text(
        "[problem]\nalpha = 2\nbeta = 0.5\nsigma = 0\na1 = 3\na2 = 4\nx0 = -1\nT = 1\n"
        "[kernel]\nfamily = Tabulated\nparams = 1 2, 3\nholder_h = 1\nholder_H = 2\n"
        "times = 0, 1\nvalues = 1 1\n"
        "[lift]\nn = 3\nM = Auto\ntol = 0.5\n[grid]\ndt = 0.25\n"
        "[mc]\nn_paths = 7\nseed = 9\n[output]\ndir = out/x\n"
    )
    assert load_config(path) == RunConfig(
        alpha=2.0, beta=0.5, sigma=0.0, a1=3.0, a2=4.0, x0=-1.0, T=1.0,
        family="tabulated", params=(1.0, 2.0, 3.0), holder_h=1.0, holder_H=2.0,
        times=(0.0, 1.0), values=(1.0, 1.0), n=3, M=None, tol=0.5, dt=0.25,
        n_paths=7, seed=9, output_dir="out/x",
    )
