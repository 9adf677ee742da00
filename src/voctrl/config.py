"""Run configuration: a flat INI file mirrored into a dataclass.

Sections and keys:

    [problem]  alpha beta sigma a1 a2 x0 T
    [kernel]   family params holder_h holder_H times values
    [lift]     n M tol          (M may be "auto"; tol feeds the auto rule)
    [grid]     dt
    [mc]       n_paths seed
    [output]   dir

``params`` is a whitespace- or comma-separated number list whose meaning
depends on the family: monomial takes the degree, fractional the exponent,
gamma takes rate and exponent, polynomial the coefficient list; tabulated
kernels use the ``times``/``values`` keys instead.  CLI flags override any
of these.
"""

import configparser
from dataclasses import dataclass, replace
from pathlib import Path

from .control import ControlProblem
from .errors import ConfigError
from .kernels import (
    FractionalKernel,
    GammaKernel,
    Kernel,
    MonomialKernel,
    PolynomialKernel,
    TabulatedKernel,
)

@dataclass
class RunConfig:
    alpha: float = 1.0
    beta: float = 1.0
    sigma: float = 1.0
    a1: float = 1.0
    a2: float = 1.0
    x0: float = 0.0
    T: float = 2.0
    family: str = ""
    params: tuple[float, ...] = ()
    holder_h: float | None = None
    holder_H: float | None = None
    times: tuple[float, ...] = ()
    values: tuple[float, ...] = ()
    n: int = 20
    M: int | None = 50
    tol: float = 1e-6
    dt: float = 0.05
    n_paths: int = 1000
    seed: int = 20240901
    output_dir: str = "."

    @property
    def m_auto(self) -> bool:
        return self.M is None

    def kernel(self) -> Kernel:
        return build_kernel(self)

    def problem(self) -> ControlProblem:
        try:
            return ControlProblem(
                alpha=self.alpha,
                beta=self.beta,
                sigma=self.sigma,
                a1=self.a1,
                a2=self.a2,
                x0=self.x0,
                kernel=self.kernel(),
            )
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(str(exc)) from exc


def _parse_floats(text: str) -> tuple[float, ...]:
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"could not parse number list {text!r}") from exc


def _get_float(section, key, default):
    if section is None or key not in section:
        return default
    try:
        return float(section[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected a number, got {section[key]!r}") from exc


def _get_int(section, key, default):
    if section is None or key not in section:
        return default
    try:
        return int(section[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected an integer, got {section[key]!r}") from exc


def load_config(path: str | Path | None) -> RunConfig:
    """Parse an INI config file; a missing path yields pure defaults."""
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    parser.optionxform = str  # holder_h vs holder_H must stay distinct
    read = parser.read(str(path))
    if not read:
        raise ConfigError(f"config file {path} not found or unreadable")

    prob = parser["problem"] if parser.has_section("problem") else None
    for key in ("alpha", "beta", "sigma", "a1", "a2", "x0", "T"):
        setattr(cfg, key, _get_float(prob, key, getattr(cfg, key)))

    if parser.has_section("kernel"):
        ker = parser["kernel"]
        cfg.family = ker.get("family", "").strip().lower()
        if "params" in ker:
            cfg.params = _parse_floats(ker["params"])
        cfg.holder_h = _get_float(ker, "holder_h", None)
        cfg.holder_H = _get_float(ker, "holder_H", None)
        if "times" in ker:
            cfg.times = _parse_floats(ker["times"])
        if "values" in ker:
            cfg.values = _parse_floats(ker["values"])
        cfg.T = _get_float(ker, "T", cfg.T)

    lift = parser["lift"] if parser.has_section("lift") else None
    if lift is not None:
        cfg.n = _get_int(lift, "n", cfg.n)
        if "M" in lift:
            raw = lift["M"].strip().lower()
            cfg.M = None if raw == "auto" else _get_int(lift, "M", cfg.M)
        cfg.tol = _get_float(lift, "tol", cfg.tol)

    grid = parser["grid"] if parser.has_section("grid") else None
    cfg.dt = _get_float(grid, "dt", cfg.dt)

    mc = parser["mc"] if parser.has_section("mc") else None
    cfg.n_paths = _get_int(mc, "n_paths", cfg.n_paths)
    cfg.seed = _get_int(mc, "seed", cfg.seed)

    if parser.has_section("output"):
        cfg.output_dir = parser["output"].get("dir", cfg.output_dir)
    return cfg


def build_kernel(cfg: RunConfig) -> Kernel:
    """Construct the configured kernel, validating family and parameters."""
    fam = cfg.family
    meta = {"holder_h": cfg.holder_h, "holder_H": cfg.holder_H}
    try:
        if fam == "monomial":
            if len(cfg.params) != 1:
                raise ConfigError("monomial kernel needs one parameter: the degree")
            return MonomialKernel(T=cfg.T, degree=int(cfg.params[0]), **meta)
        if fam == "fractional":
            if len(cfg.params) != 1:
                raise ConfigError("fractional kernel needs one parameter: the exponent")
            return FractionalKernel(T=cfg.T, exponent=cfg.params[0], **meta)
        if fam == "gamma":
            if len(cfg.params) != 2:
                raise ConfigError("gamma kernel needs two parameters: rate, exponent")
            return GammaKernel(T=cfg.T, rate=cfg.params[0], exponent=cfg.params[1], **meta)
        if fam == "polynomial":
            if not cfg.params:
                raise ConfigError("polynomial kernel needs a coefficient list")
            return PolynomialKernel(T=cfg.T, coeffs=tuple(cfg.params), **meta)
        if fam == "tabulated":
            if not (cfg.times and cfg.values):
                raise ConfigError("tabulated kernel needs times and values keys")
            return TabulatedKernel(T=cfg.T, times=cfg.times, values=cfg.values, **meta)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"invalid kernel configuration: {exc}") from exc
    raise ConfigError(
        f"unknown kernel family {fam!r}; expected monomial, fractional, gamma, "
        "polynomial or tabulated"
    )


def with_overrides(cfg: RunConfig, **kwargs) -> RunConfig:
    """Apply non-None CLI overrides onto a parsed config."""
    updates = {k: v for k, v in kwargs.items() if v is not None}
    return replace(cfg, **updates)
