"""Run configuration: a flat INI file mirrored into a dataclass.

One table, ``_KEYS``, maps each section and key to its ``RunConfig`` field
and value parser; a CLI flag that sets a field goes through the same entry.
An unknown section or key, or a value that does not parse, is a
``ConfigError`` naming the file (or the flag), the section and the key; a
key left out keeps its ``RunConfig`` default.

``params`` is a whitespace- or comma-separated number list whose meaning
depends on the family: monomial takes the degree, fractional the exponent,
gamma takes rate and exponent, polynomial the coefficient list; tabulated
kernels use the ``times``/``values`` keys instead.  ``[lift] M`` may be
``auto``: ``choose_M`` then picks it for ``tol``.
"""

import configparser
from dataclasses import dataclass
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
    M: int | None = 50  # None: choose M from tol
    tol: float = 1e-6
    dt: float = 0.05
    n_paths: int = 1000
    seed: int = 20240901
    output_dir: str = "."

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


def split_list(text: str) -> list[str]:
    """The items of a whitespace- or comma-separated list."""
    return [p for chunk in text.split(",") for p in chunk.split()]


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in split_list(text))


def _truncation_order(text: str) -> int | None:
    return None if text.strip().lower() == "auto" else int(text)


# INI section -> key -> (RunConfig field, parser of the value text); the one
# place a setting is read, from the file and from the flags alike
_KEYS = {
    "problem": {k: (k, float) for k in ("alpha", "beta", "sigma", "a1", "a2", "x0", "T")},
    "kernel": {"family": ("family", lambda text: text.strip().lower()),
               "params": ("params", _floats), "holder_h": ("holder_h", float),
               "holder_H": ("holder_H", float), "times": ("times", _floats),
               "values": ("values", _floats)},
    "lift": {"n": ("n", int), "M": ("M", _truncation_order), "tol": ("tol", float)},
    "grid": {"dt": ("dt", float)},
    "mc": {"n_paths": ("n_paths", int), "seed": ("seed", int)},
    "output": {"dir": ("output_dir", str)},
}


def parse_setting(section: str, key: str, text: str, origin: str) -> tuple[str, object]:
    """The RunConfig field ``key = text`` in ``[section]`` sets, and its value;
    ``origin`` names where the text came from in any error."""
    keys = _KEYS[section]
    if key not in keys:
        raise ConfigError(f"{origin}: unknown key {key!r} in [{section}]; "
                          f"expected one of {', '.join(keys)}")
    field, parse = keys[key]
    try:
        return field, parse(text)
    except ValueError as exc:
        raise ConfigError(f"{origin}: [{section}] {key} = {text!r} does not parse: {exc}") from None


def load_config(path: str | Path | None) -> RunConfig:
    """Parse an INI config file; a missing path yields pure defaults."""
    cfg = RunConfig()
    if path is None:
        return cfg
    # no default section: a [DEFAULT] header is an unknown section like any other
    parser = configparser.ConfigParser(default_section="")
    parser.optionxform = str  # holder_h vs holder_H must stay distinct
    try:
        if not parser.read(str(path)):
            raise ConfigError(f"config file {path} not found or unreadable")
        for section in parser.sections():
            if section not in _KEYS:
                raise ConfigError(f"{path}: unknown section [{section}]; expected one of "
                                  f"{', '.join(f'[{s}]' for s in _KEYS)}")
            for key, text in parser[section].items():
                field, value = parse_setting(section, key, text, str(path))
                setattr(cfg, field, value)
    except configparser.Error as exc:  # malformed file or interpolation
        raise ConfigError(f"{path}: {exc}") from None
    return cfg


def build_kernel(cfg: RunConfig) -> Kernel:
    """Construct the configured kernel, validating family and parameters."""
    fam = cfg.family
    meta = {"holder_h": cfg.holder_h, "holder_H": cfg.holder_H}
    try:
        if fam == "monomial":
            if len(cfg.params) != 1 or not float(cfg.params[0]).is_integer():
                raise ConfigError("monomial kernel needs one parameter, a whole-number degree; "
                                  f"got {cfg.params}")
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
