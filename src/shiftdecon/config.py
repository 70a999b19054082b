"""Experiment configuration: a flat dataclass with an INI file round-trip.

The default configuration reproduces the reference simulation study: the
catalog wave template on the band ``|k| <= 40``, Laplace(0.1) shifts, n = 100
curves, 100 replications, and the selection band capped at 32.

File format (both sections required only when a key in them is set; unknown
sections or keys are rejected)::

    [experiment]
    template = wave            ; catalog name or a coefficient CSV path
    n = 100
    epsilon = 0.015
    k_max = 40
    criterion = u_bar          ; one of u, u_bar, u_tilde
    replications = 100
    seed = 1
    m0_override = 32           ; omit to use the computed cap
    log_base = natural         ; natural | decimal
    penalty_variant = printed_form  ; proof_form | printed_form

    [density]
    kind = laplace             ; laplace | gaussian | uniform | point_mass
    sigma = 0.1                ; laplace / gaussian scale
    half_width = 0.25          ; uniform support parameter
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .catalog import TEMPLATE_BUILDERS, catalog_template
from .csvio import read_template_csv
from .errors import ConfigError
from .selection import CRITERION_KINDS, PENALTY_VARIANTS
from .spectral import (ShiftDensity, Template, gaussian_density, laplace_density,
                       point_mass_density, uniform_density)

__all__ = ["ExperimentConfig", "parse_config", "load_config", "serialize_config",
           "save_config", "build_density", "build_template", "resolve_log_base"]

DENSITY_KINDS = ("laplace", "gaussian", "uniform", "point_mass")
LOG_BASES = ("natural", "decimal")

_EXPERIMENT_KEYS = ("template", "n", "epsilon", "k_max", "criterion",
                    "replications", "seed", "m0_override", "log_base",
                    "penalty_variant")
_DENSITY_KEYS = ("kind", "sigma", "half_width")


@dataclass(frozen=True)
class ExperimentConfig:
    template: str = "wave"
    density_kind: str = "laplace"
    density_sigma: float = 0.1
    density_half_width: float = 0.25
    n: int = 100
    epsilon: float = 0.015
    k_max: int = 40
    criterion: str = "u_bar"
    replications: int = 100
    seed: int = 1
    m0_override: Optional[int] = 32
    log_base: str = "natural"
    penalty_variant: str = "printed_form"

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        def bad(key, msg):
            raise ConfigError(f"config key {key!r}: {msg}")

        if not self.template:
            bad("template", "must be a catalog name or a file path")
        if self.density_kind not in DENSITY_KINDS:
            bad("density.kind", f"must be one of {DENSITY_KINDS}, got {self.density_kind!r}")
        if not (self.density_sigma > 0.0):
            bad("density.sigma", f"must be > 0, got {self.density_sigma!r}")
        if not (self.density_half_width > 0.0):
            bad("density.half_width", f"must be > 0, got {self.density_half_width!r}")
        if not (isinstance(self.n, int) and self.n >= 1):
            bad("n", f"must be an integer >= 1, got {self.n!r}")
        if not (0.0 <= self.epsilon < math.inf):
            bad("epsilon", f"must be finite and >= 0, got {self.epsilon!r}")
        if not (isinstance(self.k_max, int) and self.k_max >= 1):
            bad("k_max", f"must be an integer >= 1, got {self.k_max!r}")
        if self.criterion not in CRITERION_KINDS:
            bad("criterion", f"must be one of {CRITERION_KINDS}, got {self.criterion!r}")
        if not (isinstance(self.replications, int) and self.replications >= 1):
            bad("replications", f"must be an integer >= 1, got {self.replications!r}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            bad("seed", f"must be an integer >= 0, got {self.seed!r}")
        if self.m0_override is not None:
            if not (isinstance(self.m0_override, int)
                    and 0 <= self.m0_override <= self.k_max):
                bad("m0_override", f"must be in 0..k_max={self.k_max}, got {self.m0_override!r}")
        if self.log_base not in LOG_BASES:
            bad("log_base", f"must be one of {LOG_BASES}, got {self.log_base!r}")
        if self.penalty_variant not in PENALTY_VARIANTS:
            bad("penalty_variant", f"must be one of {PENALTY_VARIANTS}, got {self.penalty_variant!r}")


def resolve_log_base(cfg: ExperimentConfig) -> float:
    return math.e if cfg.log_base == "natural" else 10.0


def build_density(cfg: ExperimentConfig) -> ShiftDensity:
    """Instantiate the configured shift density."""
    if cfg.density_kind == "laplace":
        return laplace_density(cfg.density_sigma)
    if cfg.density_kind == "gaussian":
        return gaussian_density(cfg.density_sigma)
    if cfg.density_kind == "uniform":
        return uniform_density(cfg.density_half_width)
    return point_mass_density()


def build_template(cfg: ExperimentConfig) -> Template:
    """Instantiate the configured template.

    Catalog names are built on the configured band ``k_max``; a coefficient
    file carries its own band, which then takes precedence.
    """
    name = cfg.template
    if name in TEMPLATE_BUILDERS:
        return catalog_template(name, cfg.k_max)
    path = Path(name)
    if path.suffix.lower() == ".csv" or path.exists():
        if not path.exists():
            raise ConfigError(f"config key 'template': file {name!r} does not exist")
        return read_template_csv(path)
    raise ConfigError(
        f"config key 'template': {name!r} is neither a catalog name "
        f"({sorted(TEMPLATE_BUILDERS)}) nor an existing coefficient file"
    )


def _parse_int(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}") from None


def _parse_float(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse an INI fragment into a validated configuration."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    for section in parser.sections():
        if section not in ("experiment", "density"):
            raise ConfigError(f"unknown config section [{section}]")
    known = {"experiment": _EXPERIMENT_KEYS, "density": _DENSITY_KEYS}
    for section, keys in known.items():
        if parser.has_section(section):
            for key in parser.options(section):
                if key not in keys:
                    raise ConfigError(f"unknown config key {key!r} in section [{section}]")

    kwargs = {}
    if parser.has_section("experiment"):
        sec = parser["experiment"]
        if "template" in sec:
            kwargs["template"] = sec["template"].strip()
        if "n" in sec:
            kwargs["n"] = _parse_int("experiment", "n", sec["n"])
        if "epsilon" in sec:
            kwargs["epsilon"] = _parse_float("experiment", "epsilon", sec["epsilon"])
        if "k_max" in sec:
            kwargs["k_max"] = _parse_int("experiment", "k_max", sec["k_max"])
        if "criterion" in sec:
            kwargs["criterion"] = sec["criterion"].strip()
        if "replications" in sec:
            kwargs["replications"] = _parse_int("experiment", "replications",
                                                sec["replications"])
        if "seed" in sec:
            kwargs["seed"] = _parse_int("experiment", "seed", sec["seed"])
        if "m0_override" in sec:
            raw = sec["m0_override"].strip()
            kwargs["m0_override"] = None if raw.lower() in ("", "none") else \
                _parse_int("experiment", "m0_override", raw)
        if "log_base" in sec:
            kwargs["log_base"] = sec["log_base"].strip()
        if "penalty_variant" in sec:
            kwargs["penalty_variant"] = sec["penalty_variant"].strip()
    if parser.has_section("density"):
        sec = parser["density"]
        if "kind" in sec:
            kwargs["density_kind"] = sec["kind"].strip()
        if "sigma" in sec:
            kwargs["density_sigma"] = _parse_float("density", "sigma", sec["sigma"])
        if "half_width" in sec:
            kwargs["density_half_width"] = _parse_float("density", "half_width",
                                                        sec["half_width"])
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Write a configuration back to INI text; parse(serialize(cfg)) == cfg."""
    out = io.StringIO()
    out.write("[experiment]\n")
    out.write(f"template = {cfg.template}\n")
    out.write(f"n = {cfg.n}\n")
    out.write(f"epsilon = {cfg.epsilon!r}\n")
    out.write(f"k_max = {cfg.k_max}\n")
    out.write(f"criterion = {cfg.criterion}\n")
    out.write(f"replications = {cfg.replications}\n")
    out.write(f"seed = {cfg.seed}\n")
    # "none" must be written out: a missing key would parse back as the default
    override = "none" if cfg.m0_override is None else cfg.m0_override
    out.write(f"m0_override = {override}\n")
    out.write(f"log_base = {cfg.log_base}\n")
    out.write(f"penalty_variant = {cfg.penalty_variant}\n")
    out.write("\n[density]\n")
    out.write(f"kind = {cfg.density_kind}\n")
    out.write(f"sigma = {cfg.density_sigma!r}\n")
    out.write(f"half_width = {cfg.density_half_width!r}\n")
    return out.getvalue()


def save_config(cfg: ExperimentConfig, path) -> Path:
    path = Path(path)
    path.write_text(serialize_config(cfg), encoding="utf-8")
    return path
