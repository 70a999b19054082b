"""Experiment configuration: a flat dataclass with an INI file round-trip.

The default configuration reproduces the reference simulation study: the
catalog wave template on the band ``|k| <= 40``, Laplace(0.1) shifts, n = 100
curves, 100 replications, and the selection band capped at 32.

``CONFIG_FIELDS`` holds one row per :class:`ExperimentConfig` field: its INI
section and key, its CLI flag, the flag's help text, and the one parser that
turns a raw string into the value.  :func:`parse_config`,
:func:`serialize_config` and the CLI flags all read that table, so a flag and
a file key accept the same text, and a bad value from either raises
:class:`~shiftdecon.errors.ConfigError` naming where it came from.

File format (both sections required only when a key in them is set; unknown
sections or keys are rejected; ``%`` is literal, there is no interpolation)::

    [experiment]
    template = wave            ; catalog name or a coefficient CSV path
    n = 100
    epsilon = 0.015
    k_max = 40
    criterion = u_bar          ; one of u, u_bar, u_tilde
    replications = 100
    seed = 1
    m0_override = 32           ; an integer, or none / formula (or empty) for the computed cap
    penalty_variant = printed_form  ; proof_form | printed_form

    [density]
    kind = laplace             ; laplace | gaussian | uniform | point_mass
    sigma = 0.1                ; laplace / gaussian scale
    half_width = 0.25          ; uniform support parameter
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .catalog import TEMPLATE_BUILDERS, catalog_template
from .csvio import format_cell, read_template_csv
from .errors import ConfigError, InvalidParameterError
from .selection import CRITERION_KINDS, PENALTY_VARIANTS
from .simulate import _check_inputs
from .spectral import (ShiftDensity, Template, _check_choice, _check_integer, gaussian_density,
                       laplace_density, point_mass_density, uniform_density)

__all__ = ["ExperimentConfig", "CONFIG_FIELDS", "parse_config", "load_config",
           "serialize_config", "save_config", "build_density", "build_template"]

_DENSITY_BUILDERS = {
    "laplace": lambda cfg: laplace_density(cfg.density_sigma),
    "gaussian": lambda cfg: gaussian_density(cfg.density_sigma),
    "uniform": lambda cfg: uniform_density(cfg.density_half_width),
    "point_mass": lambda cfg: point_mass_density(),
}
DENSITY_KINDS = tuple(_DENSITY_BUILDERS)


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
    penalty_variant: str = "printed_form"

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        def library(key, check, *args):
            try:
                check(*args)
            except InvalidParameterError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from None

        # Each value must have its parser's type, or it is written back as
        # another: the library checks refuse a number or a text of the wrong type.
        if not (isinstance(self.template, str) and self.template):
            raise ConfigError(f"config key 'template': must be a catalog name or a file path, "
                              f"got {self.template!r}")
        library("density.kind", _check_choice, "density kind", self.density_kind, DENSITY_KINDS)
        library("density.sigma", laplace_density, self.density_sigma)
        library("density.half_width", uniform_density, self.density_half_width)
        library("n", _check_inputs, self.n, 0.0)
        library("epsilon", _check_inputs, 1, self.epsilon)
        library("k_max", _check_integer, "k_max", self.k_max, 1)
        library("criterion", _check_choice, "criterion", self.criterion, CRITERION_KINDS)
        library("replications", _check_integer, "replications", self.replications, 2)
        library("seed", _check_integer, "seed", self.seed, 0, None)
        if self.m0_override is not None:
            # its upper bound, the k_max of the built template's band, is checked at use
            library("m0_override", _check_integer, "m0_override", self.m0_override, 0)
        library("penalty_variant", _check_choice, "penalty_variant", self.penalty_variant,
                PENALTY_VARIANTS)


def build_density(cfg: ExperimentConfig) -> ShiftDensity:
    """Instantiate the configured shift density."""
    return _DENSITY_BUILDERS[cfg.density_kind](cfg)


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


# Parsers take the raw text and where it came from (``[section] key`` or a
# flag), which a ConfigError names.

def _text(raw: str, where: str) -> str:
    return raw


def _int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {raw!r}") from None


def _float(raw: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from None


def _m0_override(raw: str, where: str) -> Optional[int]:
    if raw.lower() in ("", "none", "formula"):
        return None
    return _int(raw, where)


class ConfigField(NamedTuple):
    """One :class:`ExperimentConfig` field as the INI file and the CLI see it."""

    name: str
    section: str
    key: str
    flag: str
    help: str
    parse: Callable[[str, str], object]


# In ExperimentConfig's field order; each section's keys are written in this order.
CONFIG_FIELDS = (
    ConfigField("template", "experiment", "template", "--template",
                "catalog template name or coefficient CSV path", _text),
    ConfigField("density_kind", "density", "kind", "--density",
                f"shift density kind: {' | '.join(DENSITY_KINDS)}", _text),
    ConfigField("density_sigma", "density", "sigma", "--sigma",
                "laplace/gaussian scale", _float),
    ConfigField("density_half_width", "density", "half_width", "--half-width",
                "uniform density half width", _float),
    ConfigField("n", "experiment", "n", "--n", "curves per dataset", _int),
    ConfigField("epsilon", "experiment", "epsilon", "--epsilon", "noise level", _float),
    ConfigField("k_max", "experiment", "k_max", "--k-max",
                "frequency band half-width", _int),
    ConfigField("criterion", "experiment", "criterion", "--criterion",
                f"selection criterion for single-selection commands: "
                f"{' | '.join(CRITERION_KINDS)}", _text),
    ConfigField("replications", "experiment", "replications", "--replications",
                "Monte Carlo replications", _int),
    ConfigField("seed", "experiment", "seed", "--seed", "base seed", _int),
    ConfigField("m0_override", "experiment", "m0_override", "--m0-override",
                "fix the selection cap (integer), or none / formula for the computed cap",
                _m0_override),
    ConfigField("penalty_variant", "experiment", "penalty_variant", "--penalty-variant",
                f"penalty summand variant for the penalized criterion: "
                f"{' | '.join(PENALTY_VARIANTS)}", _text),
)
_SECTIONS = ("experiment", "density")
_BY_KEY = {(f.section, f.key): f for f in CONFIG_FIELDS}


def parse_config(text: str) -> ExperimentConfig:
    """Parse an INI fragment into a validated configuration."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            field = _BY_KEY.get((section, key))
            if field is None:
                raise ConfigError(f"unknown config key {key!r} in section [{section}]")
            values[field.name] = field.parse(raw, f"[{section}] {key}")
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text)


# Text the INI reader would not give back: an inline comment (``;`` or ``#``
# after whitespace, the space after ``=`` included) or a line break.
_UNREADABLE_TEXT = re.compile(r"\s[;#]|[\r\n]")


def _format(field: ConfigField, value) -> str:
    # "none" must be written out: a missing m0_override would parse back as the default
    if value is None:
        return "none"
    if not isinstance(value, str):
        return format_cell(value)
    if value != value.strip() or _UNREADABLE_TEXT.search(" " + value):
        raise ConfigError(
            f"config key {field.key!r}: {value!r} cannot be written to an INI file "
            f"and read back (leading or trailing whitespace, a line break, or "
            f"';' or '#' after whitespace)")
    return value


def serialize_config(cfg: ExperimentConfig) -> str:
    """Write a configuration back to INI text; parse(serialize(cfg)) == cfg.

    Raises :class:`ConfigError` for a string the reader would give back
    otherwise, rather than write it.
    """
    return "\n".join(
        f"[{section}]\n" + "".join(f"{f.key} = {_format(f, getattr(cfg, f.name))}\n"
                                   for f in CONFIG_FIELDS if f.section == section)
        for section in _SECTIONS)


def save_config(cfg: ExperimentConfig, path) -> Path:
    path = Path(path)
    path.write_text(serialize_config(cfg), encoding="utf-8")
    return path
