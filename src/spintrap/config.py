"""Run configuration: JSON schema with explicit units, strict validation, hashing.

Configuration files are JSON objects whose keys carry their units
(``t2_seconds``, ``static_field_tesla``); unknown keys are hard errors so
typos cannot silently fall back to defaults.  One table, ``_SECTIONS``,
names each section's class.  A section's keys are the fields of its class,
spelled the same, so loading, hashing and the physics code share one name
per quantity, the defaults are the class's own, and a refusal names the
key the user wrote.  Each key takes only its own JSON type: a number,
finite and neither ``true`` nor ``false`` (``t_s_seconds`` alone also
takes the string ``"inf"``), or a string for ``spectrum.lineshape``;
``null`` is refused everywhere.  A ``species.preset`` is not a field: it
picks the species the other ``species`` keys override.  The ensemble
counts, the seed and ``spectrum.n_points`` must be integers, and the seed
must lie in [0, 2**64); an integer literal for any other key is stored as
a float, so ``400`` and ``400.0`` are one configuration with one hash.
Every section is optional and defaults to the built-in presets.  The CLI's
override flags reach :func:`load_config` as ``{"section.key": value}``.  The
resolved configuration (defaults filled in) is hashed into every output file so
traces can be matched to the physics that produced them.

Example::

    {
      "environment": {"static_field_tesla": 8.5802, "rabi_frequency_hz": 1.0416667e6},
      "species":     {"preset": "phosphorus", "linewidth_tesla": 2e-5},
      "relaxation":  {"t1_seconds": 2.5e-3, "t2_seconds": 160e-6, "t_s_seconds": 200e-6},
      "ensemble":    {"n_static": 128, "n_noise": 32, "rng_seed": 7}
    }
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

from .errors import ConfigError
from .spincore import SPECIES_PRESETS, EnsembleSpec, Environment, RelaxationParams, SpinSpecies
from .spectrum import SweepSpec
from .trapdyn import TrapParams

__all__ = ["ConfigError", "RunConfig", "load_config", "config_hash"]


@dataclass(frozen=True)
class RunConfig:
    environment: Environment
    species: SpinSpecies
    relaxation: RelaxationParams
    trap: TrapParams
    ensemble: EnsembleSpec
    spectrum: SweepSpec


# The schema: section -> its class, whose fields are the section's keys.
# The sections are also the fields of RunConfig, in the same order.
_SECTIONS = {
    "environment": Environment,
    "species": SpinSpecies,
    "relaxation": RelaxationParams,
    "trap": TrapParams,
    "ensemble": EnsembleSpec,
    "spectrum": SweepSpec,
}

_INTEGER_KEYS = {"ensemble.n_static", "ensemble.n_noise", "ensemble.rng_seed", "spectrum.n_points"}
_STRING_KEYS = {"spectrum.lineshape"}


def _section_kwargs(section: str, data: dict, cls: type) -> dict:
    kwargs = {}
    for key, value in data.items():
        name = f"{section}.{key}"
        if key not in cls.__dataclass_fields__:
            raise ConfigError(f"unknown key {name!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
        if name in _INTEGER_KEYS:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {json.dumps(value)}")
        elif isinstance(value, bool):
            raise ConfigError(f"{name} must not be a boolean, got {json.dumps(value)}")
        elif name in _STRING_KEYS:
            if not isinstance(value, str):
                raise ConfigError(f"{name} must be a string, got {json.dumps(value)}")
        elif name == "relaxation.t_s_seconds" and isinstance(value, str):
            if value.lower() not in ("inf", "infinity"):
                raise ConfigError(f"relaxation.t_s_seconds must be a number or \"inf\", got {value!r}")
            value = math.inf
        elif not isinstance(value, (int, float)):  # a string, null, a list or an object
            raise ConfigError(f"{name} must be a number, got {json.dumps(value)}")
        elif isinstance(value, int):
            # 400 and 400.0 are one value and must hash alike
            try:
                value = float(value)
            except OverflowError as exc:
                raise ConfigError(f"invalid {section!r} config: {exc}") from exc
        kwargs[key] = value
    return kwargs


def load_config(data: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a validated :class:`RunConfig` from a parsed JSON object.

    ``overrides`` maps ``"section.key"`` names to values that replace the
    file's (the CLI override flags).  Raises :class:`ConfigError` naming the
    offending key for unknown keys, bad types, or physically invalid values.
    """
    data = dict(data or {})
    for section in data:
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(data[section], dict):
            raise ConfigError(f"config section {section!r} must be an object")
    for name, value in (overrides or {}).items():
        section, key = name.split(".")
        data[section] = {**data.get(section, {}), key: value}

    species = dict(data.get("species", {}))
    preset_name = species.pop("preset", "phosphorus")
    if not isinstance(preset_name, str) or preset_name not in SPECIES_PRESETS:
        raise ConfigError(
            f"unknown species.preset {preset_name!r}; expected one of {sorted(SPECIES_PRESETS)}"
        )
    data["species"] = {**asdict(SPECIES_PRESETS[preset_name]), **species}

    sections = {}
    for section, cls in _SECTIONS.items():
        kwargs = _section_kwargs(section, data.get(section, {}), cls)
        try:
            sections[section] = cls(**kwargs)
        except (ValueError, TypeError, ArithmeticError) as exc:
            raise ConfigError(f"invalid {section!r} config: {exc}") from exc
    return RunConfig(**sections)


def _resolved_dict(config: RunConfig) -> dict:
    def resolved(value):
        return "inf" if isinstance(value, float) and math.isinf(value) else value

    return {
        section: {key: resolved(getattr(getattr(config, section), key)) for key in cls.__dataclass_fields__}
        for section, cls in _SECTIONS.items()
    }


def config_hash(config: RunConfig) -> str:
    """Stable 16-hex-digit digest of the fully resolved configuration."""
    canonical = json.dumps(_resolved_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
