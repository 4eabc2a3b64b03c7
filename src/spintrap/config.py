"""Run configuration: JSON schema with explicit units, strict validation, hashing.

Configuration files are JSON objects whose keys carry their units
(``t2_seconds``, ``static_field_tesla``); unknown keys are hard errors so
typos cannot silently fall back to defaults.  The types are the schema:
``_SECTIONS``, the annotations of :class:`RunConfig`, names each section's
class, whose fields are the section's keys, spelled the same, so loading,
hashing and the physics code share one name per quantity, the defaults
are the class's own, and a refusal names the key the user wrote.  A key
takes only the JSON type of its field's annotation: an integer for ``int``
(the ensemble counts, the seed, in [0, 2**64), and ``spectrum.n_points``),
a string for ``str`` (``spectrum.lineshape``), else a finite number, not
``true`` or ``false`` (``t_s_seconds`` alone also takes ``"inf"``), and
never ``null``.  A ``species.preset`` is not a field: it picks the species
the other ``species`` keys override.  An integer literal for a number key
is stored as a float, so ``400`` and ``400.0`` are one configuration with
one hash.  Every section is optional and defaults to the built-in presets.
The CLI's override flags reach :func:`load_config` as ``{"section.key":
value}``.  Every output file holds :func:`config_text`, the resolved
configuration as one line of canonical JSON that
``load_config(json.loads(text))`` rebuilds, and its :func:`config_hash`.

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
from typing import get_type_hints

from .errors import ConfigError, Value
from .spincore import SPECIES_PRESETS, EnsembleSpec, Environment, RelaxationParams, SpinSpecies
from .spectrum import SweepSpec
from .trapdyn import TrapParams

__all__ = ["ConfigError", "RunConfig", "load_config", "config_text", "config_hash"]


class RunConfig(Value):
    environment: Environment
    species: SpinSpecies
    relaxation: RelaxationParams
    trap: TrapParams
    ensemble: EnsembleSpec
    spectrum: SweepSpec


# The schema: section -> its class, whose fields are the section's keys and
# whose annotations (int, str or a number) are their kinds.
_SECTIONS = get_type_hints(RunConfig)


def _section_kwargs(section: str, data: dict, cls: type) -> dict:
    kinds = get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        name = f"{section}.{key}"
        if key not in kinds:
            raise ConfigError(f"unknown key {name!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
        if kinds[key] is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {json.dumps(value)}")
        elif isinstance(value, bool):
            raise ConfigError(f"{name} must not be a boolean, got {json.dumps(value)}")
        elif kinds[key] is str:
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
    data["species"] = {**SPECIES_PRESETS[preset_name].as_dict(), **species}

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
        section: {key: resolved(getattr(getattr(config, section), key)) for key in cls.fields}
        for section, cls in _SECTIONS.items()
    }


def config_text(config: RunConfig) -> str:
    """The fully resolved configuration as one line of canonical JSON: sorted
    keys, no spaces, an infinite value as ``"inf"``.  :func:`load_config`
    of its parsed form gives the same configuration back."""
    return json.dumps(_resolved_dict(config), sort_keys=True, separators=(",", ":"))


def config_hash(config: RunConfig) -> str:
    """Stable 16-hex-digit digest of :func:`config_text`."""
    return hashlib.sha256(config_text(config).encode("utf-8")).hexdigest()[:16]
