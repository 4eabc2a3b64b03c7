"""Run configuration: JSON schema with explicit units, strict validation, hashing.

Configuration files are JSON objects whose keys carry their units
(``t2_seconds``, ``static_field_tesla``); unknown keys are hard errors so
typos cannot silently fall back to defaults.  Numbers must be finite
(``t_s_seconds`` alone also takes the string ``"inf"``), and the ensemble
counts, the seed and ``spectrum.n_points`` must be integers.  Every section
is optional and defaults to the built-in presets.  The resolved
configuration (defaults filled in) is hashed into every output file so
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
from dataclasses import dataclass

from .errors import ConfigError
from .spincore import (SPECIES_PRESETS, DANGLING_BOND, EnsembleSpec, Environment, RelaxationParams,
                       SpinSpecies)
from .spectrum import SweepSpec
from .trapdyn import TrapParams

__all__ = ["ConfigError", "SpectrumConfig", "RunConfig", "load_config", "config_hash"]


@dataclass(frozen=True)
class SpectrumConfig(SweepSpec):
    """The field sweep, over the preset lines by default, plus the display
    amplitudes of those lines."""

    b_start: float = 8.560
    b_stop: float = 8.600
    phosphorus_amplitude: float = 6.0e-10  # A; 1% of the 60 nA baseline
    db_amplitude_ratio: float = 0.05  # "barely visible" background line; 0 drops it

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.phosphorus_amplitude < 0 or self.db_amplitude_ratio < 0:
            raise ValueError("spectrum amplitudes must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    environment: Environment
    species: SpinSpecies
    relaxation: RelaxationParams
    trap: TrapParams
    ensemble: EnsembleSpec
    spectrum: SpectrumConfig

    def species_amplitudes(self) -> list[tuple[SpinSpecies, float]]:
        """Line list for the field sweep: the main species plus the db line."""
        return [
            (self.species, self.spectrum.phosphorus_amplitude),
            (DANGLING_BOND, self.spectrum.phosphorus_amplitude * self.spectrum.db_amplitude_ratio),
        ]


_DEFAULT_RELAXATION = dict(t1=2.5e-3, t2=160e-6, t_s=200e-6)

# JSON key -> dataclass field, per section.
_ENVIRONMENT_KEYS = {
    "static_field_tesla": "static_field_b0",
    "temperature_kelvin": "temperature",
    "mw_frequency_hz": "mw_frequency",
    "rabi_frequency_hz": "rabi_frequency",
}
_SPECIES_KEYS = {
    "g_factor": "g_factor",
    "hyperfine_splitting_tesla": "hyperfine_splitting_field",
    "nuclear_polarization": "nuclear_polarization",
    "linewidth_tesla": "linewidth_field",
}
_RELAXATION_KEYS = {
    "t1_seconds": "t1",
    "t2_seconds": "t2",
    "t_s_seconds": "t_s",
}
_TRAP_KEYS = {
    "capture_rate_per_second": "capture_rate_k0",
    "emission_rate_per_second": "emission_rate",
    "baseline_current_amperes": "baseline_current",
    "coupling_amplitude_amperes": "coupling_amplitude",
}
_ENSEMBLE_KEYS = {
    "n_static": "n_static",
    "n_noise": "n_noise",
    "rng_seed": "rng_seed",
}
_SPECTRUM_KEYS = {
    "b_start_tesla": "b_start",
    "b_stop_tesla": "b_stop",
    "n_points": "n_points",
    "lineshape": "lineshape",
    "phosphorus_amplitude_amperes": "phosphorus_amplitude",
    "db_amplitude_ratio": "db_amplitude_ratio",
}

_INTEGER_KEYS = {"ensemble.n_static", "ensemble.n_noise", "ensemble.rng_seed", "spectrum.n_points"}

_SECTIONS = {
    "environment": _ENVIRONMENT_KEYS,
    "species": _SPECIES_KEYS,
    "relaxation": _RELAXATION_KEYS,
    "trap": _TRAP_KEYS,
    "ensemble": _ENSEMBLE_KEYS,
    "spectrum": _SPECTRUM_KEYS,
}


def _section_kwargs(section: str, data: dict, keymap: dict) -> dict:
    kwargs = {}
    for key, value in data.items():
        if key == "preset" and section == "species":
            continue
        name = f"{section}.{key}"
        if key not in keymap:
            raise ConfigError(f"unknown key {name!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
        if name in _INTEGER_KEYS and (isinstance(value, bool) or not isinstance(value, int)):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        kwargs[keymap[key]] = value
    return kwargs


def _coerce_special(section: str, kwargs: dict) -> dict:
    if section == "relaxation" and isinstance(kwargs.get("t_s"), str):
        if kwargs["t_s"].lower() not in ("inf", "infinity"):
            raise ConfigError(f"relaxation.t_s_seconds must be a number or \"inf\", got {kwargs['t_s']!r}")
        kwargs["t_s"] = math.inf
    return kwargs


def load_config(data: dict | None = None, seed: int | None = None) -> RunConfig:
    """Build a validated :class:`RunConfig` from a parsed JSON object.

    ``seed`` overrides ``ensemble.rng_seed`` (the ``--seed`` flag).  Raises
    :class:`ConfigError` naming the offending field for unknown keys, bad
    types, or physically invalid values.
    """
    data = dict(data or {})
    for section in data:
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(data[section], dict):
            raise ConfigError(f"config section {section!r} must be an object")

    def build(section, cls, base_kwargs=None):
        body = data.get(section, {})
        kwargs = _section_kwargs(section, body, _SECTIONS[section])
        kwargs = _coerce_special(section, kwargs)
        merged = dict(base_kwargs or {})
        merged.update(kwargs)
        try:
            return cls(**merged)
        except (ValueError, TypeError, ArithmeticError) as exc:
            raise ConfigError(f"invalid {section!r} config: {exc}") from exc

    species_body = data.get("species", {})
    preset_name = species_body.get("preset", "phosphorus")
    if not isinstance(preset_name, str) or preset_name not in SPECIES_PRESETS:
        raise ConfigError(
            f"unknown species.preset {preset_name!r}; expected one of {sorted(SPECIES_PRESETS)}"
        )
    preset = SPECIES_PRESETS[preset_name]
    species_base = dict(
        label=preset.label,
        g_factor=preset.g_factor,
        hyperfine_splitting_field=preset.hyperfine_splitting_field,
        nuclear_polarization=preset.nuclear_polarization,
        linewidth_field=preset.linewidth_field,
    )

    ensemble_body = dict(data.get("ensemble", {}))
    if seed is not None:
        ensemble_body["rng_seed"] = seed
        data["ensemble"] = ensemble_body

    return RunConfig(
        environment=build("environment", Environment),
        species=build("species", SpinSpecies, species_base),
        relaxation=build("relaxation", RelaxationParams, _DEFAULT_RELAXATION),
        trap=build("trap", TrapParams),
        ensemble=build("ensemble", EnsembleSpec),
        spectrum=build("spectrum", SpectrumConfig),
    )


def _resolved_dict(config: RunConfig) -> dict:
    def section(obj, keymap):
        out = {}
        for json_key, attr in keymap.items():
            value = getattr(obj, attr)
            if isinstance(value, float) and math.isinf(value):
                value = "inf"
            out[json_key] = value
        return out

    return {
        "environment": section(config.environment, _ENVIRONMENT_KEYS),
        "species": section(config.species, _SPECIES_KEYS),
        "relaxation": section(config.relaxation, _RELAXATION_KEYS),
        "trap": section(config.trap, _TRAP_KEYS),
        "ensemble": section(config.ensemble, _ENSEMBLE_KEYS),
        "spectrum": section(config.spectrum, _SPECTRUM_KEYS),
    }


def config_hash(config: RunConfig) -> str:
    """Stable 16-hex-digit digest of the fully resolved configuration."""
    canonical = json.dumps(_resolved_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
