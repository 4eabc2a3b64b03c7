"""Run configuration: JSON schema with explicit units, strict validation, hashing.

Configuration files are JSON objects whose keys carry their units
(``t2_seconds``, ``static_field_tesla``); unknown keys are hard errors so
typos cannot silently fall back to defaults.  One table, ``_SECTIONS``,
names each section's class and maps its JSON keys to the class's fields;
loading, validation, defaults and hashing all read it.  Numbers must be
finite and may not be ``true`` or ``false`` (``t_s_seconds`` alone also
takes the string ``"inf"``).  The ensemble counts, the seed and
``spectrum.n_points`` must be integers, and the seed must lie in
[0, 2**64); an integer literal for any other key is stored as a float, so
``400`` and ``400.0`` are one configuration with one hash.  Every section
is optional and defaults to the built-in presets.  The CLI's override
flags reach :func:`load_config` as ``{"section.key": value}``.  The resolved
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
from dataclasses import asdict, dataclass

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


# The schema: section -> (its class, {JSON key: dataclass field}).  The
# sections are also the fields of RunConfig, in the same order.
_SECTIONS = {
    "environment": (Environment, {
        "static_field_tesla": "static_field_b0", "temperature_kelvin": "temperature",
        "mw_frequency_hz": "mw_frequency", "rabi_frequency_hz": "rabi_frequency"}),
    "species": (SpinSpecies, {
        "g_factor": "g_factor", "hyperfine_splitting_tesla": "hyperfine_splitting_field",
        "nuclear_polarization": "nuclear_polarization", "linewidth_tesla": "linewidth_field"}),
    "relaxation": (RelaxationParams, {"t1_seconds": "t1", "t2_seconds": "t2", "t_s_seconds": "t_s"}),
    "trap": (TrapParams, {
        "capture_rate_per_second": "capture_rate_k0", "emission_rate_per_second": "emission_rate",
        "baseline_current_amperes": "baseline_current",
        "coupling_amplitude_amperes": "coupling_amplitude"}),
    "ensemble": (EnsembleSpec, {"n_static": "n_static", "n_noise": "n_noise", "rng_seed": "rng_seed"}),
    "spectrum": (SpectrumConfig, {
        "b_start_tesla": "b_start", "b_stop_tesla": "b_stop", "n_points": "n_points",
        "lineshape": "lineshape", "phosphorus_amplitude_amperes": "phosphorus_amplitude",
        "db_amplitude_ratio": "db_amplitude_ratio"}),
}

_INTEGER_KEYS = {"ensemble.n_static", "ensemble.n_noise", "ensemble.rng_seed", "spectrum.n_points"}


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
        if name in _INTEGER_KEYS:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        elif isinstance(value, bool):
            raise ConfigError(f"{name} must not be a boolean, got {json.dumps(value)}")
        elif isinstance(value, int):
            # 400 and 400.0 are one value and must hash alike
            try:
                value = float(value)
            except OverflowError as exc:
                raise ConfigError(f"invalid {section!r} config: {exc}") from exc
        elif name == "relaxation.t_s_seconds" and isinstance(value, str):
            if value.lower() not in ("inf", "infinity"):
                raise ConfigError(f"relaxation.t_s_seconds must be a number or \"inf\", got {value!r}")
            value = math.inf
        kwargs[keymap[key]] = value
    return kwargs


def load_config(data: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a validated :class:`RunConfig` from a parsed JSON object.

    ``overrides`` maps ``"section.key"`` names to values that replace the
    file's (the CLI override flags).  Raises :class:`ConfigError` naming the
    offending field for unknown keys, bad types, or physically invalid
    values.
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

    preset_name = data.get("species", {}).get("preset", "phosphorus")
    if not isinstance(preset_name, str) or preset_name not in SPECIES_PRESETS:
        raise ConfigError(
            f"unknown species.preset {preset_name!r}; expected one of {sorted(SPECIES_PRESETS)}"
        )
    bases = {"species": asdict(SPECIES_PRESETS[preset_name]),
             "relaxation": dict(t1=2.5e-3, t2=160e-6, t_s=200e-6)}

    sections = {}
    for section, (cls, keymap) in _SECTIONS.items():
        kwargs = {**bases.get(section, {}), **_section_kwargs(section, data.get(section, {}), keymap)}
        try:
            sections[section] = cls(**kwargs)
        except (ValueError, TypeError, ArithmeticError) as exc:
            raise ConfigError(f"invalid {section!r} config: {exc}") from exc
    return RunConfig(**sections)


def _resolved_dict(config: RunConfig) -> dict:
    def resolved(value):
        return "inf" if isinstance(value, float) and math.isinf(value) else value

    return {
        section: {key: resolved(getattr(getattr(config, section), attr)) for key, attr in keymap.items()}
        for section, (_, keymap) in _SECTIONS.items()
    }


def config_hash(config: RunConfig) -> str:
    """Stable 16-hex-digit digest of the fully resolved configuration."""
    canonical = json.dumps(_resolved_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
