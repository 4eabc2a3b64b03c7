"""The configuration schema: pinned hashes, the resolved form, the key each
override flag sets, and the values a config may not hold."""

import json
from pathlib import Path

import pytest

from spintrap.cli import main
from spintrap.config import _INTEGER_KEYS, _SECTIONS, ConfigError, _resolved_dict, config_hash, load_config
from spintrap.spincore import EnsembleSpec
from spintrap.trace import read_trace_csv

SEQ_DIR = Path(__file__).resolve().parents[1] / "src" / "spintrap" / "sequences" / "v1"

_CONFIGS = {
    "defaults": {},
    "pulsed_defaults": json.loads((SEQ_DIR / "pulsed_defaults.json").read_text()),
    "inversion_recovery": json.loads((SEQ_DIR / "inversion_recovery.json").read_text()),
    "dangling-bond-inf": {"relaxation": {"t_s_seconds": "inf"}, "species": {"preset": "dangling_bond"}},
}


@pytest.mark.parametrize("name, digest", [
    ("defaults", "bcf899d5b3f13113"),
    ("pulsed_defaults", "28348f1404287655"),
    ("inversion_recovery", "83128cc5457c3acf"),
    ("dangling-bond-inf", "d335f2fb1e378db1"),
])
def test_pinned_hash(name, digest):
    # every golden and every trace already written carries one of these
    assert config_hash(load_config(_CONFIGS[name])) == digest


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_resolved_dict_round_trips(name):
    resolved = _resolved_dict(load_config(_CONFIGS[name]))
    assert _resolved_dict(load_config(resolved)) == resolved


# flag, the commands that take it, the config key it sets, and a value that
# differs from the default
_OVERRIDES = [
    ("--seed", ("spectrum", "transient", "run", "nutation"), "ensemble", "rng_seed", 5),
    ("--b-start", ("spectrum",), "spectrum", "b_start_tesla", 8.57),
    ("--b-stop", ("spectrum",), "spectrum", "b_stop_tesla", 8.59),
    ("--n-points", ("spectrum",), "spectrum", "n_points", 101),
    ("--lineshape", ("spectrum",), "spectrum", "lineshape", "lorentzian"),
    ("--nuclear-polarization", ("spectrum",), "species", "nuclear_polarization", 0.2),
    ("--n-static", ("run",), "ensemble", "n_static", 8),
    ("--n-noise", ("run",), "ensemble", "n_noise", 4),
    ("--linewidth", ("run", "nutation"), "species", "linewidth_tesla", 1e-5),
    ("--rabi-frequency", ("run",), "environment", "rabi_frequency_hz", 2e6),
]


@pytest.mark.parametrize("command, flag, section, key, value", [
    (command, flag, section, key, value)
    for flag, commands, section, key, value in _OVERRIDES for command in commands
], ids=[f"{command}{flag}" for flag, commands, *_ in _OVERRIDES for command in commands])
def test_override_flag_sets_its_key(tmp_path, command, flag, section, key, value):
    argv = [command]
    if command == "run":
        program = tmp_path / "p.seq"
        program.write_text("pulse pi +x\nacquire mz\n")
        argv.append(str(program))
    out = tmp_path / "x.csv"
    assert main(argv + [flag, str(value), "--out", str(out)]) == 0
    expected = config_hash(load_config({section: {key: value}}))
    assert expected != config_hash(load_config({}))
    assert read_trace_csv(str(out)).meta["config_hash"] == expected


_KEYS = [f"{section}.{key}" for section, (_, keys) in _SECTIONS.items() for key in keys]


@pytest.mark.parametrize("name", _KEYS + ["species.preset"])
@pytest.mark.parametrize("value", [True, False])
def test_boolean_refused(name, value):
    section, key = name.split(".")
    with pytest.raises(ConfigError, match="integer" if name in _INTEGER_KEYS else "boolean|preset"):
        load_config({section: {key: value}})


@pytest.mark.parametrize("name, literal", [
    ("environment.mw_frequency_hz", 240_000_000_000),
    ("species.nuclear_polarization", 0),
    ("relaxation.t1_seconds", 1),
    ("trap.emission_rate_per_second", 400),  # the default 400.0: one hash, so fit may mix the files
    ("spectrum.b_stop_tesla", 9),
])
def test_integer_literal_is_stored_as_float(name, literal):
    section, key = name.split(".")
    config = load_config({section: {key: literal}})
    stored = _resolved_dict(config)[section][key]
    assert type(stored) is float and stored == literal
    assert config_hash(config) == config_hash(load_config({section: {key: float(literal)}}))


def test_integer_too_large_for_float_refused():
    with pytest.raises(ConfigError, match="too large"):
        load_config({"environment": {"temperature_kelvin": 10**400}})


def test_seed_range():
    assert EnsembleSpec(rng_seed=0).rng_seed == 0
    assert EnsembleSpec(rng_seed=2**64 - 1).rng_seed == 2**64 - 1
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="rng_seed"):
            EnsembleSpec(rng_seed=seed)
