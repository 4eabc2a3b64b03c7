"""The configuration schema: pinned hashes, the resolved form, the key each
override flag sets, and the values a config may not hold."""

import json
from pathlib import Path

import pytest

from spintrap.cli import main
from spintrap.config import _SECTIONS, ConfigError, _resolved_dict, config_hash, config_text, load_config
from spintrap.spincore import EnsembleSpec
from spintrap.trace import read_trace_csv

SEQ_DIR = Path(__file__).resolve().parents[1] / "src" / "spintrap" / "sequences" / "v1"

# the keys that take an integer, and a string, spelled out here as the
# oracle for the kinds the config types' annotations give
_INTEGER_KEYS = {"ensemble.n_static", "ensemble.n_noise", "ensemble.rng_seed", "spectrum.n_points"}
_STRING_KEYS = {"spectrum.lineshape"}

_CONFIGS = {
    "defaults": {},
    "pulsed_defaults": json.loads((SEQ_DIR / "pulsed_defaults.json").read_text()),
    "inversion_recovery": json.loads((SEQ_DIR / "inversion_recovery.json").read_text()),
    "dangling-bond-inf": {"relaxation": {"t_s_seconds": "inf"}, "species": {"preset": "dangling_bond"}},
}


@pytest.mark.parametrize("name, digest", [
    ("defaults", "49d6276d737de6a5"),
    ("pulsed_defaults", "077c605f46a00025"),
    ("inversion_recovery", "1690907ccaea82bb"),
    ("dangling-bond-inf", "c42584c93c1ed6fd"),
])
def test_pinned_hash(name, digest):
    # the shipped configs as they stand; a digest moves with any change to
    # what a resolved config holds
    assert config_hash(load_config(_CONFIGS[name])) == digest


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_resolved_dict_round_trips(name):
    resolved = _resolved_dict(load_config(_CONFIGS[name]))
    assert _resolved_dict(load_config(resolved)) == resolved


def test_edited_config_line_rederives_the_coupling():
    # a file's config line holds the rates and the baseline, not the
    # coupling they set, so editing a rate there moves the coupling as
    # stating that rate alone does
    edited = json.loads(config_text(load_config()))
    edited["trap"]["capture_rate_per_second"] = 5e3
    alone = load_config({"trap": {"capture_rate_per_second": 5e3}})
    assert load_config(edited).trap.coupling_amplitude_amperes == alone.trap.coupling_amplitude_amperes
    assert alone.trap.coupling_amplitude_amperes != load_config().trap.coupling_amplitude_amperes


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


_KEYS = [f"{section}.{key}" for section, cls in _SECTIONS.items() for key in cls.fields]


@pytest.mark.parametrize("name", _KEYS + ["species.preset"])
@pytest.mark.parametrize("value", [True, False])
def test_boolean_refused(name, value):
    section, key = name.split(".")
    with pytest.raises(ConfigError, match="integer" if name in _INTEGER_KEYS else "boolean|preset"):
        load_config({section: {key: value}})


# a value each key's type refuses
_INVALID = {
    "environment.static_field_tesla": -1, "environment.temperature_kelvin": 0,
    "environment.mw_frequency_hz": -240e9, "environment.rabi_frequency_hz": 0,
    "species.g_factor": 0, "species.hyperfine_splitting_tesla": -1e-3,
    "species.nuclear_polarization": 1.5, "species.linewidth_tesla": 0,
    "relaxation.t1_seconds": -1, "relaxation.t2_seconds": 1, "relaxation.t_s_seconds": 0,
    "trap.capture_rate_per_second": 0, "trap.emission_rate_per_second": -400,
    "trap.baseline_current_amperes": 0,
    "ensemble.n_static": 0, "ensemble.n_noise": 0, "ensemble.rng_seed": -1,
    "spectrum.b_start_tesla": 9, "spectrum.b_stop_tesla": 8, "spectrum.n_points": 1,
    "spectrum.lineshape": "voigt", "spectrum.phosphorus_amplitude_amperes": -1,
    "spectrum.db_amplitude_ratio": -1,
}


@pytest.mark.parametrize("name", _KEYS)
def test_refusal_names_its_key(tmp_path, capsys, name):
    section, key = name.split(".")
    path = tmp_path / "c.json"
    path.write_text(json.dumps({section: {key: _INVALID[name]}}))
    assert main(["nutation", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err, err


@pytest.mark.parametrize("capture, emission", [(5e-324, 1e308), (1e308, 1e-308)],
                         ids=["rate-ratio-underflows", "rate-ratio-overflows"])
def test_underivable_coupling_names_the_keys(tmp_path, capsys, capture, emission):
    # the rates' peak trapped fraction is not a positive finite number, so
    # the coupling cannot be derived from it
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"trap": {"capture_rate_per_second": capture,
                                         "emission_rate_per_second": emission}}))
    assert main(["transient", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for key in ("capture_rate_per_second", "emission_rate_per_second"):
        assert key in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("name", _KEYS)
@pytest.mark.parametrize("kind", ["other-scalar", "null", "list", "object"])
def test_wrong_json_type_refused(tmp_path, capsys, name, kind):
    # a string for a number key (a number for a string key), null, a list or
    # an object: refused with exit 2 and one line naming the key
    section, key = name.split(".")
    value = {"other-scalar": 8.6 if name in _STRING_KEYS else "8.6", "null": None, "list": [1],
             "object": {"a": 1}}[kind]
    path = tmp_path / "c.json"
    path.write_text(json.dumps({section: {key: value}}))
    assert main(["nutation", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be ") and err.count("\n") == 1, err
    assert not (tmp_path / "x.csv").exists()


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
