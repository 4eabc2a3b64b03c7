"""Command-line front end.

Subcommands::

    spintrap spectrum   synthesize a field-swept spectrum
    spintrap transient  single-pulse photocurrent transient
    spintrap run        parse, compile, and run a .seq pulse program
    spintrap nutation   mz versus pulse duration (Rabi oscillations)
    spintrap fit        fit a trace CSV and emit a JSON report

All commands but ``fit`` accept ``--config <json>`` (see
:mod:`spintrap.config`) and ``--seed <int>``, and all accept ``--out <path>``.  Exit codes: 0 success, 2 invalid
configuration/usage, 3 sequence error, 4 data error.  Outputs are CSV traces
(or JSON for ``fit``) stamped with the resolved config hash; identical
configuration and seed give byte-identical data sections.

A flag that overrides a config key has that ``section.key`` as its argparse
``dest``, which ``-h`` shows as its metavar; the dotted dests that are set
reach :func:`spintrap.config.load_config` as its ``overrides``.
"""

from __future__ import annotations

import gc

# Every call is a fresh process whose imports leave some 30k objects that
# live until exit.  With the collector paused while the imports make them,
# no collection pass walks them then; frozen afterwards (moved where the
# collector never looks), they are not walked by a later collection or by
# the one at interpreter exit either.  Each command imports the modules
# only it runs (config, engine, sequence language, fitter) in its own body,
# so a call pays for no module it does not use.
_collecting = gc.isenabled()
gc.disable()
try:
    import argparse
    import dataclasses
    import json
    import math
    import sys
    from datetime import datetime, timezone
    from typing import TYPE_CHECKING

    import numpy as np

    from . import __version__
    from .errors import (ConfigError, CsvFormatError, DegenerateDataError, MixedConfigHashError,
                         SequenceError)
    from .trace import SignalTrace, read_trace_csv, require_finite, write_trace_csv
finally:
    if _collecting:
        gc.enable()
gc.freeze()

if TYPE_CHECKING:
    from .config import RunConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SEQUENCE = 3
EXIT_DATA = 4

# Largest `run`: sweep points times trajectories per point, with each point
# counted as at least MIN_POINT_WORK trajectories.  Compiling a point,
# running its own events and building its trace take about 0.25 ms, as
# much as propagating about 650 trajectories through it (a swept Hahn echo
# on 2 vCPU, at about 0.4 us per trajectory and point).  1e8 is under a
# minute of engine time on one core; anything larger exits 3 before the
# sweep grid or any ensemble is allocated.
MAX_SWEEP_WORK = 10**8
MIN_POINT_WORK = 1024

# Longest grid of `spectrum`, `transient` and `nutation`, and largest
# `nutation` ensemble; `nutation` also keeps points x n_static within
# MAX_SWEEP_WORK.  At the bound a command peaks near 64 MB (the trace's
# Python floats and CSV lines, not its arrays) and `nutation` runs about
# 12 s.  Larger requests exit 2 before anything is allocated.
MAX_POINTS = 10**5


def _load_config_file(args) -> RunConfig:
    from .config import load_config

    data = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}")
        except ValueError as exc:  # JSONDecodeError, or an integer past the 4300-digit limit
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ConfigError(f"config file must hold a JSON object, got {json.dumps(data)[:40]}")
    # an override flag's dest is the "section.key" it sets
    overrides = {dest: value for dest, value in vars(args).items() if "." in dest and value is not None}
    return load_config(data, overrides)


def _base_meta(config: RunConfig) -> dict:
    from .config import config_hash

    return {
        "created": datetime.now(timezone.utc).isoformat(),
        "config_hash": config_hash(config),
        "rng_seed": config.ensemble.rng_seed,
        "tool_version": __version__,
    }


def _write_output(trace: SignalTrace, config: RunConfig, path: str, extra_meta=None) -> None:
    meta = dict(trace.meta)
    meta.pop("y_stderr", None)  # kept in-memory only; the file format is x,y
    meta.update(_base_meta(config))
    meta.update(extra_meta or {})
    out = dataclasses.replace(trace, meta=meta)
    write_trace_csv(out, path)
    print(f"wrote {path} ({len(out)} points)")


def _time_grid(args) -> np.ndarray:
    """``--n-points`` evenly spaced times from 0 to ``--t-max``."""
    if not (math.isfinite(args.t_max) and args.t_max > 0):
        raise ConfigError(f"--t-max must be finite and > 0, got {args.t_max}")
    if not 1 <= args.n_points <= MAX_POINTS:
        raise ConfigError(f"--n-points must lie in [1, {MAX_POINTS}], got {args.n_points}")
    return np.linspace(0.0, args.t_max, args.n_points)


def cmd_spectrum(args) -> int:
    config = _load_config_file(args)
    from . import spectrum

    if config.spectrum.n_points > MAX_POINTS:
        raise ConfigError(f"spectrum.n_points must be <= {MAX_POINTS}, got {config.spectrum.n_points}")
    trace = spectrum.simulate_field_sweep(config.species_amplitudes(), config.environment, config.spectrum)
    _write_output(trace, config, args.out, {"command": "spectrum"})
    return EXIT_OK


def cmd_transient(args) -> int:
    grid = _time_grid(args)
    for flag, value in (("--pulse-angle-deg", args.pulse_angle_deg),
                        ("--field-offset-tesla", args.field_offset_tesla)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    if args.pulse_angle_deg < 0:
        raise ConfigError(f"--pulse-angle-deg must be >= 0, got {args.pulse_angle_deg}")
    config = _load_config_file(args)
    from . import blochsim, trapdyn
    from .spincore import equilibrium_state, gyromagnetic_ratio

    env, species, trap = config.environment, config.species, config.trap
    if args.flip_fraction is not None:
        fraction = args.flip_fraction
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError(f"--flip-fraction must lie in [0, 1], got {fraction}")
    else:
        eq = equilibrium_state(env, species)
        w1 = 2.0 * math.pi * env.rabi_frequency
        duration = math.radians(args.pulse_angle_deg) / w1
        det = gyromagnetic_ratio(species.g_factor) * args.field_offset_tesla
        final = blochsim.apply_pulse(eq, w1, "+x", duration, det)
        if not math.isfinite(final.mz):  # a drive so weak the pulse never ends
            raise CsvFormatError(f"refusing to write a transient: the pulse leaves mz={final.mz}")
        fraction = trapdyn.flip_fraction_from_state(final.mz, eq.mz)
    trace = trapdyn.transient_response(fraction, trap, grid)
    _write_output(trace, config, args.out, {"command": "transient", "flip_fraction": fraction})
    return EXIT_OK


def cmd_run(args) -> int:
    config = _load_config_file(args)
    from . import blochsim, seqlang

    try:
        with open(args.seqfile, "r", encoding="utf-8") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SequenceError(f"cannot read sequence file {args.seqfile}: {exc}")
    ast = seqlang.parse(source)
    ensemble = config.ensemble
    n_points = ast.sweep.steps if ast.sweep is not None else 1
    work = n_points * max(ensemble.n_trajectories, MIN_POINT_WORK)
    if work > MAX_SWEEP_WORK:
        raise SequenceError(
            f"{n_points} points x {ensemble.n_trajectories} trajectories exceeds the work "
            f"limit: points x max(trajectories, {MIN_POINT_WORK}) must be <= {MAX_SWEEP_WORK:.0e}"
        )
    traces = blochsim.run_program(ast, config.environment, config.species, config.relaxation,
                                  ensemble, config.trap)
    for trace in traces.values():  # refuse before any channel's file is written
        require_finite(trace)
    for channel, trace in traces.items():
        path = args.out
        if len(traces) > 1:
            stem, dot, ext = args.out.rpartition(".")
            path = f"{stem}_{channel}{dot}{ext}" if dot else f"{args.out}_{channel}"
        _write_output(trace, config, path, {"command": "run", "channel": channel,
                                            "sequence_file": args.seqfile})
    return EXIT_OK


def cmd_nutation(args) -> int:
    durations = _time_grid(args)
    config = _load_config_file(args)
    n_static = config.ensemble.n_static
    if n_static > MAX_POINTS or len(durations) * n_static > MAX_SWEEP_WORK:
        raise ConfigError(f"nutation of {len(durations)} points x {n_static} static offsets: n_static "
                          f"must be <= {MAX_POINTS} and points x n_static <= {MAX_SWEEP_WORK:.0e}")
    from . import blochsim

    trace = blochsim.nutation_curve(
        durations, config.environment, config.species, config.relaxation, config.ensemble
    )
    _write_output(trace, config, args.out, {"command": "nutation"})
    return EXIT_OK


def cmd_fit(args) -> int:
    from . import fitkit

    for flag, model in (("--model", args.model), ("--compare-with", args.compare_with)):
        if model is not None and model not in fitkit.MODEL_IDS:
            raise ConfigError(f"{flag} must be one of {', '.join(fitkit.MODEL_IDS)}, got {model!r}")
    trace = read_trace_csv(args.csvfile, allow_mixed_hash=args.force)
    comparison = None
    if args.compare_with:
        comparison = fitkit.compare_models(trace, args.model, args.compare_with)
        result = comparison.fit_a
    else:
        result = fitkit.fit(args.model, trace).require_constrained()
    report = {
        "model_id": result.model_id,
        "params": result.params,
        # null: a parameter the data do not constrain (reported only with --compare-with)
        "param_uncertainties": {
            name: sigma if math.isfinite(sigma) else None
            for name, sigma in result.param_uncertainties.items()
        },
        "rss": result.rss,
        "n_points": result.n_points,
        "converged": result.converged,
        "config_hash": trace.meta.get("config_hash"),
        "tool_version": __version__,
    }
    if comparison is not None:
        report["comparison"] = {
            "models": [args.model, args.compare_with],
            "preferred": comparison.preferred,
            "delta_criterion": comparison.delta_criterion,
        }
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return EXIT_OK


def _add_common(p, default_out):
    p.add_argument("--config", help="JSON config file (see spintrap.config)")
    p.add_argument("--seed", type=int, dest="ensemble.rng_seed", help="override ensemble.rng_seed")
    p.add_argument("--out", default=default_out, help=f"output path (default {default_out})")


class _Parser(argparse.ArgumentParser):
    """Refuses with one ``error:`` line and exit 2, without the usage text;
    the subcommand parsers are of this class too."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spintrap",
        description="Spin-trap electrical readout simulator for Si:P at high field",
    )
    parser.add_argument("--version", action="version", version=f"spintrap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="synthesize a field-swept spectrum")
    _add_common(p, "spectrum.csv")
    p.add_argument("--b-start", type=float, dest="spectrum.b_start_tesla", help="sweep start in Tesla")
    p.add_argument("--b-stop", type=float, dest="spectrum.b_stop_tesla", help="sweep stop in Tesla")
    p.add_argument("--n-points", type=int, dest="spectrum.n_points", help="points across the sweep")
    p.add_argument("--lineshape", dest="spectrum.lineshape", help="gaussian or lorentzian")
    p.add_argument("--nuclear-polarization", type=float, dest="species.nuclear_polarization",
                   help="override the 31P nuclear polarization")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("transient", help="single-pulse photocurrent transient")
    _add_common(p, "transient.csv")
    p.add_argument("--flip-fraction", type=float, help="bypass the pulse and set the flipped fraction")
    p.add_argument("--pulse-angle-deg", type=float, default=180.0)
    p.add_argument("--field-offset-tesla", type=float, default=0.0,
                   help="static-field offset from resonance for the pulse")
    p.add_argument("--t-max", type=float, default=15e-3, help="transient span in seconds")
    p.add_argument("--n-points", type=int, default=1501)
    p.set_defaults(func=cmd_transient)

    p = sub.add_parser("run", help="run a .seq pulse program")
    p.add_argument("seqfile")
    _add_common(p, "run.csv")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; has no effect (the engine runs in one thread)")
    p.add_argument("--n-static", type=int, dest="ensemble.n_static", help="override ensemble.n_static")
    p.add_argument("--n-noise", type=int, dest="ensemble.n_noise", help="override ensemble.n_noise")
    p.add_argument("--linewidth", type=float, dest="species.linewidth_tesla",
                   help="override species linewidth in Tesla")
    p.add_argument("--rabi-frequency", type=float, dest="environment.rabi_frequency_hz",
                   help="override drive Rabi frequency in Hz")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("nutation", help="mz versus resonant pulse duration")
    _add_common(p, "nutation.csv")
    p.add_argument("--t-max", type=float, default=4e-6, help="longest pulse in seconds")
    p.add_argument("--n-points", type=int, default=81)
    p.add_argument("--linewidth", type=float, dest="species.linewidth_tesla",
                   help="override species linewidth in Tesla")
    p.set_defaults(func=cmd_nutation)

    p = sub.add_parser("fit", help="fit a trace CSV, emit JSON")
    p.add_argument("csvfile")
    p.add_argument("--model", required=True,
                   help="exp_decay, inversion_recovery, echo_cubic or trap_biexp")
    p.add_argument("--compare-with", metavar="MODEL",
                   help="also fit this model and report which one the information criterion prefers")
    p.add_argument("--force", action="store_true", help="allow mixed config hashes in the input")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a non-finite result is refused where it would be written, so numpy's
        # overflow and invalid-value warnings would only add stray stderr lines
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SequenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEQUENCE
    except (CsvFormatError, MixedConfigHashError, DegenerateDataError, OSError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ArithmeticError as exc:  # a Python float formula overflowed where numpy gives inf
        print(f"error: a value is too large or too small to compute with: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
