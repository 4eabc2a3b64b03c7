"""Command-line front end.

Subcommands::

    spintrap spectrum   synthesize a field-swept spectrum
    spintrap transient  single-pulse photocurrent transient
    spintrap run        parse and run a .seq pulse program
    spintrap nutation   mz versus pulse duration (Rabi oscillations)
    spintrap fit        fit a trace CSV and emit a JSON report

All commands but ``fit`` accept ``--config <json>`` (see
:mod:`spintrap.config`) and ``--seed <int>``, and all accept ``--out <path>``.  Exit codes: 0 success, 2 invalid
configuration/usage, 3 sequence error, 4 data error.  Outputs are CSV traces
(or JSON for ``fit``) that hold the resolved config, its hash and, from
``run``, the program.  A ``run`` or ``spectrum`` file re-runs from those lines alone; a
``transient`` or ``nutation`` file does not, as its ``--t-max`` and ``--n-points`` (and
``transient``'s ``--pulse-angle-deg``, ``--field-offset-tesla`` and ``--flip-fraction``) are
on no line.  Identical configuration and seed give byte-identical data sections.

A flag that overrides a config key has that ``section.key`` as its argparse
``dest``, which ``-h`` shows as its metavar; the dotted dests that are set
reach :func:`spintrap.config.load_config` as its ``overrides``.

Importing this module loads no numpy.  ``spectrum`` and ``transient`` are
closed forms on Python floats and never load it; ``run``, ``nutation`` and
``fit`` compute on arrays and import it in their own bodies, with the rest of
their modules (see :func:`_imported`).

A call runs in one thread, numpy's BLAS included: importing this module sets
``OPENBLAS_NUM_THREADS=1`` unless ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is already set, so the setting
is in place whenever numpy loads.  A call maps no OpenSSL either: importing
this module marks OpenSSL's ``_hashlib`` absent in ``sys.modules`` unless it
is already loaded, so ``hashlib`` and ``hmac`` (which ``numpy.random``
imports through ``secrets``) fall back to CPython's builtin digests, which
give the same SHA-256.  That takes 3.4 MB of ``libcrypto`` off every call's
peak RSS.  A process that loaded ``_hashlib`` before importing this module
keeps it; one that did not has, from then on, only the builtin ``hashlib``
algorithms.  Importing the other ``spintrap`` modules sets nothing.
"""

from __future__ import annotations

import gc

# Every call is a fresh process whose imports leave tens of thousands of
# objects that live until exit (numpy's import alone some 30k).  With the
# collector paused while the imports make them, no collection pass walks
# them then; frozen afterwards (moved where the collector never looks), they
# are not walked by a later collection or by the one at interpreter exit
# either.  Each command imports the modules only it runs (config, engine,
# sequence language, fitter, numpy) in its own body the same way, through
# `_imported`, so a call pays for no module it does not use: without the
# pause and the freeze, numpy's import would cost a call about 6 ms more.
# The value types subclass errors.Value, not dataclasses, so no call imports
# `dataclasses` or pays its millisecond of class building per type.
_collecting = gc.isenabled()
gc.disable()
try:
    import argparse
    import importlib
    import json
    import math
    import os
    import sys
    from datetime import datetime, timezone
    from typing import TYPE_CHECKING

    # A call computes in one thread: the engine and the fits run no BLAS in
    # parallel.  OpenBLAS would still start a worker thread when numpy loads,
    # which costs a rested call about 70 ms of CPU and wall time (2 vCPU), so
    # it is kept to one thread unless the user set a thread count.
    if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # No command uses OpenSSL, but numpy.random loads it (secrets -> hmac ->
    # _hashlib) and config's hashlib would too: _hashlib maps libcrypto, 3.4 MB
    # of a call's 37 MB peak RSS and 2-6 ms of loading.  Marked absent, it
    # leaves hashlib and hmac to CPython's builtin digests, which give the
    # same SHA-256; a process that has already loaded it keeps it.
    sys.modules.setdefault("_hashlib", None)

    from . import __version__
    from .errors import (ConfigError, CsvFormatError, DegenerateDataError, MixedConfigHashError,
                         SequenceError)
    from .trace import linspace, read_trace_csv, require_finite, write_trace_csv
finally:
    if _collecting:
        gc.enable()
gc.freeze()

if TYPE_CHECKING:
    from .config import RunConfig
    from .trace import SignalTrace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SEQUENCE = 3
EXIT_DATA = 4

# Largest `run`: sweep points times trajectories per point, with each point
# counted as at least MIN_POINT_WORK trajectories.  Walking a point's own
# statements takes about 0.1 ms, paid once per chunk of 2048 trajectories,
# as much as propagating about 600 trajectories through it (a swept Hahn
# echo on 2 vCPU, at 0.16-0.21 us per trajectory and point, both hyperfine
# lines together).  1e8 is under half a minute of engine time on one core;
# anything larger exits 3 before the sweep grid or any ensemble is
# allocated.
MAX_SWEEP_WORK = 10**8
MIN_POINT_WORK = 1024

# Longest grid of `spectrum`, `transient` and `nutation`, and largest
# `nutation` ensemble; `nutation` also keeps points x n_static within
# MAX_SWEEP_WORK.  At the bound `spectrum` and `transient` peak at 22.9 MB:
# 15.3 MB for the interpreter and imports, numpy not among them (the same
# command at 101 points), and the rest for their columns of Python floats,
# 3.2 MB each.  `nutation` with n_static 1000 peaks at 39.8 MB: 31.8 MB for
# the interpreter and imports, 5-7 MB for float64 arrays of 0.8 MB each,
# and about 1 MB that its time grid's Python floats leave behind; the CSV
# writer formats an array column 4096 rows at a time, under 0.3 MB of
# Python floats.  `nutation` runs 4-7 s.  Larger requests exit 2 before
# anything is allocated.
MAX_POINTS = 10**5


def _imported(*names: str) -> list:
    """The modules ``names`` (``".blochsim"`` for a spintrap module), imported
    as this module's own imports are: with the collector paused, and the
    objects the imports made frozen afterwards."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        modules = [importlib.import_module(name, __package__) for name in names]
    finally:
        if collecting:
            gc.enable()
    gc.freeze()
    return modules


def _load_config_file(args) -> RunConfig:
    (config,) = _imported(".config")
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
    return config.load_config(data, overrides)


def _write_output(path: str, x, y, meta: dict, config: RunConfig) -> None:
    """Write the columns ``x`` and ``y`` to ``path``.  This is the one place
    that chooses what a file says about its inputs: over ``meta`` (the axis
    kind, the units, what the computation labels x with, the command, and
    for ``run`` the channel and the program), the resolved config as
    canonical JSON, its hash, the tool version and the time."""
    (schema,) = _imported(".config")
    write_trace_csv(path, x, y, {
        **meta, "config": schema.config_text(config), "config_hash": schema.config_hash(config),
        "created": datetime.now(timezone.utc).isoformat(), "tool_version": __version__})
    print(f"wrote {path} ({len(x)} points)")


def _trace_meta(trace: SignalTrace) -> dict:
    """What a trace's file says about the trace itself: its meta, axis kind and units."""
    return {**trace.meta, "axis_kind": trace.axis_kind, "units": trace.units}


def _require_distinct(grid: list[float], what: str) -> list[float]:
    """``grid``, whose points become the x axis of a trace, which must
    strictly increase; a grid too fine for floats to tell apart exits 2."""
    if not all(a < b for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"{what} are too close for floats to tell apart")
    return grid


def _time_grid(args) -> list[float]:
    """``--n-points`` evenly spaced times from 0 to ``--t-max``."""
    if not (math.isfinite(args.t_max) and args.t_max > 0):
        raise ConfigError(f"--t-max must be finite and > 0, got {args.t_max}")
    if not 1 <= args.n_points <= MAX_POINTS:
        raise ConfigError(f"--n-points must lie in [1, {MAX_POINTS}], got {args.n_points}")
    return _require_distinct(linspace(0.0, args.t_max, args.n_points),
                             f"{args.n_points} times from 0 to --t-max {args.t_max!r} s")


def cmd_spectrum(args) -> int:
    config = _load_config_file(args)
    (spectrum,) = _imported(".spectrum")
    sweep = config.spectrum
    if sweep.n_points > MAX_POINTS:
        raise ConfigError(f"spectrum.n_points must be <= {MAX_POINTS}, got {sweep.n_points}")
    _require_distinct(sweep.field_axis(),
                      f"{sweep.n_points} fields from {sweep.b_start_tesla!r} to {sweep.b_stop_tesla!r} T")
    fields, di = spectrum.simulate_field_sweep(config.species, config.environment, sweep)
    _write_output(args.out, fields, di, {"axis_kind": "field", "units": "A", "command": "spectrum"}, config)
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
    rabi, trapdyn = _imported(".rabi", ".trapdyn")
    if args.flip_fraction is not None:
        fraction = args.flip_fraction
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError(f"--flip-fraction must lie in [0, 1], got {fraction}")
    else:
        fraction = rabi.pulse_flip_fraction(args.pulse_angle_deg, args.field_offset_tesla,
                                            config.environment, config.species)
    di = trapdyn.transient_response(fraction, config.trap, grid)
    _write_output(args.out, grid, di, {"axis_kind": "time", "units": "A", "flip_fraction": fraction,
                                       "command": "transient"}, config)
    return EXIT_OK


def cmd_run(args) -> int:
    config = _load_config_file(args)
    blochsim, seqlang, _ = _imported(".blochsim", ".seqlang", "numpy.random")
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
        require_finite(trace.x, trace.y)
    stem, ext = os.path.splitext(args.out)
    program = json.dumps(seqlang.unparse(ast))  # the canonical program, on one line
    for channel, trace in traces.items():
        path = f"{stem}_{channel}{ext}" if len(traces) > 1 else args.out
        _write_output(path, trace.x, trace.y,
                      {**_trace_meta(trace), "command": "run", "channel": channel, "program": program}, config)
    return EXIT_OK


def cmd_nutation(args) -> int:
    durations = _time_grid(args)
    config = _load_config_file(args)
    n_static = config.ensemble.n_static
    if n_static > MAX_POINTS or len(durations) * n_static > MAX_SWEEP_WORK:
        raise ConfigError(f"nutation of {len(durations)} points x {n_static} static offsets: n_static "
                          f"must be <= {MAX_POINTS} and points x n_static <= {MAX_SWEEP_WORK:.0e}")
    rabi, np, _ = _imported(".rabi", "numpy", "numpy.random")
    # held as an array while the curve is computed, the grid takes a quarter of a list's memory
    durations = np.array(durations)
    trace = rabi.nutation_curve(durations, config.environment, config.species, config.ensemble)
    _write_output(args.out, trace.x, trace.y, {**_trace_meta(trace), "command": "nutation"}, config)
    return EXIT_OK


def cmd_fit(args) -> int:
    (fitkit,) = _imported(".fitkit")
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
        **result.as_dict(),
        # null: a parameter the data do not constrain (reported only with --compare-with)
        "param_uncertainties": {
            name: sigma if math.isfinite(sigma) else None
            for name, sigma in result.param_uncertainties.items()
        },
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
                   help="accepted for compatibility; has no effect (the whole call runs in one thread)")
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
