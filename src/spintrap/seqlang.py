"""Line-oriented pulse-sequence language: parser, canonical printer, compiler.

Grammar (one statement per line, ``#`` starts a comment)::

    pulse <angle> <phase> [dur=<time>|dur=<name>]   angle: pi | pi/2 | <number>deg
    delay <time>|<name>                             phase: +x | +y | -x | -y
    acquire <channel> [window=<time>]               channel: echo | mz | charge
    sweep <name> <start> <stop> <steps>

Time literals take a mandatory unit suffix (``ns``/``us``/``ms``/``s``); plain
and scientific notation numbers are accepted.  ``<name>`` references the one
allowed sweep variable.  A pulse without ``dur=`` resolves its duration from
the drive strength at compile time (``angle / (2 pi f_rabi)``), so the same
script runs under different Rabi frequencies.

:func:`unparse` emits a canonical form (lowercase keywords, durations printed
as an integer count of the largest exact unit) with ``parse(unparse(ast))``
structurally equal to ``ast``.  Comments are dropped -- the format is lossy
for them by design.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .spincore import Environment

__all__ = [
    "SequenceError",
    "PulseStmt",
    "DelayStmt",
    "AcquireStmt",
    "SweepDecl",
    "SequenceAst",
    "PulseEvent",
    "FreeEvolutionEvent",
    "AcquireEvent",
    "Timeline",
    "parse",
    "unparse",
    "compile_timeline",
    "sweep_values",
]

PHASES = ("+x", "+y", "-x", "-y")
CHANNELS = ("echo", "mz", "charge")
AUTO = "auto"

# Parse order: longest suffix first so "80us" is not misread as "<80u> s".
_TIME_UNITS = (("ns", 1e-9), ("us", 1e-6), ("ms", 1e-3), ("s", 1.0))
# Canonical-print order: largest unit first.
_TIME_UNITS_PRINT = tuple(reversed(_TIME_UNITS))
_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")
# ASCII digits only (str.isdigit also passes "²", which int() rejects), and
# few enough that int() is cheap; any real sweep is far below the bound.
_MAX_SWEEP_STEPS = 10**9 - 1
_STEPS_RE = re.compile(r"0*[1-9][0-9]{0,8}")


class SequenceError(ValueError):
    """Parse or compile failure, annotated with source line (and column)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", col {column}"
            loc += ": "
        super().__init__(loc + message)


@dataclass(frozen=True)
class PulseStmt:
    angle_deg: float
    phase: str
    duration: float | str = AUTO  # seconds, "auto", or a sweep-variable name


@dataclass(frozen=True)
class DelayStmt:
    duration: float | str  # seconds or a sweep-variable name


@dataclass(frozen=True)
class AcquireStmt:
    channel: str
    window: float | None = None


@dataclass(frozen=True)
class SweepDecl:
    name: str
    start: float
    stop: float
    steps: int


@dataclass(frozen=True)
class SequenceAst:
    statements: tuple

    @property
    def sweep(self) -> SweepDecl | None:
        for stmt in self.statements:
            if isinstance(stmt, SweepDecl):
                return stmt
        return None

    @property
    def acquire_channels(self) -> tuple[str, ...]:
        return tuple(s.channel for s in self.statements if isinstance(s, AcquireStmt))


@dataclass(frozen=True)
class PulseEvent:
    start: float
    duration: float
    angle: float  # effective rotation angle at resonance, rad
    phase: str


@dataclass(frozen=True)
class FreeEvolutionEvent:
    start: float
    duration: float


@dataclass(frozen=True)
class AcquireEvent:
    start: float
    duration: float
    channel: str
    window: float | None


@dataclass(frozen=True)
class Timeline:
    """Absolute-time, gap-free event schedule compiled from one sweep point."""

    events: tuple
    total_duration: float


def _tokenize(line: str) -> list[tuple[str, int]]:
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]


def _parse_number(text: str) -> float | None:
    if _NUMBER_RE.match(text):
        return float(text)
    return None


def _try_time_value(token: str) -> float | None:
    """The token's value in seconds if it is a time literal, else None."""
    for suffix, factor in _TIME_UNITS:
        if token.endswith(suffix):
            num = _parse_number(token[: -len(suffix)])
            if num is not None:
                return num * factor
    return None


def _parse_time(token: str, lineno: int, col: int, what: str = "duration") -> float:
    value = _try_time_value(token)
    if value is None:
        raise SequenceError(
            f"expected a time literal with unit ns/us/ms/s for {what}, got {token!r}", lineno, col
        )
    if value <= 0:
        raise SequenceError(f"{what} must be strictly positive, got {token!r}", lineno, col)
    return value


def _parse_time_or_name(token: str, lineno: int, col: int, what: str) -> float | str:
    if _try_time_value(token) is not None:
        return _parse_time(token, lineno, col, what)
    if _NAME_RE.match(token):
        return token
    raise SequenceError(
        f"expected a time literal or sweep-variable name for {what}, got {token!r}", lineno, col
    )


def _parse_angle(token: str, lineno: int, col: int) -> float:
    if token == "pi":
        return 180.0
    if token == "pi/2":
        return 90.0
    if token.endswith("deg"):
        num = _parse_number(token[:-3])
        if num is not None:
            if num <= 0:
                raise SequenceError(f"pulse angle must be positive, got {token!r}", lineno, col)
            return num
    raise SequenceError(f"expected angle 'pi', 'pi/2' or '<number>deg', got {token!r}", lineno, col)


def _parse_pulse(tokens, lineno) -> PulseStmt:
    if len(tokens) < 3 or len(tokens) > 4:
        raise SequenceError("usage: pulse <angle> <phase> [dur=<time>]", lineno, tokens[0][1])
    angle = _parse_angle(tokens[1][0], lineno, tokens[1][1])
    phase_tok, phase_col = tokens[2]
    if phase_tok not in PHASES:
        raise SequenceError(f"unknown phase {phase_tok!r}; expected one of {PHASES}", lineno, phase_col)
    duration: float | str = AUTO
    if len(tokens) == 4:
        opt, col = tokens[3]
        if not opt.startswith("dur="):
            raise SequenceError(f"unknown pulse option {opt!r}; expected dur=<time>", lineno, col)
        duration = _parse_time_or_name(opt[4:], lineno, col + 4, "pulse duration")
    return PulseStmt(angle_deg=angle, phase=phase_tok, duration=duration)


def _parse_delay(tokens, lineno) -> DelayStmt:
    if len(tokens) != 2:
        raise SequenceError("usage: delay <time>|<name>", lineno, tokens[0][1])
    tok, col = tokens[1]
    return DelayStmt(duration=_parse_time_or_name(tok, lineno, col, "delay duration"))


def _parse_acquire(tokens, lineno) -> AcquireStmt:
    if len(tokens) < 2 or len(tokens) > 3:
        raise SequenceError("usage: acquire <channel> [window=<time>]", lineno, tokens[0][1])
    chan, col = tokens[1]
    if chan not in CHANNELS:
        raise SequenceError(f"unknown channel {chan!r}; expected one of {CHANNELS}", lineno, col)
    window = None
    if len(tokens) == 3:
        opt, col = tokens[2]
        if not opt.startswith("window="):
            raise SequenceError(f"unknown acquire option {opt!r}; expected window=<time>", lineno, col)
        window = _parse_time(opt[7:], lineno, col + 7, "acquire window")
    return AcquireStmt(channel=chan, window=window)


def _parse_sweep(tokens, lineno) -> SweepDecl:
    if len(tokens) != 5:
        raise SequenceError("usage: sweep <name> <start> <stop> <steps>", lineno, tokens[0][1])
    name, col = tokens[1]
    if not _NAME_RE.match(name):
        raise SequenceError(f"invalid sweep variable name {name!r}", lineno, col)
    start = _parse_time(tokens[2][0], lineno, tokens[2][1], "sweep start")
    stop = _parse_time(tokens[3][0], lineno, tokens[3][1], "sweep stop")
    steps_tok, steps_col = tokens[4]
    if not _STEPS_RE.fullmatch(steps_tok):
        shown = steps_tok if len(steps_tok) <= 20 else steps_tok[:20] + "..."
        raise SequenceError(f"sweep steps must be a whole number from 1 to {_MAX_SWEEP_STEPS}, "
                            f"got {shown!r}", lineno, steps_col)
    return SweepDecl(name=name, start=start, stop=stop, steps=int(steps_tok))


_STATEMENT_PARSERS = {
    "pulse": _parse_pulse,
    "delay": _parse_delay,
    "acquire": _parse_acquire,
    "sweep": _parse_sweep,
}


def parse(source_text: str) -> SequenceAst:
    """Parse DSL source into an AST, preserving statement order.

    Raises :class:`SequenceError` with line (and column) information for any
    syntax or validation failure.
    """
    statements = []
    sweep_line: int | None = None
    var_refs: list[tuple[str, int, int]] = []
    for lineno, raw in enumerate(source_text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = _tokenize(line)
        if not tokens:
            continue
        keyword, col = tokens[0]
        parser = _STATEMENT_PARSERS.get(keyword.lower())
        if parser is None:
            raise SequenceError(f"unknown statement {keyword!r}", lineno, col)
        stmt = parser(tokens, lineno)
        if isinstance(stmt, SweepDecl):
            if sweep_line is not None:
                raise SequenceError(
                    f"duplicate sweep declaration (first on line {sweep_line})", lineno, col
                )
            sweep_line = lineno
        if isinstance(stmt, DelayStmt) and isinstance(stmt.duration, str):
            var_refs.append((stmt.duration, lineno, col))
        if isinstance(stmt, PulseStmt) and isinstance(stmt.duration, str) and stmt.duration != AUTO:
            var_refs.append((stmt.duration, lineno, col))
        statements.append(stmt)

    ast = SequenceAst(statements=tuple(statements))
    sweep = ast.sweep
    for name, lineno, col in var_refs:
        if sweep is None or name != sweep.name:
            raise SequenceError(f"undeclared sweep variable {name!r}", lineno, col)
    if not ast.acquire_channels:
        raise SequenceError("sequence must contain at least one acquire statement")
    return ast


def _format_time(value: float) -> str:
    # Prefer an integer count of the largest unit that reproduces the exact
    # float; fall back to repr() seconds, which round-trips losslessly.
    for suffix, factor in _TIME_UNITS_PRINT:
        count = value / factor
        if abs(count - round(count)) < 1e-9 and round(count) != 0:
            if round(count) * factor == value:
                return f"{int(round(count))}{suffix}"
    return f"{value!r}s"


def _format_angle(angle_deg: float) -> str:
    if angle_deg == 180.0:
        return "pi"
    if angle_deg == 90.0:
        return "pi/2"
    return f"{angle_deg!r}deg"


def unparse(ast: SequenceAst) -> str:
    """Render the canonical source text of an AST (see module docstring)."""
    lines = []
    for stmt in ast.statements:
        if isinstance(stmt, SweepDecl):
            lines.append(
                f"sweep {stmt.name} {_format_time(stmt.start)} {_format_time(stmt.stop)} {stmt.steps}"
            )
        elif isinstance(stmt, PulseStmt):
            line = f"pulse {_format_angle(stmt.angle_deg)} {stmt.phase}"
            if stmt.duration != AUTO:
                dur = stmt.duration if isinstance(stmt.duration, str) else _format_time(stmt.duration)
                line += f" dur={dur}"
            lines.append(line)
        elif isinstance(stmt, DelayStmt):
            dur = stmt.duration if isinstance(stmt.duration, str) else _format_time(stmt.duration)
            lines.append(f"delay {dur}")
        elif isinstance(stmt, AcquireStmt):
            line = f"acquire {stmt.channel}"
            if stmt.window is not None:
                line += f" window={_format_time(stmt.window)}"
            lines.append(line)
        else:  # pragma: no cover - AST is closed
            raise TypeError(f"unknown statement type {type(stmt).__name__}")
    return "\n".join(lines) + "\n"


def sweep_values(decl: SweepDecl) -> np.ndarray:
    """The arithmetic grid of sweep values (endpoints exact).

    A sweep of more than one step must run upwards (``start < stop``): the
    values become the strictly increasing x axis of the output trace.
    """
    if decl.steps < 1:
        raise SequenceError(f"sweep must have at least one step, got {decl.steps}")
    if decl.steps == 1:
        return np.asarray([decl.start])
    if decl.start >= decl.stop:
        raise SequenceError(
            f"sweep {decl.name!r} of {decl.steps} steps must have start < stop, "
            f"got {_format_time(decl.start)} to {_format_time(decl.stop)}"
        )
    return np.linspace(decl.start, decl.stop, decl.steps)


def _resolve_duration(
    duration: float | str, sweep: SweepDecl | None, sweep_value: float | None
) -> float:
    if isinstance(duration, str):
        if sweep is None or duration != sweep.name:
            raise SequenceError(f"unresolved sweep variable {duration!r}")
        assert sweep_value is not None
        value = float(sweep_value)
    else:
        value = duration
    if value <= 0:
        raise SequenceError(f"duration must be strictly positive after substitution, got {value}")
    return value


def compile_timeline(
    ast: SequenceAst,
    env: Environment,
    sweep_value: float | None = None,
) -> Timeline:
    """Compile an AST into an absolute-time, gap-free :class:`Timeline`.

    ``sweep_value`` must be given exactly when the AST declares a sweep.
    Pulse durations left as "auto" resolve to ``angle / (2 pi f_rabi)``; a
    pulse's effective rotation angle is always ``2 pi f_rabi * duration``.
    Acquisition occupies its window (zero duration when no window is given),
    and one channel cannot be acquired twice at the same instant: its samples
    form a trace over strictly increasing times.
    """
    sweep = ast.sweep
    if sweep is not None and sweep_value is None:
        raise SequenceError(f"sequence declares sweep {sweep.name!r}; a sweep value is required")
    if sweep is None and sweep_value is not None:
        raise SequenceError("sweep value given but the sequence declares no sweep")

    f_rabi = env.rabi_frequency
    events = []
    t = 0.0
    for stmt in ast.statements:
        if isinstance(stmt, SweepDecl):
            continue
        if isinstance(stmt, PulseStmt):
            angle_rad = math.radians(stmt.angle_deg)
            if stmt.duration == AUTO:
                duration = angle_rad / (2.0 * math.pi * f_rabi)
            else:
                duration = _resolve_duration(stmt.duration, sweep, sweep_value)
            effective_angle = 2.0 * math.pi * f_rabi * duration
            events.append(PulseEvent(start=t, duration=duration, angle=effective_angle, phase=stmt.phase))
            t += duration
        elif isinstance(stmt, DelayStmt):
            duration = _resolve_duration(stmt.duration, sweep, sweep_value)
            events.append(FreeEvolutionEvent(start=t, duration=duration))
            t += duration
        elif isinstance(stmt, AcquireStmt):
            if any(isinstance(e, AcquireEvent) and e.channel == stmt.channel and e.start == t
                   for e in events):
                raise SequenceError(f"channel {stmt.channel!r} is acquired twice at t = {t!r} s")
            duration = stmt.window if stmt.window is not None else 0.0
            events.append(AcquireEvent(start=t, duration=duration, channel=stmt.channel, window=stmt.window))
            t += duration
    return Timeline(events=tuple(events), total_duration=t)
