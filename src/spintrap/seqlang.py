"""Line-oriented pulse-sequence language: parser, canonical printer, statement durations.

Grammar (one statement per line, ``#`` starts a comment)::

    pulse <angle> <phase> [dur=<time>|dur=<name>]   angle: pi | pi/2 | <number>deg
    delay <time>|<name>                             phase: +x | +y | -x | -y
    acquire <channel> [window=<time>]               channel: echo | mz | charge
    sweep <name> <start> <stop> <steps>

Time literals take a mandatory unit suffix (``ns``/``us``/``ms``/``s``); plain
and scientific notation numbers are accepted.  ``<name>`` references the one
allowed sweep variable, which may not be named ``auto``.  The ``sweep`` line
may sit on any line; it is not a statement that runs, and the AST keeps it
apart (``SequenceAst.sweep``).  A pulse without ``dur=`` takes its
duration from the drive strength (``angle / (2 pi f_rabi)``, see
:func:`statement_duration`), so the same script runs under different Rabi
frequencies.

:func:`unparse` emits a canonical form (the sweep line first, lowercase
keywords, durations printed as an integer count of the largest exact unit)
with ``parse(unparse(ast))`` structurally equal to ``ast``.  Comments are
dropped -- the format is lossy for them by design.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import SequenceError, Value
from .spincore import Environment

__all__ = [
    "SequenceError",
    "PulseStmt",
    "DelayStmt",
    "AcquireStmt",
    "SweepDecl",
    "SequenceAst",
    "parse",
    "unparse",
    "statement_duration",
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


class PulseStmt(Value):
    angle_deg: float
    phase: str
    duration: float | str = AUTO  # seconds, "auto", or a sweep-variable name


class DelayStmt(Value):
    duration: float | str  # seconds or a sweep-variable name


class AcquireStmt(Value):
    channel: str
    window: float | None = None


class SweepDecl(Value):
    name: str
    start: float
    stop: float
    steps: int


class SequenceAst(Value):
    statements: tuple  # the pulses, delays and acquires, in order
    sweep: SweepDecl | None = None

    @property
    def acquire_channels(self) -> tuple[str, ...]:
        return tuple(s.channel for s in self.statements if isinstance(s, AcquireStmt))


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
    if name == AUTO:  # `dur=auto` already means the drive-strength duration
        raise SequenceError(f"a sweep variable cannot be named {AUTO!r}", lineno, col)
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
    sweep, sweep_line = None, None
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
            if sweep is not None:
                raise SequenceError(
                    f"duplicate sweep declaration (first on line {sweep_line})", lineno, col
                )
            sweep, sweep_line = stmt, lineno
            continue
        if isinstance(stmt, DelayStmt) and isinstance(stmt.duration, str):
            var_refs.append((stmt.duration, lineno, col))
        if isinstance(stmt, PulseStmt) and isinstance(stmt.duration, str) and stmt.duration != AUTO:
            var_refs.append((stmt.duration, lineno, col))
        statements.append(stmt)

    ast = SequenceAst(tuple(statements), sweep)
    for name, lineno, col in var_refs:
        if sweep is None or name != sweep.name:
            raise SequenceError(f"undeclared sweep variable {name!r}", lineno, col)
    if not ast.acquire_channels:
        raise SequenceError("sequence must contain at least one acquire statement")
    return ast


def _format_time(value: float) -> str:
    # Prefer an integer count of the largest unit that reproduces the exact
    # float; fall back to repr() seconds, which round-trips losslessly.  A
    # literal too large for a float reads as inf, and inf prints as one.
    if value == math.inf:
        return "1e999s"
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
    if angle_deg == math.inf:
        return "1e999deg"
    return f"{angle_deg!r}deg"


def unparse(ast: SequenceAst) -> str:
    """Render the canonical source text of an AST (see module docstring)."""
    lines = []
    sweep = ast.sweep
    if sweep is not None:  # the canonical form declares the sweep first
        lines.append(f"sweep {sweep.name} {_format_time(sweep.start)} {_format_time(sweep.stop)} "
                     f"{sweep.steps}")
    for stmt in ast.statements:
        if isinstance(stmt, PulseStmt):
            line = f"pulse {_format_angle(stmt.angle_deg)} {stmt.phase}"
            if stmt.duration != AUTO:
                dur = stmt.duration if isinstance(stmt.duration, str) else _format_time(stmt.duration)
                line += f" dur={dur}"
            lines.append(line)
        elif isinstance(stmt, DelayStmt):
            dur = stmt.duration if isinstance(stmt.duration, str) else _format_time(stmt.duration)
            lines.append(f"delay {dur}")
        else:  # an AcquireStmt, the last of the three statement types
            line = f"acquire {stmt.channel}"
            if stmt.window is not None:
                line += f" window={_format_time(stmt.window)}"
            lines.append(line)
    return "\n".join(lines) + "\n"


def sweep_values(decl: SweepDecl) -> np.ndarray:
    """The arithmetic grid of sweep values (endpoints exact).

    A sweep of more than one step must run upwards (``start < stop``) to a
    finite stop, over values that differ in double precision: they become
    the strictly increasing x axis of the output trace.
    """
    if decl.steps == 1:
        return np.asarray([decl.start])
    if decl.start < decl.stop < math.inf:
        values = np.linspace(decl.start, decl.stop, decl.steps)
        if (np.diff(values) > 0).all():
            return values
    raise SequenceError(
        f"sweep {decl.name!r} of {decl.steps} steps must have start < stop, a finite stop and steps "
        f"that floats tell apart, got {_format_time(decl.start)} to {_format_time(decl.stop)}"
    )


def statement_duration(stmt, env: Environment, sweep_value: float | None = None) -> float:
    """Seconds a pulse, delay or acquire statement occupies at one sweep point.

    A pulse left at "auto" lasts ``angle / (2 pi f_rabi)``, so its rotation
    angle at resonance, ``2 pi f_rabi * duration``, is the one written; a
    duration that names the sweep variable is ``sweep_value``; an acquire
    occupies its window, or no time when it has none.  Statements run back to
    back, so a statement starts at the sum of the durations before it.
    """
    if isinstance(stmt, AcquireStmt):
        return stmt.window if stmt.window is not None else 0.0
    if stmt.duration == AUTO:
        return math.radians(stmt.angle_deg) / (2.0 * math.pi * env.rabi_frequency_hz)
    if isinstance(stmt.duration, str):  # the parser admits no name but the sweep variable
        return sweep_value
    return stmt.duration
