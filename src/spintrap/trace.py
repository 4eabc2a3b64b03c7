"""Shared signal container and its CSV wire format.

A :class:`SignalTrace` is the common currency between the simulation modules,
the fitting toolkit, and the command line: read-only float64 columns ``x``,
``y`` and, from the pulse engine and nutation, ``y_stderr``.  On disk it is a
plain CSV with ``#``-prefixed ``key=value`` metadata lines, one ``x,y`` header
row, and data rows printed at full double precision (17 significant digits),
so two runs with the same configuration and seed produce byte-identical data
sections.  ``y_stderr`` is kept in memory only; the file holds ``x,y``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CsvFormatError, MixedConfigHashError, Value

__all__ = [
    "AXIS_KINDS",
    "SignalTrace",
    "CsvFormatError",
    "MixedConfigHashError",
    "require_finite",
    "write_trace_csv",
    "read_trace_csv",
]

AXIS_KINDS = ("time", "field", "tau", "pulse_duration")

# Data rows the CSV writer formats at a time: the Python floats of one chunk
# take about 0.26 MB, where two whole columns of 1e5 points would take 6.4 MB.
_CHUNK_ROWS = 4096


class SignalTrace(Value):
    """Sampled signal versus a time-like or field axis.

    ``x``, ``y`` and the optional ``y_stderr`` (the Monte Carlo standard error
    of each value) are read-only float64 arrays of one length, copied from
    the arguments, except that a read-only float64 array that owns its data
    (another trace's column) is shared; ``x`` must be strictly increasing.
    ``units`` names the y quantity ("A", "C", or "dimensionless"); the x
    unit follows from ``axis_kind`` (Tesla for "field", seconds otherwise).
    ``meta`` holds string-able ``key=value`` metadata, in the trace's own
    copy of the argument.  A physics function puts there only what it
    computes or what labels x (``equilibrium_mz``, ``sweep_variable``,
    ``flip_fraction``); the CLI adds what the file says about its inputs
    (``config``, ``config_hash``, ``program``, ...).  A trace is equal only
    to itself.
    """

    axis_kind: str
    x: np.ndarray
    y: np.ndarray
    units: str = "dimensionless"
    meta: dict = {}  # copied per instance, so never shared
    y_stderr: np.ndarray | None = None

    # equal only to itself: array columns do not compare to one truth value
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self) -> None:
        if self.axis_kind not in AXIS_KINDS:
            raise ValueError(f"axis_kind must be one of {AXIS_KINDS}, got {self.axis_kind!r}")
        object.__setattr__(self, "meta", dict(self.meta))
        for name in ("x", "y") if self.y_stderr is None else ("x", "y", "y_stderr"):
            column = getattr(self, name)
            # a frozen float64 array that owns its data (another trace's
            # column) is kept; anything else is copied, so freezing the copy
            # leaves the caller's array writeable
            if not (isinstance(column, np.ndarray) and column.dtype == np.float64
                    and column.base is None and not column.flags.writeable):
                column = np.array(column, dtype=float)
                column.flags.writeable = False
                object.__setattr__(self, name, column)
            if len(column) != len(self.x):
                raise ValueError(f"len({name})={len(column)} != len(x)={len(self.x)}")
        if not np.all(np.diff(self.x) > 0):
            raise ValueError("x must be strictly increasing")

    def __len__(self) -> int:
        return len(self.x)


def require_finite(trace: SignalTrace) -> None:
    """Raise :class:`CsvFormatError` naming the first data row whose x or y
    is not finite."""
    finite = np.isfinite(trace.x) & np.isfinite(trace.y)
    if not finite.all():
        i = int(np.argmin(finite))
        raise CsvFormatError(f"refusing to write non-finite data row {i + 1}: "
                             f"x={float(trace.x[i])!r}, y={float(trace.y[i])!r}")


def write_trace_csv(trace: SignalTrace, path: str) -> None:
    """Write a trace in the canonical CSV layout.

    Metadata keys are emitted sorted so the data section is deterministic;
    the volatile timestamp is confined to the single ``created=`` line.  A
    trace with a non-finite x or y raises :class:`CsvFormatError` and no file
    is written, as :func:`read_trace_csv` refuses one on input; so does a
    metadata key or value with a line break, which would end its ``#`` line
    and make the rest a data row.  ``y_stderr`` is not written.
    """
    require_finite(trace)
    for key, value in trace.meta.items():
        line = f"{key}={value}"
        if "\n" in line or "\r" in line:
            raise CsvFormatError(f"refusing to write metadata with a line break: {line!r}")
    lines = []
    meta = dict(trace.meta)
    created = meta.pop("created", None)
    if created is not None:
        lines.append(f"# created={created}")
    meta.setdefault("axis_kind", trace.axis_kind)
    meta.setdefault("units", trace.units)
    for key in sorted(meta):
        lines.append(f"# {key}={meta[key]}")
    lines.append("x,y")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
        # rows are formatted a chunk at a time, never held all at once
        for start in range(0, len(trace), _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            fh.writelines(map("{:.17g},{:.17g}\n".format, trace.x[start:stop].tolist(),
                              trace.y[start:stop].tolist()))


def read_trace_csv(path: str, allow_mixed_hash: bool = False) -> SignalTrace:
    """Parse a trace CSV, tolerating concatenated sections.

    Repeated ``x,y`` header rows are accepted (they appear when files are
    concatenated).  Distinct ``config_hash`` values are refused unless ``allow_mixed_hash``
    is set, which leaves them and ``config`` out of the meta.  Errors carry the offending row.
    """
    xs: list[float] = []
    ys: list[float] = []
    rows: list[int] = []  # the file row of each data line
    meta: dict[str, str] = {}
    hashes: list[str] = []
    saw_header = False
    with open(path, "r", encoding="utf-8") as fh:
        for row, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, value = body.split("=", 1)
                    key = key.strip()
                    value = value.strip()
                    if key == "config_hash":
                        hashes.append(value)
                    meta[key] = value
                continue
            if line.lower().replace(" ", "") == "x,y":
                saw_header = True
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise CsvFormatError(f"expected two comma-separated values, got {line!r}", row)
            try:
                xv, yv = float(parts[0]), float(parts[1])
            except ValueError:
                raise CsvFormatError(f"non-numeric data {line!r}", row) from None
            if not (math.isfinite(xv) and math.isfinite(yv)):
                raise CsvFormatError(f"non-finite data {line!r}", row)
            xs.append(xv)
            ys.append(yv)
            rows.append(row)
    if not saw_header:
        raise CsvFormatError("missing 'x,y' header row")
    if not xs:
        raise CsvFormatError("no data rows")
    if len(set(hashes)) > 1:
        if not allow_mixed_hash:
            raise MixedConfigHashError(f"file mixes {len(set(hashes))} distinct config_hash values; "
                                       "pass --force to fit anyway")
        # the sections name no single config, so the trace names none
        meta = {key: value for key, value in meta.items() if key not in ("config_hash", "config")}
    diffs = np.diff(np.asarray(xs))
    if np.any(diffs <= 0):
        raise CsvFormatError("x values not strictly increasing", rows[int(np.argmax(diffs <= 0)) + 1])
    axis_kind = meta.get("axis_kind", "time")
    if axis_kind not in AXIS_KINDS:
        axis_kind = "time"
    return SignalTrace(
        axis_kind=axis_kind,
        x=xs,
        y=ys,
        units=meta.get("units", "dimensionless"),
        meta=meta,
    )
