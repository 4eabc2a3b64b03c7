"""The errors the command line maps to exit codes.

Each is a :class:`ValueError` raised by the module named below, which
re-exports it; they live here so that :mod:`spintrap.cli` can catch them
without importing the modules that raise them.  Exit code 2 is
:class:`ConfigError`, 3 is :class:`SequenceError`, and 4 is the other
three.
"""

from __future__ import annotations

__all__ = ["ConfigError", "SequenceError", "CsvFormatError", "MixedConfigHashError",
           "DegenerateDataError"]


class ConfigError(ValueError):
    """Invalid configuration (:mod:`spintrap.config`); the message names the
    offending key."""


class SequenceError(ValueError):
    """A pulse program that cannot be parsed (:mod:`spintrap.seqlang`) or run
    (:func:`spintrap.blochsim.run_program`), annotated with the source line
    (and column) where there is one."""

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


class CsvFormatError(ValueError):
    """Malformed trace CSV (:mod:`spintrap.trace`); carries the 1-based
    offending row number."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class MixedConfigHashError(ValueError):
    """The trace file concatenates data sections produced under different
    configs (:mod:`spintrap.trace`)."""


class DegenerateDataError(ValueError):
    """The trace cannot be fitted (:mod:`spintrap.fitkit`): too few points,
    constant y, a non-finite result, a parameter the data do not constrain,
    or (in :func:`spintrap.fitkit.compare_models`) a fit that did not
    converge."""
