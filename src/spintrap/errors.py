"""The errors the command line maps to exit codes, and the base of the
package's value types.

Each error is a :class:`ValueError` raised by the module named below, which
re-exports it; they live here so that :mod:`spintrap.cli` can catch them
without importing the modules that raise them.  Exit code 2 is
:class:`ConfigError`, 3 is :class:`SequenceError`, and 4 is the other
three.  :class:`Value` lives here because every module and every command
loads this one.
"""

from __future__ import annotations

__all__ = ["Value", "ConfigError", "SequenceError", "CsvFormatError", "MixedConfigHashError",
           "DegenerateDataError"]


class Value:
    """Base of the immutable value types (configs, statements, fit results, traces).

    A subclass lists its fields as annotated class attributes, in order, and
    a field's class value is its default.  An instance is built from the
    fields positionally or by keyword, then checked by ``__post_init__``,
    which raises :class:`ValueError` on a bad value.  It compares and
    hashes by its type and field values, and refuses attribute assignment
    and deletion; ``replace`` builds a checked copy with some fields
    changed.  Nothing is generated per class, so a class costs microseconds
    to build where a frozen dataclass costs about a millisecond.
    """

    fields = ()  # the field names, in order: a subclass's own annotations

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls.fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls.fields)} arguments, got {len(args)}")
        values = self.__dict__
        values.update(zip(cls.fields, args))
        for name in cls.fields[len(args):]:
            try:
                values[name] = kwargs.pop(name) if name in kwargs else getattr(cls, name)
            except AttributeError:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}") from None
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected or repeated arguments {sorted(kwargs)}")
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the field values; a subclass raises ValueError on a bad one."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of an immutable {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self.fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self), *self._values()))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in self.as_dict().items())})"

    def as_dict(self) -> dict:
        """The field values by name, in field order."""
        return dict(zip(self.fields, self._values()))

    def replace(self, **changes):
        """A copy with ``changes`` to some fields, checked as a new instance is."""
        return type(self)(**{**self.as_dict(), **changes})


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
