"""Exception types shared across the package, and ConfigError's number checks."""

import dataclasses
import math
import numbers


class OffgridError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(OffgridError, ValueError):
    """Invalid configuration file or parameter value."""


def check_number(name: str, value, whole: bool = False) -> None:
    """Raise ConfigError naming `name` unless `value` is a finite number (an
    integer when `whole`); a bool is not a number here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not (isinstance(value, numbers.Integral) or math.isfinite(value)):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if whole and not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be a whole number, got {value!r}")


def check_numbers(obj, prefix: str) -> None:
    """check_number on each field of the dataclass `obj` annotated `float`
    or `int`, named `<prefix><field>`."""
    for f in dataclasses.fields(obj):
        if f.type in ("float", "int"):
            check_number(prefix + f.name, getattr(obj, f.name), whole=f.type == "int")


class DataError(OffgridError, ValueError):
    """Malformed or insufficient input data (weather files, traces)."""


class MilpError(OffgridError, RuntimeError):
    """Solver-level failure (numerical breakdown, internal inconsistency)."""


class InfeasiblePlanError(MilpError):
    """The controller optimization has no feasible point; carries a model dump path."""

    def __init__(self, message: str, dump_path: str | None = None):
        super().__init__(message)
        self.dump_path = dump_path
