"""Exception hierarchy shared across the package, and the two rules every number obeys.

The CLI maps these onto stable exit codes: schema/row problems -> 2,
id mismatches -> 3, numeric failures -> 4, configuration errors -> 5.

Every number a config, argument or flag takes is checked by ``check_count`` or ``check_real``,
the one wording of each rule, which raise ConfigError naming the number. ``is_real`` is
``check_real``'s type test, which a score row's fps rule shares.
"""

from __future__ import annotations

import math
import numbers


class StreamstartError(Exception):
    """Base class for all package errors."""


class SchemaError(StreamstartError):
    """A required column or field is missing or malformed."""


class RowError(StreamstartError):
    """A CSV data row failed parsing or validation.

    Carries the 1-based data row number (header excluded) for diagnostics.
    """

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class IdMismatchError(StreamstartError):
    """Annotations and score series could not be joined by id."""

    def __init__(self, missing: list[tuple[str, str]]):
        pairs = ", ".join(f"({v}, {q})" for v, q in missing)
        super().__init__(f"no score series for {len(missing)} annotation(s): {pairs}")
        self.missing = missing


class NumericError(StreamstartError):
    """A numeric contract was violated (non-finite value, divergence, gate range)."""


class ConfigError(StreamstartError):
    """An operation was requested with an inconsistent configuration."""


def check_count(name: str, value, minimum: int = 0, maximum: int | None = None) -> None:
    """Raise ConfigError unless ``value`` is an integer, which a bool is not, in [minimum, maximum]."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{name} must be <= {maximum}, got {value}")


def is_real(value) -> bool:
    """Whether ``value`` is a real number, which a bool is not."""
    return type(value) is float or type(value) is int or not isinstance(value, bool) and isinstance(value, numbers.Real)


def check_real(name: str, value, sign: str = "") -> None:
    """Raise ConfigError unless ``value`` is a finite real number, which a bool is not; ``sign``
    "positive" also needs it above zero, "nonnegative" at least zero."""
    if not is_real(value) or not sign and not -math.inf < value < math.inf:  # NaN fails too; an int of any size passes
        raise ConfigError(f"{name} must be a finite real number, got {value!r}")
    if sign and not (0 < value < math.inf or sign == "nonnegative" and value == 0):
        raise ConfigError(f"{name} must be finite and {sign}, got {value}")
