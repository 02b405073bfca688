"""Exception hierarchy shared across the package, and the document field
readers that turn a missing or mistyped field into an :class:`InputError`.

The CLI maps these onto exit codes: :class:`CapacityError` exits with 2,
every other :class:`StosubError` with 1.
"""

import math
import numbers


class StosubError(Exception):
    """Base class for all package errors."""


class InputError(StosubError):
    """Malformed or out-of-domain input."""


class CapacityError(StosubError):
    """Instance size exceeds a configured exact-computation cap."""


class PolicyError(InputError):
    """Policy tree is malformed or does not cover a reachable observation."""


class ConfigurationError(InputError):
    """A required configuration value is missing or inconsistent."""


class DegenerateBoundError(InputError):
    """Bound formula is undefined for the supplied parameters."""


class UnsupportedKindError(InputError):
    """Operation does not support this constraint kind."""


def require_field(mapping: dict, key: str, context: str):
    try:
        return mapping[key]
    except (KeyError, TypeError):
        raise InputError(f"{context} is missing the {key!r} field") from None


def require_list(mapping: dict, key: str, context: str, of: type = object) -> list:
    """The ``key`` field as a list whose entries are all ``of`` instances."""
    value = require_field(mapping, key, context)
    if not isinstance(value, list) or not all(isinstance(v, of) for v in value):
        raise InputError(f"{context} field {key!r} must be a list of {of.__name__}s")
    return value


def require_object(mapping: dict, key: str, context: str) -> dict:
    """The ``key`` field as a JSON object."""
    value = require_field(mapping, key, context)
    if not isinstance(value, dict):
        raise InputError(f"{context} field {key!r} must be an object")
    return value


def nonnegative(value, what: str, whole: bool = False):
    """A finite nonnegative number, as an int when ``whole``; bools never pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{what} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite or value < 0 or whole and value % 1:
        kind = "whole number" if whole else "number"
        raise InputError(f"{what} must be a finite nonnegative {kind}, got {value!r}")
    return int(value) if whole else float(value)


def integer(value, what: str, least: int = 0) -> int:
    """An integer no smaller than ``least``; bools never pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise InputError(f"{what} must be at least {least}, got {value!r}")
    return int(value)
