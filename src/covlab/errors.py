"""Semantic exception hierarchy, and the field check of every config class.

All errors raised by this package derive from :class:`CoverageLabError`, so
callers can catch one type at an experiment boundary.  Subclasses mark the
contract that was violated rather than the module that noticed it.
"""

import dataclasses
import functools
import math
import types
import typing


class CoverageLabError(Exception):
    """Base class for all package errors."""


class DomainError(CoverageLabError):
    """An argument is outside the mathematical domain of the operation."""


class DegenerateTable(CoverageLabError):
    """A dual-system table has no matched mass, so ratios are undefined."""


class InvalidMargins(CoverageLabError):
    """A margin is smaller than the matched cell it must contain."""


class DegenerateInputs(CoverageLabError):
    """An estimator denominator is zero or otherwise unusable."""


class InvalidEstimates(CoverageLabError):
    """Field estimates are mutually inconsistent (for example more matches
    than correct enumerations)."""


class MissingField(CoverageLabError):
    """A required optional field is absent for the requested computation."""


class DesignError(CoverageLabError):
    """A sample design asks for more units than the frame holds, or its
    sizes are not positive."""


class ConfigError(CoverageLabError):
    """A configuration value is out of range or internally inconsistent."""


_KINDS = {bool: "a bool", int: "an integer", float: "a finite number", str: "a string"}

# Annotations of a config class, resolved once per class.
_field_types = functools.cache(typing.get_type_hints)


def check_fields(config: typing.Any) -> None:
    """Check each field of the config dataclass `config` against its
    annotation; run first in every config's `__post_init__`.

    A ``bool`` or ``str`` field takes that type; an ``int`` field an int,
    not a bool; a ``float`` field a finite float or an int; a
    ``tuple[str, ...]`` field a list or tuple of strings, stored as a
    tuple; a config class an instance of it, or None where annotated.  Any
    int must fit the signed 64 bits the simulator computes in.  A failure's
    message starts with the field name, for a caller to prefix.
    """
    hints = _field_types(type(config))
    for item in dataclasses.fields(config):
        name, value, kind = item.name, getattr(config, item.name), hints[item.name]
        if isinstance(kind, types.UnionType):  # `Spec | None`
            if value is None:
                continue
            kind = typing.get_args(kind)[0]
        if typing.get_origin(kind) is tuple:
            if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
                raise ConfigError(f"{name} must be a list of strings, got {value!r}")
            object.__setattr__(config, name, tuple(value))
            continue
        is_int = isinstance(value, int) and not isinstance(value, bool)
        if is_int and not -(2**63) <= value < 2**63:
            raise ConfigError(f"{name} is out of the 64-bit integer range")
        if kind is float:
            ok = is_int or isinstance(value, float) and math.isfinite(value)
        elif kind is int:
            ok = is_int
        else:
            ok = isinstance(value, kind)
        if not ok:
            wanted = _KINDS.get(kind, f"a {kind.__name__}")
            raise ConfigError(f"{name} must be {wanted}, got {value!r}")


class SchemaError(CoverageLabError):
    """A microdata file does not conform to the documented schema."""

    def __init__(self, message: str, *, path: str = "", row: int | None = None,
                 column: str = ""):
        location = path
        if row is not None:
            location += f":row {row}"
        if column:
            location += f":column {column!r}"
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
        self.path = path
        self.row = row
        self.column = column


class ValidationError(CoverageLabError):
    """Microdata failed cross-file validation.  Carries the full report."""

    def __init__(self, issues: list[str]):
        self.issues = list(issues)
        preview = "; ".join(self.issues[:5])
        more = f" (+{len(self.issues) - 5} more)" if len(self.issues) > 5 else ""
        super().__init__(f"{len(self.issues)} validation issue(s): {preview}{more}")
