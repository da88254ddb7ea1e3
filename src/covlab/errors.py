"""Semantic exception hierarchy, and the one check of every declared value.

All errors raised by this package derive from :class:`CoverageLabError`, so
callers can catch one type at an experiment boundary.  Subclasses mark the
contract that was violated rather than the module that noticed it.

A value's rule is its annotation: its type, and the range it must lie in
(`Rate`, `Share`, `Probability`, `AtLeast1`, `AtLeast0`, each defined here
once) or the vocabulary it must come from (a ``Literal``).  Config fields,
the fields of the tally classes and the loose arguments of the math,
sampler and ingest layers all declare theirs.  `check_fields` enforces the
rule of every field of a dataclass, and `check_value` the same rule on a
loose argument of a function.  Both raise the error class of the layer
that declares the rule: `ConfigError` for a config, `DomainError` for a
tally or an estimator argument, `DesignError` for a sample size.
"""

import dataclasses
import functools
import math
import types
import typing

import numpy as np


class CoverageLabError(Exception):
    """Base class for all package errors."""


class DomainError(CoverageLabError):
    """An argument is outside the mathematical domain of the operation."""


class InvalidMargins(CoverageLabError):
    """A margin is smaller than the matched cell it must contain (for
    example more matches than correct enumerations)."""


class DegenerateInputs(CoverageLabError):
    """An estimator denominator is zero or otherwise unusable, as when a
    dual-system table has no matched mass."""


class MissingField(CoverageLabError):
    """A required optional field is absent for the requested computation."""


class DesignError(CoverageLabError):
    """A sample design asks for more units than the frame holds, or its
    sizes are not positive."""


class ConfigError(CoverageLabError):
    """A configuration value is out of range or internally inconsistent."""


_KINDS = {bool: "a bool", int: "an integer", float: "a finite number", str: "a string"}


@dataclasses.dataclass(frozen=True)
class Range:
    """The interval a number must lie in, each end closed unless open."""

    low: float
    high: float = math.inf
    low_open: bool = False
    high_open: bool = False

    def __contains__(self, value: float) -> bool:
        above = value > self.low if self.low_open else value >= self.low
        below = value < self.high if self.high_open else value <= self.high
        return above and below

    def __str__(self) -> str:
        if self.high == math.inf:
            return f"be at least {self.low:g}"
        return (f"lie in {'(' if self.low_open else '['}{self.low:g}, "
                f"{self.high:g}{')' if self.high_open else ']'}")


# The ranges of the package's numbers; a field or argument declares one as
# its annotation.
_T = typing.TypeVar("_T")
Rate = typing.Annotated[float, Range(0.0, 1.0, high_open=True)]
Share = typing.Annotated[float, Range(0.0, 1.0)]
Probability = typing.Annotated[float, Range(0.0, 1.0, low_open=True, high_open=True)]
AtLeast1 = typing.Annotated[_T, Range(1)]  # AtLeast1[int], AtLeast1[float]
AtLeast0 = typing.Annotated[_T, Range(0)]


def check_value(name: str, value: typing.Any, kind: typing.Any,
                error: type[CoverageLabError] = ConfigError) -> typing.Any:
    """Check the value of the field or argument `name` against its
    annotation `kind`, and return it, a name list as a tuple; a failure
    raises `error`.

    A ``bool`` or ``str`` takes that type; an ``int`` an int, not a bool; a
    ``float`` a finite float or an int; a config class an instance of it.
    A numpy integer or floating scalar, such as a cell of a numpy sum, is
    checked and returned as the Python number, which a config stores and
    `json` writes; a numpy bool is refused as a number.  Any kind annotated
    ``| None`` also takes None.  Any int must fit the signed 64 bits the
    simulator computes in.  An ``Annotated`` kind's `Range` bounds the
    number, and a ``Literal`` names the words a string may be.  A
    ``tuple[..., ...]`` takes a list or tuple whose entries are each of the
    entry kind and distinct: a repeated name would repeat every estimate row
    of a replicate.  A failure's message starts with `name` and ends with
    the value.
    """
    # `Spec | None` is a `types.UnionType`; `AtLeast0[float] | None`, an
    # `Annotated` alias or'ed with None, is a `typing.Union`.
    if typing.get_origin(kind) in (typing.Union, types.UnionType):
        if value is None:
            return value
        kind = typing.get_args(kind)[0]
    kind, *ranges = typing.get_args(kind) if typing.get_origin(kind) is typing.Annotated else [kind]
    origin = typing.get_origin(kind)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise error(f"{name} must be a list, got {value!r}")
        for index, entry in enumerate(value):
            check_value(f"{name}[{index}]", entry, typing.get_args(kind)[0], error)
            if entry in value[:index]:
                raise error(f"{name} must not name {entry!r} twice, got {value!r}")
        return tuple(value)
    if origin is typing.Literal:
        words = typing.get_args(kind)
        if not (isinstance(value, str) and value in words):
            raise error(f"{name} must be one of {', '.join(map(repr, words))}, got {value!r}")
        return value
    if isinstance(value, np.integer):
        value = int(value)
    elif isinstance(value, np.floating):
        value = float(value)
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if is_int and not -(2**63) <= value < 2**63:
        raise error(f"{name} is out of the 64-bit integer range")
    if kind is float:
        ok = is_int or isinstance(value, float) and math.isfinite(value)
    elif kind is int:
        ok = is_int
    else:
        ok = isinstance(value, kind)
    if not ok:
        wanted = _KINDS.get(kind, f"a {kind.__name__}")
        raise error(f"{name} must be {wanted}, got {value!r}")
    for bounds in ranges:
        if value not in bounds:
            raise error(f"{name} must {bounds}, got {value}")
    return value


# Annotations of a dataclass, with their ranges, resolved once per class.
_field_types = functools.cache(functools.partial(typing.get_type_hints, include_extras=True))


def check_fields(config: typing.Any, error: type[CoverageLabError] = ConfigError) -> None:
    """Check each field of the dataclass `config` against its annotation,
    type, range and words, with `check_value`, raising `error`; run first
    in the `__post_init__` of every config and tally class.  A name list is
    stored as a tuple."""
    hints = _field_types(type(config))
    for item in dataclasses.fields(config):
        value = getattr(config, item.name)
        checked = check_value(item.name, value, hints[item.name], error)
        if checked is not value:
            object.__setattr__(config, item.name, checked)


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
