"""Semantic exception hierarchy.

All errors raised by this package derive from :class:`CoverageLabError`, so
callers can catch one type at an experiment boundary.  Subclasses mark the
contract that was violated rather than the module that noticed it.
"""


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
