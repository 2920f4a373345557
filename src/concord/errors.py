"""Exception hierarchy for the concord package.

All errors derive from ConcordError so callers can catch the package's
failures with one except clause. Errors that signal bad user input also
subclass ValueError, matching how the stdlib reports domain problems.
"""

from __future__ import annotations

__all__ = [
    "ConcordError",
    "InputValidationError",
    "UndefinedMeasure",
    "DomainError",
    "ConfigError",
    "ResolutionError",
    "DegenerateCell",
    "ParseError",
    "UnknownCase",
]


class ConcordError(Exception):
    """Base class for every error raised by this package."""


class InputValidationError(ConcordError, ValueError):
    """An input violates a documented invariant (range, shape, schema)."""


class UndefinedMeasure(ConcordError, ArithmeticError):
    """The requested measure has no defined one-sided limit.

    Raised when two or more risks sit on the unit-interval boundary in a
    way that makes the limit ambiguous, e.g. both risks 0 (RR = 0/0).
    """


class DomainError(ConcordError, ValueError):
    """A numeric argument lies outside the function's domain."""


class ConfigError(ConcordError, ValueError):
    """A simulation or quadrature configuration is invalid."""


class ResolutionError(ConfigError):
    """A quadrature resolution is not an integer from 8 to 16384 cells."""


class DegenerateCell(ConcordError, ValueError):
    """A count cell estimates a risk of exactly 0 or 1.

    The log-scale variance formulas divide by p(1-p), so the estimate is
    undefined there. Callers may opt into the documented 0.5 correction.
    """


class ParseError(InputValidationError):
    """A data file could not be parsed; message carries line context."""


class UnknownCase(ConcordError, KeyError):
    """No case study fixture is registered under the requested name."""

    def __str__(self) -> str:
        # KeyError.__str__ would wrap the message in repr quotes.
        return str(self.args[0]) if self.args else ""
