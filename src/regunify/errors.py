"""Shared exception types. The CLI maps these onto exit codes."""

from __future__ import annotations


class RegunifyError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(RegunifyError):
    """Bad source text. Carries a SourceSpan when one is known."""

    def __init__(self, message: str, span=None):
        super().__init__(message)
        self.span = span

    def __str__(self) -> str:
        msg = super().__str__()
        if self.span is not None:
            return f"{self.span}: {msg}"
        return msg


class TypeValidationError(RegunifyError):
    """One or more type definitions are ill-formed.

    `violations` holds every problem found, not just the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class UnknownSymbol(RegunifyError):
    """A type symbol is undefined or used at the wrong arity (`semantics.member`)."""


class ArityMismatch(RegunifyError):
    """A declared symbol was used with the wrong number of arguments."""


class UnboundVariable(RegunifyError):
    """A variable had no binding where one was required."""


class NonGroundType(RegunifyError):
    """A ground type was required but the expression contains type variables."""


class ConflictingOverride(RegunifyError):
    """A user signature override contradicts a derived constructor scheme."""


class BudgetExceeded(RegunifyError):
    """An enumeration or rewriting budget was exhausted."""
