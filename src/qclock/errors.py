"""Error types shared across the package.

Each class maps to one CLI exit code (see cli module): validation and
parse problems are distinct from resource caps, solver non-convergence,
and numerical consistency failures.
"""

__all__ = [
    "QclockError", "ValidationError", "ParseError", "ResourceLimitError",
    "ConvergenceError", "ConsistencyError",
]


class QclockError(Exception):
    pass


class ValidationError(QclockError, ValueError):
    """A value or combination of values violates a documented invariant."""


class ParseError(ValidationError):
    """Malformed text input; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ResourceLimitError(QclockError):
    """An operation would exceed the configured qubit cap."""


class ConvergenceError(QclockError):
    """Iterative eigensolver failed to reach the residual target."""

    def __init__(self, message: str, best_residual: float | None = None):
        self.best_residual = best_residual
        if best_residual is not None:
            message = f"{message} (best residual {best_residual:.3e})"
        super().__init__(message)


class ConsistencyError(QclockError):
    """A numerically computed quantity landed outside its admissible range."""
