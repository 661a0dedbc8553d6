"""Exception types shared across the package."""


class MorphfitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(MorphfitError, ValueError):
    """An argument violates a documented precondition or type invariant."""


def require(condition: bool, message: str) -> None:
    """Raise InvalidArgumentError(message) unless `condition` holds."""
    if not condition:
        raise InvalidArgumentError(message)


class DegenerateGeometryError(MorphfitError):
    """Geometry too degenerate to solve (coincident or collinear points, rank loss)."""


class UnderdeterminedError(MorphfitError):
    """A linear system has fewer equations than unknowns and no regularizer."""


class NumericalFailureError(MorphfitError):
    """Non-finite values, or a violated monotonicity guarantee, during optimization."""


class ParseError(MorphfitError):
    """Malformed text input; carries the offending 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CheckpointError(MorphfitError):
    """Base class for problems with serialized containers."""


class VersionMismatchError(CheckpointError):
    """The container was written with an unsupported format version."""


class CorruptionError(CheckpointError):
    """The container is truncated, has a bad magic string, or fails to parse."""


class InvariantViolationError(CheckpointError):
    """Deserialized state violates a structural invariant; names the field."""
