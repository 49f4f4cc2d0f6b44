"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` so callers (and the
CLI, which maps error classes to exit codes) can dispatch without parsing
messages.
"""


class LocusError(Exception):
    """Base class for all package errors."""

    def __init__(self, code: str, message: str):
        self.code = code
        self.message = message
        super().__init__(f"[{code}] {message}")


class ValidationError(LocusError):
    """Bad input data or arguments (CLI exit code 3)."""


class DimensionError(ValidationError):
    """Shape or size mismatch between related inputs."""


class DegeneracyError(LocusError):
    """Numerically degenerate configuration, e.g. a singular Gram matrix
    or an eigenvalue gap too small for the requested reduction
    (CLI exit code 4)."""


class NumericError(LocusError):
    """Non-finite values produced during iteration (CLI exit code 4)."""
