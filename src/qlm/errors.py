"""Exception types shared across the package.

The CLI maps these onto exit codes: input/precondition problems exit 2,
solver failures exit 3, validation failures exit 1.
"""

__all__ = ["QlmError", "GridMismatchError", "InvalidFieldError",
           "InvalidMetricError", "PreconditionError", "AdmissibilityError",
           "GeometryError", "GenerationError", "DomainError",
           "ConvergenceError", "InputFileError"]


class QlmError(Exception):
    """Base class for all package-specific errors.

    Carries ``node`` (theta-index, phi-index) of the worst offending grid
    point when that is meaningful, else None.
    """

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class GridMismatchError(QlmError, ValueError):
    """Fields that must live on the same grid do not."""


class InvalidFieldError(QlmError, ValueError):
    """A field violates a construction invariant (shape, finiteness, ...)."""


class InvalidMetricError(QlmError, ValueError):
    """A 2-metric is not pointwise positive definite."""


class PreconditionError(QlmError, ValueError):
    """An operation's mathematical hypothesis fails on the given data."""


class AdmissibilityError(PreconditionError):
    """A candidate time function makes the graph metric lose convexity."""


class GeometryError(QlmError, ValueError):
    """Extracted extrinsic geometry is degenerate (normal, causal type, ...)."""


class GenerationError(QlmError, ValueError):
    """A catalog surface specification produces invalid physical data."""


class DomainError(QlmError, ValueError):
    """A parameter lies outside the closed-form domain (horizon, sign, ...)."""


class ConvergenceError(QlmError, RuntimeError):
    """An iterative solver failed to reach its tolerance.

    ``diagnostics`` is a free-form dict; embedding solvers attach the last
    iterate under ``diagnostics["last_iterate"]``, the degree cap under
    ``"l_cap"`` and the residual floor at that cap under ``"floor"``.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class InputFileError(QlmError, ValueError):
    """A surface-data file is malformed or violates a data invariant."""
