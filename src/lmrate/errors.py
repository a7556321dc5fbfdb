"""Exception types shared across the package."""


class LmrateError(Exception):
    """Base class for package-specific failures."""


class EvaluationError(LmrateError, ValueError):
    """Raised when a coupling or dual point cannot be evaluated (non-finite data)."""


class DegenerateGridError(LmrateError, ValueError):
    """Raised when discretization prunes every output node."""


class UnsupportedConfigurationError(LmrateError, ValueError):
    """Raised when an operation is asked for outside its supported regime."""


class NumericalFailureError(LmrateError, RuntimeError):
    """Raised when an iterative routine breaks down (underflow, lost bracket, ...)."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class BracketError(NumericalFailureError):
    """Raised when a 1-D search cannot enclose its optimum."""


class InconsistentOracleError(LmrateError, RuntimeError):
    """Raised when a reference value contradicts the trace it is checked against."""
