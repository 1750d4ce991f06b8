"""Typed errors raised across the library.

All inherit from NetsyncError (itself a ValueError) so callers can catch
broadly or precisely.  Estimator non-convergence is deliberately NOT an
error; it is reported as a flag on the estimate.
"""


class NetsyncError(ValueError):
    """Base class for all library errors."""


class DimensionTooSmallError(NetsyncError):
    pass


class DimensionMismatchError(NetsyncError):
    pass


class EmptySetError(NetsyncError):
    pass


class ProcessExhaustedError(NetsyncError):
    pass


class OrbitDivergedError(NetsyncError):
    def __init__(self, t: int, value: float):
        self.t = t
        self.value = value
        super().__init__(f"scalar orbit exceeded 1e12 at step {t} (|s|={value:.3e})")


class StateDivergedError(NetsyncError):
    def __init__(self, t: int, value: float):
        self.t = t
        self.value = value
        super().__init__(f"node state exceeded 1e12 at step {t} (max |x|={value:.3e})")


class InvalidParamsError(NetsyncError):
    pass


class UnknownParameterError(NetsyncError):
    pass


class ConfigError(NetsyncError):
    """Configuration validation failure; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")
