"""Typed errors raised across the library.

All inherit from NetsyncError (itself a ValueError) so callers can catch
broadly or precisely.  Estimator non-convergence is deliberately NOT an
error; it is reported as a flag on the estimate.  An error built from
fields pickles back from them, so it crosses a process boundary (a
parallel sweep's workers) as itself.
"""


class NetsyncError(ValueError):
    """Base class for all library errors."""


class ProcessExhaustedError(NetsyncError):
    pass


class OrbitDivergedError(NetsyncError):
    def __init__(self, t: int, value: float):
        self.t = t
        self.value = value
        super().__init__(f"scalar orbit exceeded 1e12 at step {t} (|s|={value:.3e})")

    def __reduce__(self):
        return type(self), (self.t, self.value)


class StateDivergedError(NetsyncError):
    def __init__(self, t: int, value: float):
        self.t = t
        self.value = value
        super().__init__(f"node state exceeded 1e12 at step {t} (max |x|={value:.3e})")

    def __reduce__(self):
        return type(self), (self.t, self.value)


class InvalidParamsError(NetsyncError):
    pass


class ConfigError(NetsyncError):
    """Configuration validation failure; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"config field '{field}': {message}")

    def __reduce__(self):
        return type(self), (self.field, self.message)
