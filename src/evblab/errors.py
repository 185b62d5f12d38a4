"""Exception types shared across the toolkit."""


class SamplingError(RuntimeError):
    """Rejection sampling exhausted its attempt budget."""


class FormatError(ValueError):
    """An event file or serialized artifact is malformed."""


class ConfigurationError(ValueError):
    """Inputs that should agree (grids, binnings, measurement sets) do not."""


class InsufficientDataError(ValueError):
    """Counts are too sparse to attempt a reconstruction."""


class ConvergenceError(RuntimeError):
    """Iterative optimization did not reach tolerance; carries the best iterate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
