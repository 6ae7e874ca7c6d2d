"""Shared exception types."""


class ValidationError(ValueError):
    """A model parameter or initial law violates one of its invariants."""


class ConfigurationError(ValueError):
    """An experiment or solver configuration cannot be run as requested."""


class DegenerateStateError(RuntimeError):
    """The simulated system reached an all-zero state and cannot continue."""

    def __init__(self, step: int):
        super().__init__(f"total capitalization hit 0 at step {step}")
        self.step = step

    def __reduce__(self):
        return type(self), (self.step,)


class GridMismatchError(ValueError):
    """Two measure paths do not share the same time grid."""
