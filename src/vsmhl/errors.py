"""Shared exception types."""


class _Violations(ValueError):
    """Each argument is one violated check; the message joins them with '; '."""

    def __str__(self) -> str:
        return "; ".join(map(str, self.args))


class ValidationError(_Violations):
    """A model parameter or initial law violates one of its invariants."""


class ConfigurationError(_Violations):
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
