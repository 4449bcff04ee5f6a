"""Exception types shared across the package."""


class LineNetError(Exception):
    """Base class for all package errors."""


class SpecValidationError(LineNetError, ValueError):
    """A network description or CLI input failed validation."""


class InvalidStateError(LineNetError, ValueError):
    """An occupancy state or state index is out of range for its network."""


class StateSpaceCapError(LineNetError):
    """The chain would exceed the fixed state-space cap, ``emc.STATE_CAP``.

    The exact solve and both bounds build such a chain; rbie, dbie or the
    simulator should be used instead.
    """


class ConvergenceError(LineNetError):
    """An iterative solve did not reach its tolerance within the budget."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class ConsistencyError(LineNetError):
    """Internally redundant quantities disagree beyond tolerance."""


class TruncationError(LineNetError):
    """A series or pmf truncation could not meet its tail-mass budget."""


class DegenerateDistributionError(LineNetError):
    """A conditional distribution has no mass (e.g. starvation impossible)."""
