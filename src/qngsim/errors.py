"""Exception types shared across the package."""

__all__ = [
    "ParseError",
    "ResourceLimitError",
    "SingularMetricError",
    "StepOverflowError",
    "UnsupportedGateError",
]


class UnsupportedGateError(ValueError):
    """A gate description falls outside what the simulator supports."""


class ParseError(ValueError):
    """A circuit or Hamiltonian file is malformed; message carries the line."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed the configured memory budget."""


class SingularMetricError(RuntimeError):
    """The (unregularized) metric solve hit a singular system."""


class StepOverflowError(RuntimeError):
    """A natural-gradient step does not fit in a float: the timestep is too
    large for the gradient and the metric at that point."""
