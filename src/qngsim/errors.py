"""Exception types shared across the package."""

__all__ = [
    "CoefficientOverflowError",
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
    """A register would exceed the memory budget, or is too large to
    allocate at all."""


class SingularMetricError(RuntimeError):
    """The (unregularized) metric solve hit a singular system."""


class StepOverflowError(RuntimeError):
    """A natural-gradient step does not fit in a float: the timestep is too
    large for the gradient and the metric at that point."""


class CoefficientOverflowError(RuntimeError):
    """A tensor, energy or gradient overflows a float: a coefficient is too large."""
