"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation.

    The message names the violated condition (e.g. a radicand that went
    negative), so callers can report something more useful than NaN.
    """


class BoundStateError(DomainError):
    """No bound state exists for the requested quantum numbers and parameters."""


class BracketingError(RuntimeError):
    """A crossing refinement (sweeps.find_crossings) ran out of steps unconverged."""


class NormalizationError(RuntimeError):
    """Quadrature normalization failed (divergent tail or insufficient grid)."""

