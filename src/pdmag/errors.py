"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation.

    The message names the violated condition (e.g. a radicand that went
    negative), so callers can report something more useful than NaN.
    """


class BoundStateError(DomainError):
    """No bound state exists for the requested quantum numbers and parameters."""


class BracketingError(RuntimeError):
    """A root bracket did not contain a sign change.

    Carries the objective values at both ends so the caller can see which
    way to move the bracket.
    """

    def __init__(self, message: str, f_lo: float | None = None, f_hi: float | None = None):
        if f_lo is not None or f_hi is not None:
            message = f"{message} (F(lo)={f_lo!r}, F(hi)={f_hi!r})"
        super().__init__(message)
        self.f_lo = f_lo
        self.f_hi = f_hi


class NormalizationError(RuntimeError):
    """Quadrature normalization failed (divergent tail or insufficient grid)."""

