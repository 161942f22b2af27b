"""Physical parameters and quantum numbers.

Units are fixed to hbar = 2*m0 = 1 throughout; every quantity here is a pure
number. Parameters can also be read from a flat ``key=value`` config file
whose keys match the field names of :class:`PhysicalParams` exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import DomainError

__all__ = [
    "PhysicalParams",
    "QuantumState",
    "m_tilde",
    "s_squared_of",
    "load_config",
]


# The most grid points, sweep rows, states, oracle cells or polynomial
# degree one call takes: a sweep of 10^6 rows takes about 1.4 s and peaks
# at 240 MB on a 2-vCPU x86-64 VM; a far larger grid would fail in numpy's
# allocator, and a recurrence of that many steps would not return.
_MAX_POINTS = 10**6

# The fields that must be >= 0: PhysicalParams rejects a negative one, in
# this order, and a parameter axis records it (models.level_axis)
_NON_NEGATIVE = ("delta", "b0")


@dataclass(frozen=True)
class PhysicalParams:
    """All physical constants of a scenario.

    e         signed particle charge (+-|e|); the sign of the flux ratio
              alpha_ab follows the charge sign by convention, but both are
              free inputs here.
    b0        magnetic field strength, >= 0.
    mu        field shape parameter; mu = 0 switches the field off.
    beta      offset parameter of the field generating function S(rho).
              It cancels from the field itself but survives in the spectra.
    sigma     inverse-power exponent of the field profile B ~ mu/rho^sigma.
              Closed-form spectra exist only for sigma = 1; sigma = 2 leaves
              the generator S undefined.
    alpha_ab  Aharonov-Bohm flux in units of the flux quantum 2*pi/e. Only
              this ratio matters; the raw flux is never stored.
    kz        axial wavenumber; kz**2 is the (opaque) z-sector eigenvalue.
    eta       mass scale, > 0.
    delta     mass/potential decay rate, >= 0.
    v0, v1, v2  strengths of the screened-Coulomb plus inverse-power
              confining potential -v0*exp(-delta*rho)/rho - v1/rho + v2/rho**2.
    """

    e: float = 1.0
    b0: float = 1.0
    mu: float = 1.0
    beta: float = 0.0
    sigma: float = 1.0
    alpha_ab: float = 0.0
    kz: float = 0.0
    eta: float = 1.0
    delta: float = 0.0
    v0: float = 0.0
    v1: float = 0.0
    v2: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, self.__dict__.values())):
            name, value = next((k, v) for k, v in self.__dict__.items() if not math.isfinite(v))
            raise DomainError(f"{name} must be finite, got {value!r}")
        if not self.eta > 0:
            raise DomainError(f"eta must be positive (mass scale), got {self.eta}")
        for name in _NON_NEGATIVE:
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0, got {getattr(self, name)}")

    @property
    def s_squared(self) -> float:
        """kz**2 + (e*b0*mu)**2, the squared decay rate of the bound tails."""
        return s_squared_of(self)

    def replace(self, **changes) -> "PhysicalParams":
        return replace(self, **changes)


@dataclass(frozen=True, order=True)
class QuantumState:
    """Radial quantum number n_rho >= 0 and magnetic quantum number m."""

    n_rho: int
    m: int

    def __post_init__(self):
        if not isinstance(self.n_rho, int) or isinstance(self.n_rho, bool):
            raise DomainError(f"n_rho must be an integer, got {self.n_rho!r}")
        if not isinstance(self.m, int) or isinstance(self.m, bool):
            raise DomainError(f"m must be an integer, got {self.m!r}")
        if self.n_rho < 0:
            raise DomainError(f"n_rho must be >= 0, got {self.n_rho}")


def m_tilde(state: QuantumState, params: PhysicalParams) -> float:
    """Flux-shifted magnetic quantum number m - alpha_ab.

    A flux line through the origin cannot be gauged away; it survives as
    this (generally irrational) shift of m, the only place the flux enters.
    """
    return state.m - params.alpha_ab


def s_squared_of(p):
    """kz**2 + (e*b0*mu)**2 of anything with those fields, floats or arrays.

    Squares are written as products: for floats and numpy arrays alike a
    product is one correctly rounded operation, so a parameter axis and a
    single point give the same bits, and a square too large for a double
    becomes inf instead of raising OverflowError.
    """
    ebm = p.e * p.b0 * p.mu
    return p.kz * p.kz + ebm * ebm


_FIELD_NAMES = tuple(f.name for f in fields(PhysicalParams))


def load_config(path) -> dict[str, float]:
    """Parse a flat key=value config file into a dict of floats.

    Blank lines and lines starting with '#' are ignored. Keys must match
    PhysicalParams field names exactly.
    """
    values: dict[str, float] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        raise DomainError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_NAMES:
            raise DomainError(f"{path}:{lineno}: unknown parameter {key!r}")
        try:
            values[key] = float(value.strip())
        except ValueError:
            raise DomainError(f"{path}:{lineno}: {value.strip()!r} is not a number") from None
    return values
