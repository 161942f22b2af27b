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
    "e_tilde",
    "s_squared_of",
    "load_config",
    "params_from_mapping",
]


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
        if self.delta < 0:
            raise DomainError(f"delta must be >= 0, got {self.delta}")
        if self.b0 < 0:
            raise DomainError(f"b0 must be >= 0, got {self.b0}")

    @property
    def s_squared(self) -> float:
        """kz**2 + (e*b0*mu)**2, the squared decay rate of the bound tails."""
        return s_squared_of(self)

    @property
    def decay_rate(self) -> float:
        return math.sqrt(self.s_squared)

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


def e_tilde(params: PhysicalParams) -> float:
    """Spectral parameter -(kz**2 + (e*b0*mu)**2) of the reduced radial problem.

    Always <= 0: the radial eigenvalue problem is solved at this fixed value
    while the physical energy E sits inside the potential term -g(rho)*E.
    """
    return -params.s_squared


_FIELD_NAMES = tuple(f.name for f in fields(PhysicalParams))


def load_config(path) -> dict[str, float]:
    """Parse a flat key=value config file into a dict of floats.

    Blank lines and lines starting with '#' are ignored. Keys must match
    PhysicalParams field names exactly.
    """
    values: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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


def params_from_mapping(mapping) -> PhysicalParams:
    """Build PhysicalParams from a mapping, rejecting unknown keys."""
    unknown = set(mapping) - set(_FIELD_NAMES)
    if unknown:
        raise DomainError(f"unknown parameter(s): {sorted(unknown)}")
    return PhysicalParams(**{k: float(v) for k, v in mapping.items()})
