"""Position-dependent magnetic field, its generating function, and the
azimuthal vector potential.

The axial field B_z = b0*mu/rho**sigma is produced by the generating
function S(rho) through the combination S + (rho/2)*S', which kills the
beta/rho**2 offset: beta never appears in the field itself, only in the
spectra. Everything is singular at rho = 0, so rho > 0 is required
throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .params import PhysicalParams

__all__ = [
    "shape_function",
    "magnetic_field",
    "vector_potential",
    "field_table",
]


def _positive(rho) -> np.ndarray:
    """rho as a float array, which must be positive: every formula of the
    field and of the radial equation is singular at the axis."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise DomainError("rho must be positive: the formulas are singular at the axis rho = 0")
    return rho


def shape_function(rho, params: PhysicalParams):
    """Generating function S(rho) = (2*mu/(2-sigma))*rho**(-sigma) + beta/rho**2.

    sigma = 2 makes the leading coefficient blow up, so it is rejected.
    With mu=1, sigma=0, beta=0 this is the constant-field case S = 1.
    """
    if params.sigma == 2:
        raise DomainError("generator undefined at sigma=2")
    rho = _positive(rho)
    out = (2.0 * params.mu / (2.0 - params.sigma)) * rho ** (-params.sigma) + params.beta / rho**2
    return out if out.ndim else float(out)


def magnetic_field(rho, params: PhysicalParams):
    """Axial field component b0*mu/rho**sigma.

    Defined for every sigma (only the generating function excludes sigma=2).
    """
    rho = _positive(rho)
    out = params.b0 * params.mu / rho**params.sigma
    return out if out.ndim else float(out)


def vector_potential(rho, params: PhysicalParams):
    """Total azimuthal vector potential (b0/2)*rho*S(rho) + alpha_ab/(e*rho).

    The second piece is the curl-free flux-line contribution, written via the
    flux quantum 2*pi/e so only the ratio alpha_ab appears.
    """
    rho = _positive(rho)
    a1 = 0.5 * params.b0 * rho * shape_function(rho, params)
    if params.alpha_ab != 0.0:
        if params.e == 0.0:
            raise DomainError("alpha_ab != 0 requires a nonzero charge e")
        a1 = a1 + params.alpha_ab / (params.e * rho)
    return a1 if a1.ndim else float(a1)


def field_table(rhos, params: PhysicalParams):
    """The arrays (S, B_z, A_phi) on a grid of radii; a table that is not
    finite is a DomainError."""
    rhos = np.asarray(rhos, dtype=float)
    with np.errstate(all="ignore"):  # a value that is not finite is rejected below
        table = (
            shape_function(rhos, params),
            magnetic_field(rhos, params),
            vector_potential(rhos, params),
        )
    if not all(np.all(np.isfinite(column)) for column in table):
        raise DomainError("field table is not finite: a parameter is too large")
    return table
