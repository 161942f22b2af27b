"""Position-dependent magnetic field, its generating function, and the
azimuthal vector potential.

The axial field B_z = b0*mu/rho**sigma is produced by the generating
function S(rho) through the combination S + (rho/2)*S', which kills the
beta/rho**2 offset: beta never appears in the field itself, only in the
spectra. Everything is singular at rho = 0, so rho > 0 is required
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .params import PhysicalParams

__all__ = [
    "FieldSample",
    "shape_function",
    "magnetic_field",
    "vector_potential",
    "verify_curl",
    "field_table",
]


@dataclass(frozen=True)
class FieldSample:
    rho: float
    s: float
    b_z: float
    a_phi: float


def _check_rho(rho) -> None:
    if np.any(np.asarray(rho) <= 0):
        raise DomainError("rho must be > 0; the field formulas are singular at the axis")


def shape_function(rho, params: PhysicalParams):
    """Generating function S(rho) = (2*mu/(2-sigma))*rho**(-sigma) + beta/rho**2.

    sigma = 2 makes the leading coefficient blow up, so it is rejected.
    With mu=1, sigma=0, beta=0 this is the constant-field case S = 1.
    """
    if params.sigma == 2:
        raise DomainError("generator undefined at sigma=2")
    _check_rho(rho)
    rho = np.asarray(rho, dtype=float)
    out = (2.0 * params.mu / (2.0 - params.sigma)) * rho ** (-params.sigma) + params.beta / rho**2
    return out if out.ndim else float(out)


def magnetic_field(rho, params: PhysicalParams):
    """Axial field component b0*mu/rho**sigma.

    Defined for every sigma (only the generating function excludes sigma=2).
    """
    _check_rho(rho)
    rho = np.asarray(rho, dtype=float)
    out = params.b0 * params.mu / rho**params.sigma
    return out if out.ndim else float(out)


def vector_potential(rho, params: PhysicalParams):
    """Total azimuthal vector potential (b0/2)*rho*S(rho) + alpha_ab/(e*rho).

    The second piece is the curl-free flux-line contribution, written via the
    flux quantum 2*pi/e so only the ratio alpha_ab appears.
    """
    _check_rho(rho)
    rho = np.asarray(rho, dtype=float)
    a1 = 0.5 * params.b0 * rho * shape_function(rho, params)
    if params.alpha_ab != 0.0:
        if params.e == 0.0:
            raise DomainError("alpha_ab != 0 requires a nonzero charge e")
        a1 = a1 + params.alpha_ab / (params.e * rho)
    return a1 if a1.ndim else float(a1)


def verify_curl(rho: float, params: PhysicalParams, h: float | None = None) -> float:
    """Residual |(1/rho) d(rho*A1_phi)/drho - B_z| by central differences.

    Only the field-generating part A1 = (b0/2)*rho*S enters; the flux-line
    part is curl-free and excluded. The default step is relative,
    h = 1e-4*rho, which avoids cancellation at large rho.
    """
    if h is None:
        h = 1e-4 * rho
    if rho - h <= 0:
        raise DomainError(f"need rho - h > 0, got rho={rho}, h={h}")

    def rho_a1(r: float) -> float:
        return r * 0.5 * params.b0 * r * shape_function(r, params)

    curl_z = (rho_a1(rho + h) - rho_a1(rho - h)) / (2.0 * h * rho)
    return abs(curl_z - magnetic_field(rho, params))


def field_table(rhos, params: PhysicalParams) -> list[FieldSample]:
    """Sample S, B_z and A_phi on a grid of radii; a table that is not
    finite is a DomainError."""
    with np.errstate(all="ignore"):  # a value that is not finite is rejected below
        table = [
            FieldSample(
                rho=float(r),
                s=shape_function(float(r), params),
                b_z=magnetic_field(float(r), params),
                a_phi=vector_potential(float(r), params),
            )
            for r in np.asarray(rhos, dtype=float)
        ]
    if not np.all(np.isfinite([(x.s, x.b_z, x.a_phi) for x in table])):
        raise DomainError("field table is not finite: a parameter is too large")
    return table
