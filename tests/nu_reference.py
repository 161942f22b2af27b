"""Parametric Nikiforov-Uvarov quantization for hypergeometric-type equations.

Works on second-order equations brought to the standard form

    U'' + tau_tilde/sigma U' + sigma_tilde/sigma^2 U = 0

with sigma(xi) = xi(1-xi), tau_tilde(xi) = 1-xi, and

    sigma_tilde(xi) = -(a1t - a2t + a4t) + (a3t + 2 a4t - a2t) xi
                      - (a3t + a4t) xi^2.

The NU steps are generic in the four real coefficients a1t..a4t; no
physics enters them. Square roots always take the principal branch, and a
negative radicand or a coefficient that is not finite is a hard domain
error rather than a complex continuation or a nan, and so is a radicand
that overflows.

Two test references close the file: model_c_coefficients reads model C's
a1t..a4t off pdmag's reduced equation, and verify_curl checks the field
identity by central differences. pdmag's closed forms take nothing from
here; the tests check them against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from pdmag.errors import DomainError
from pdmag.fields import magnetic_field, shape_function
from pdmag.models import ModelKind, reduced_equation
from pdmag.params import PhysicalParams, QuantumState

__all__ = [
    "NUCoefficients",
    "k_minus",
    "tau_prime",
    "lambda_of",
    "lambda_n",
    "nu_quantize",
    "model_c_coefficients",
    "verify_curl",
]


@dataclass(frozen=True)
class NUCoefficients:
    """The four reduced coefficients at1..at4 of the standard form."""

    a1t: float
    a2t: float
    a3t: float
    a4t: float

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        for invariant, value, root in (
            ("4*a1t + 1", 4.0 * self.a1t + 1.0, "upsilon"),
            ("a1t - a2t + a4t", self.a1t - self.a2t + self.a4t, "kappa"),
        ):
            if not 0.0 <= value < math.inf:  # negative, or overflowed to inf
                raise DomainError(
                    f"invariant 0 <= {invariant} < inf violated (a1t={self.a1t}, a2t={self.a2t}, "
                    f"a4t={self.a4t}); {root} would be {'imaginary' if value < 0 else 'infinite'}"
                )

    @property
    def sqrt_u(self) -> float:
        """sqrt(a1t - a2t + a4t), i.e. kappa/2."""
        return math.sqrt(self.a1t - self.a2t + self.a4t)

    @property
    def q(self) -> float:
        """sqrt((4*a1t + 1)/4), i.e. upsilon/2."""
        return math.sqrt(4.0 * self.a1t + 1.0) / 2.0

    @property
    def kappa(self) -> float:
        return 2.0 * self.sqrt_u

    @property
    def upsilon(self) -> float:
        return math.sqrt(4.0 * self.a1t + 1.0)


def k_minus(c: NUCoefficients) -> float:
    """Lower root of the discriminant condition for k.

    k_minus = -(2*a1t - a2t - a3t) - sqrt((a1t - a2t + a4t)(4*a1t + 1)).
    With this choice the quadratic under the pi(xi) square root becomes a
    perfect square (its own discriminant vanishes); the upper root would
    make that square's leading coefficient negative (imaginary energies).
    """
    # the root of the product taken as the product of the roots, which
    # cannot overflow while each factor is finite
    return -(2.0 * c.a1t - c.a2t - c.a3t) - c.sqrt_u * c.upsilon


def tau_prime(c: NUCoefficients) -> float:
    """Derivative of tau(xi) = tau_tilde + 2*pi; always negative."""
    return -2.0 - 2.0 * (c.sqrt_u + c.q)


def lambda_of(c: NUCoefficients) -> float:
    """Eigenvalue parameter lambda = k_minus + pi', where
    pi(xi) = -xi/2 - [(sqrt_u + q) xi - sqrt_u] on the k_minus branch."""
    return _finite("lambda", k_minus(c) + (-0.5 - c.sqrt_u - c.q), c)


def lambda_n(c: NUCoefficients, n: int) -> float:
    """Quantized lambda from the polynomial-termination condition.

    lambda_n = -n tau' - n(n-1)/2 sigma'' = n[2 + 2(sqrt_u + q)] + n(n-1).
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"n must be a non-negative integer, got {n!r}")
    return n * (2.0 + 2.0 * (c.sqrt_u + c.q)) + n * (n - 1.0)


def nu_quantize(a1t: float, a2t: float, a4t: float, n: int) -> float:
    """The a3t value at which lambda_of meets lambda_n.

    lambda_of = a3t - 2 a1t + a2t - sqrt((a1t - a2t + a4t)(4 a1t + 1))
    - 1/2 - sqrt_u - q has slope 1 in a3t while lambda_n does not depend
    on it, so the root is unique: lambda_n minus lambda_of at a3t = 0.
    """
    c = NUCoefficients(a1t, a2t, 0.0, a4t)  # checks the invariants
    return _finite("quantized a3t", lambda_n(c, n) - lambda_of(c), c)


def _finite(name: str, value: float, c: NUCoefficients) -> float:
    if not math.isfinite(value):
        raise DomainError(
            f"{name} is not finite ({value!r}) for a1t={c.a1t}, a2t={c.a2t}, "
            f"a3t={c.a3t}, a4t={c.a4t}"
        )
    return value


def model_c_coefficients(state: QuantumState, params: PhysicalParams, E: float) -> NUCoefficients:
    """Model C's NU coefficients at energy E under xi = e^(-delta rho), read
    off the reduced equation -U'' + [c2/rho^2 + (c1 + v0)/rho
    - (v0 + eta E) e^(-delta rho)/rho + tail] U = 0 (the paper's a1..a4):
    (c2, -(c1 + v0)/delta, (v0 + eta E)/delta, tail/delta^2). The closed
    form takes kappa and upsilon from its level kernel; this is the
    reference it is checked against.
    """
    eq = reduced_equation(ModelKind.C, state, params)
    d = eq.delta
    if d**2 == 0:
        raise DomainError(
            f"coefficient reduction divides by delta^2 = 0 (delta = {d}); at delta = 0 "
            "use model A reduction instead"
        )
    tilde = (eq.c2, -(eq.c1 + eq.v0) / d, (eq.v0 + eq.eta * E) / d, eq.tail / d**2)
    if not all(map(math.isfinite, tilde)):
        raise DomainError(f"coefficient reduction overflows: delta = {d} is too small")
    return NUCoefficients(*tilde)


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
