"""Parametric Nikiforov-Uvarov quantization for hypergeometric-type equations.

Works on second-order equations brought to the standard form

    U'' + tau_tilde/sigma U' + sigma_tilde/sigma^2 U = 0

with sigma(xi) = xi(1-xi), tau_tilde(xi) = 1-xi, and

    sigma_tilde(xi) = -(a1t - a2t + a4t) + (a3t + 2 a4t - a2t) xi
                      - (a3t + a4t) xi^2.

Everything here is generic in the four real coefficients a1t..a4t; no
physics enters. Square roots always take the principal branch, and a
negative radicand or a coefficient that is not finite is a hard domain
error rather than a complex continuation or a nan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "NUCoefficients",
    "k_minus",
    "tau_prime",
    "lambda_of",
    "lambda_n",
    "nu_quantize",
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
        if 4.0 * self.a1t + 1.0 < 0:
            raise DomainError(
                f"invariant 4*a1t + 1 >= 0 violated (a1t={self.a1t}); "
                "upsilon would be imaginary"
            )
        if self.a1t - self.a2t + self.a4t < 0:
            raise DomainError(
                "invariant a1t - a2t + a4t >= 0 violated "
                f"(a1t={self.a1t}, a2t={self.a2t}, a4t={self.a4t}); "
                "kappa would be imaginary"
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
    rad = (c.a1t - c.a2t + c.a4t) * (4.0 * c.a1t + 1.0)  # both invariants, so >= 0
    return -(2.0 * c.a1t - c.a2t - c.a3t) - math.sqrt(rad)


def tau_prime(c: NUCoefficients) -> float:
    """Derivative of tau(xi) = tau_tilde + 2*pi; always negative."""
    return -2.0 - 2.0 * (c.sqrt_u + c.q)


def lambda_of(c: NUCoefficients) -> float:
    """Eigenvalue parameter lambda = k_minus + pi', where
    pi(xi) = -xi/2 - [(sqrt_u + q) xi - sqrt_u] on the k_minus branch."""
    return k_minus(c) + (-0.5 - c.sqrt_u - c.q)


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
    return lambda_n(c, n) - lambda_of(c)
