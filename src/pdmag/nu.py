"""Parametric Nikiforov-Uvarov solver for hypergeometric-type equations.

Works on second-order equations brought to the standard form

    U'' + tau_tilde/sigma U' + sigma_tilde/sigma^2 U = 0

with sigma(xi) = xi(1-xi), tau_tilde(xi) = 1-xi, and

    sigma_tilde(xi) = -(a1t - a2t + a4t) + (a3t + 2 a4t - a2t) xi
                      - (a3t + a4t) xi^2.

Everything here is generic in the four real coefficients a1t..a4t; no
physics enters. Square roots always take the principal branch, and a
negative radicand is a hard domain error rather than a complex
continuation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnphysicalBranchError
from .specfun import jacobi

__all__ = [
    "NUCoefficients",
    "NUSolution",
    "k_minus",
    "k_plus",
    "pi_minus",
    "tau_prime",
    "lambda_of",
    "lambda_n",
    "nu_quantize",
    "nu_eigenfunction",
    "weight_function",
    "solve",
]


@dataclass(frozen=True)
class NUCoefficients:
    """The four reduced coefficients at1..at4 of the standard form."""

    a1t: float
    a2t: float
    a3t: float
    a4t: float

    def __post_init__(self):
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
    perfect square (its own discriminant vanishes).
    """
    rad = (c.a1t - c.a2t + c.a4t) * (4.0 * c.a1t + 1.0)
    if rad < 0:
        raise DomainError(f"negative radicand {rad} in k_minus; coefficient invariants violated")
    return -(2.0 * c.a1t - c.a2t - c.a3t) - math.sqrt(rad)


def k_plus(c: NUCoefficients) -> float:
    """The upper root is never usable: it makes the leading coefficient of
    the squared linear factor negative, i.e. imaginary energies."""
    raise UnphysicalBranchError(
        "unphysical branch: k_plus yields a negative perfect-square coefficient "
        "(imaginary energy eigenvalues); use k_minus"
    )


def pi_minus(c: NUCoefficients) -> tuple[float, float]:
    """Slope and intercept of the linear pi(xi) built on the k_minus branch.

    pi(xi) = -xi/2 - [(sqrt_u + q) xi - sqrt_u].
    """
    return (-0.5 - c.sqrt_u - c.q, c.sqrt_u)


def tau_prime(c: NUCoefficients) -> float:
    """Derivative of tau(xi) = tau_tilde + 2*pi; always negative."""
    return -2.0 - 2.0 * (c.sqrt_u + c.q)


def lambda_of(c: NUCoefficients) -> float:
    """Eigenvalue parameter lambda = k_minus + pi'."""
    slope, _ = pi_minus(c)
    return k_minus(c) + slope


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
    on it, so the root is unique and in closed form.
    """
    c = NUCoefficients(a1t, a2t, 0.0, a4t)  # checks the invariants; a3t drops out
    return (
        lambda_n(c, n)
        + 2.0 * a1t
        - a2t
        + math.sqrt((a1t - a2t + a4t) * (4.0 * a1t + 1.0))
        + 0.5
        + c.sqrt_u
        + c.q
    )


def nu_eigenfunction(c: NUCoefficients, n: int, xi):
    """Unnormalized bound solution U(xi) = phi(xi) * P_n^(kappa,upsilon)(1-2xi).

    phi(xi) = xi^(kappa/2) * (1-xi)^((1+upsilon)/2). At kappa = 0 the xi=0
    endpoint is finite (0^0 treated as 1).
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"n must be a non-negative integer, got {n!r}")
    xi_arr = np.asarray(xi, dtype=float)
    if np.any((xi_arr < 0) | (xi_arr > 1)):
        raise DomainError("xi must lie in [0, 1]")
    phi = np.power(xi_arr, 0.5 * c.kappa) * np.power(1.0 - xi_arr, 0.5 * (1.0 + c.upsilon))
    out = phi * jacobi(n, c.kappa, c.upsilon, 1.0 - 2.0 * xi_arr)
    return out if np.ndim(xi) else float(out)


def weight_function(c: NUCoefficients, xi):
    """Orthogonality weight omega(xi) = xi^kappa * (1-xi)^upsilon on (0,1)."""
    xi_arr = np.asarray(xi, dtype=float)
    if np.any((xi_arr <= 0) | (xi_arr >= 1)):
        raise DomainError("xi must lie strictly inside (0, 1)")
    out = np.power(xi_arr, c.kappa) * np.power(1.0 - xi_arr, c.upsilon)
    return out if np.ndim(xi) else float(out)


@dataclass(frozen=True)
class NUSolution:
    """Assembled solver output for one coefficient set."""

    k_minus: float
    pi_slope: float
    pi_intercept: float
    lam: float
    kappa: float
    upsilon: float

    def __post_init__(self):
        # tau' = 2*pi_slope - 1 must stay negative for bound solutions.
        if not 2.0 * self.pi_slope - 1.0 < 0:
            raise DomainError(f"tau' = {2.0 * self.pi_slope - 1.0} is not negative")


def solve(c: NUCoefficients) -> NUSolution:
    """Run the k_minus pipeline and bundle the results."""
    k = k_minus(c)
    slope, intercept = pi_minus(c)
    a_minus = 0.25 - k + c.a3t + c.a4t
    if a_minus < 0:
        raise DomainError(
            f"invariant A_minus >= 0 violated (A_minus={a_minus}); unphysical solution"
        )
    return NUSolution(
        k_minus=k,
        pi_slope=slope,
        pi_intercept=intercept,
        lam=k + slope,
        kappa=c.kappa,
        upsilon=c.upsilon,
    )
