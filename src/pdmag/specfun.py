"""Orthogonal-polynomial evaluation, Gauss nodes and the exact norms of the
closed forms.

Both families are evaluated by their forward three-term recurrences, which
are stable for the parameter ranges used here (parameters > -1, degrees of
a few tens), Jacobi's in y = 1 + x so that it stays accurate near x = -1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NormalizationError

__all__ = ["laguerre", "jacobi", "normalize"]


def _check_degree(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"polynomial degree must be a non-negative integer, got {n!r}")


def laguerre(n: int, a: float, x):
    """Generalized Laguerre polynomial L_n^a(x) by forward recurrence.

    Seeds L_0 = 1, L_1 = 1 + a - x, then
    (k+1) L_{k+1} = (2k+1+a-x) L_k - (k+a) L_{k-1}.
    """
    _check_degree(n)
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p = 1.0 + a - x
    for k in range(1, n):
        p, p_prev = ((2.0 * k + 1.0 + a - x) * p - (k + a) * p_prev) / (k + 1.0), p
    return p if p.ndim else float(p)


def jacobi(n: int, kappa: float, upsilon: float, y):
    """Jacobi polynomial P_n^(kappa,upsilon)(x) at x = y - 1, by the forward
    recurrence DLMF 18.9.1 written in y.

    Parameters must exceed -1 and y must lie in [0, 2]. With c = 2k + kappa
    + upsilon, a2 + a3 x = s + a3 y has s = a2 - a3 = (c - 1)[2c - upsilon^2
    - (2k + upsilon)(c + kappa)], of order kappa^2 where a2 and a3 are of
    order kappa^3: nothing cancels, so P_n keeps its relative accuracy at
    y ~ 1/kappa as kappa grows (model C as delta -> 0).
    """
    _check_degree(n)
    if kappa <= -1 or upsilon <= -1:
        raise DomainError(
            f"Jacobi parameters must be > -1, got kappa={kappa}, upsilon={upsilon}"
        )
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(y - 1.0) > 1 + 1e-12):
        raise DomainError("Jacobi argument y = 1 + x must lie in [0, 2]")
    a, b = kappa, upsilon
    p_prev = np.ones_like(y)
    if n == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p = 0.5 * (a + b + 2.0) * y - (b + 1.0)
    for k in range(2, n + 1):
        c = 2.0 * k + a + b
        a1 = 2.0 * k * (k + a + b) * (c - 2.0)
        s = (c - 1.0) * (2.0 * c - b * b - (2.0 * k + b) * (c + a))
        a3 = (c - 2.0) * (c - 1.0) * c
        a4 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * c
        p, p_prev = ((s + a3 * y) * p - a4 * p_prev) / a1, p
    return p if p.ndim else float(p)


# Node budget of the Gauss-Laguerre rule behind the 'paper' norm.
_MAX_NODES = 1024


def _golub_welsch(diag, off) -> np.ndarray:
    """Nodes of the Gauss rule with Jacobi matrix (diag, off): its eigenvalues."""
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))


def _laguerre_matrix(m: int, alpha: float):
    """The m x m Jacobi matrix of L^alpha, weight x^alpha e^(-x)."""
    k = np.arange(m, dtype=float)
    return 2.0 * k + alpha + 1.0, np.sqrt(k[1:] * (k[1:] + alpha))


def _jacobi_matrix(m: int, kappa: float, upsilon: float):
    """kappa times the m x m Jacobi matrix of P^(kappa,upsilon) in y = 1 + x
    (kappa > 0, upsilon >= 0), of order one as kappa grows. With c = 2k +
    kappa + upsilon, the diagonal 1 + (upsilon^2 - kappa^2)/(c(c + 2)) is
    summed without cancellation, and kappa^2 must be finite."""
    k = np.arange(m, dtype=float)
    c = 2.0 * k + kappa + upsilon
    diag = kappa * ((2.0 * k + upsilon) * (c + kappa) + 2.0 * c + upsilon * upsilon) / (
        c * (c + 2.0))
    k, c = k[1:], c[1:]
    return diag, 2.0 * np.sqrt(k * (k + upsilon) * ((k + kappa) / c) * (kappa / c)
                               * ((k + kappa + upsilon) / (c + 1.0)) * (kappa / (c - 1.0)))


def _gauss_laguerre(m: int, alpha: float):
    """Nodes and weights of the m-point rule for the weight x^alpha e^(-x),
    with the weights scaled to sum to 1.

    The weights come from the Christoffel function, 1 / sum_k p_k(x)^2
    over the orthonormal polynomials, because eigenvector components lose
    their relative accuracy exactly where the weights are small. A weight
    whose sum overflows is below 1e-308 and set to 0.
    """
    diag, off = _laguerre_matrix(m, alpha)
    x = _golub_welsch(diag, off)
    p_prev, p, total = np.zeros(m), np.ones(m), np.ones(m)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(m - 1):
            back = off[j - 1] * p_prev if j else 0.0
            p, p_prev = ((x - diag[j]) * p - back) / off[j], p
            total += p * p
    weights = 1.0 / total
    return x, np.where(np.isfinite(weights), weights, 0.0)


def _log_laguerre_integral(n: int, a: float) -> float:
    # int_0^inf x^(a+1) e^(-x) [L_n^a(x)]^2 dx = (2n+a+1) Gamma(n+a+1) / n!
    return math.log(2 * n + a + 1.0) + math.lgamma(n + a + 1.0) - math.lgamma(n + 1.0)


def _log_xi_integral(n: int, kappa: float, upsilon: float) -> float:
    # int_0^1 xi^(kappa-1) (1-xi)^(1+upsilon) [P_n(1-2xi)]^2 dxi
    #   = Gamma(n+kappa+1) Gamma(n+upsilon+1) / (n! Gamma(n+kappa+upsilon+1))
    #     * [1/kappa - 1/(2n+kappa+upsilon+1)]
    # lgamma(x) - lgamma(x + upsilon), x = n + kappa + 1 (2e14 at delta = 1e-14), cancels at
    # eps x ln x: from x = 1e3 on, difference the Stirling series (DLMF 5.11.1; next term < 1e-24)
    x, v = n + kappa + 1.0, upsilon
    if x < 1e3:
        ratio = math.lgamma(x) - math.lgamma(x + v)
    else:
        def stirling(t):  # 1/(12z) - 1/(360z^3) + 1/(1260z^5) at t = 1/z
            return t * (1.0 / 12.0 - t * t * (1.0 / 360.0 - t * t / 1260.0))

        ratio = (v - (x + v - 0.5) * math.log1p(v / x) - v * math.log(x)
                 + stirling(1.0 / x) - stirling(1.0 / (x + v)))
    return (ratio + math.lgamma(n + upsilon + 1.0) - math.lgamma(n + 1.0)
            + math.log((2 * n + upsilon + 1.0) / (kappa * (2 * n + kappa + upsilon + 1.0))))


def _log_paper_integral(n: int, kappa: float, upsilon: float) -> float:
    """log of int_0^inf x^(1+upsilon) e^(-kappa x) [P_n(1-2e^(-x))]^2 dx.

    Gauss-Laguerre in y = c x with weight y^(1+upsilon) e^(-y), from 2n+32
    nodes (at most half the budget) up, doubled until two rules agree to
    1e-13; the last rule has exactly _MAX_NODES nodes. P_n^2 holds e^(-jx)
    for j = 0..2n, so the integrand decays at rates kappa to kappa+2n; the
    geometric mean c of the two ends keeps every term within reach of a
    rule of a few hundred nodes, where c = kappa needs thousands for
    kappa < 1 and n = 10.
    """
    alpha = 1.0 + upsilon
    c = math.sqrt(kappa * (kappa + 2.0 * n))
    m, last = min(2 * n + 32, _MAX_NODES // 2), None
    while True:
        y, w = _gauss_laguerre(m, alpha)
        with np.errstate(divide="ignore"):
            w = np.exp(np.log(w) + (1.0 - kappa / c) * y)
        total = float(np.dot(w, jacobi(n, kappa, upsilon, -2.0 * np.expm1(-y / c)) ** 2))
        if last is not None and abs(total - last) <= 1e-13 * total:
            return math.log(total) + math.lgamma(alpha + 1.0) - (alpha + 1.0) * math.log(c)
        if m == _MAX_NODES:
            break
        m, last = min(2 * m, _MAX_NODES), total
    raise NormalizationError(
        f"Gauss-Laguerre norm did not converge within {_MAX_NODES} nodes "
        f"(n = {n}, kappa = {kappa}, upsilon = {upsilon}); last two rules gave "
        f"{last!r} and {total!r}"
    )


def normalize(form: str, n: int, a: float, b: float = 0.0, log_scale: float = 0.0) -> float:
    """Scale factor N with the integral of (N U)^2 over (0, inf) equal to 1.

    The closed forms have int U^2 drho = e^log_scale * I, with I one of
        'laguerre': int_0^inf x^(a+1) e^(-x) [L_n^a(x)]^2 dx, in closed form;
        'xi':       int_0^inf e^(-a x) (1-e^(-x))^(1+b) [P_n^(a,b)(1-2e^(-x))]^2 dx,
                    in closed form;
        'paper':    int_0^inf x^(1+b) e^(-a x) [P_n^(a,b)(1-2e^(-x))]^2 dx,
                    by Gauss-Laguerre quadrature.
    The two Jacobi integrals diverge unless a = kappa > 0; a rule that does
    not converge within its node budget, and a norm outside the range of
    double precision, are rejected.
    """
    if form != "laguerre" and not a > 0:
        raise NormalizationError(f"reduced function does not decay (kappa = {a}); cannot normalize")
    try:
        if form == "laguerre":
            log_integral = _log_laguerre_integral(n, a)
        else:
            log_integral = (_log_xi_integral if form == "xi" else _log_paper_integral)(n, a, b)
        return math.exp(-0.5 * (log_scale + log_integral))
    except (ValueError, OverflowError) as err:  # math domain and range errors
        raise NormalizationError(f"norm out of double-precision range ({err})") from None
