"""A Laguerre-Galerkin solver of the reduced radial equation on (0, inf),
the test-side reference for the levels of models A, B and C.

A level of `models.reduced_equation`'s record, -U'' + W(rho; E) U = Et U
with W = c2/rho^2 + c1/rho + smooth(rho) - E g(rho), is an eigenvalue of
the pencil K u = E G u on the basis phi_k = rho^p e^(-lam rho) p_k(2 lam rho),
k < N, where p = 1/2 + sqrt(c2 + 1/4) is the regular exponent at the origin
and p_k are the orthonormal Laguerre polynomials of the weight
x^(2p-1) e^(-x). In x = 2 lam rho every matrix element is the integral of
x^(2p-2) e^(-x) times a smooth factor, up to the common factor
(2 lam)^(1-2p), which cancels, so one Gauss rule of 2N nodes gives them all:

    K_jk = sum w [D_j D_k + (c2 + rho^2 (c1/rho + smooth - Et)) p_j p_k],
    G_jk = sum w rho^2 g p_j p_k,   D = (p - x/2) p + x p'.

For model A the factors are polynomials and the rule is exact. The pencil
is solved inverted: K - sigma G = L L^T, with sigma = 0, then 2 sigma - 1
until the Cholesky factor exists (so every Ritz value lies above sigma),
and the levels are sigma + 1/mu over the eigenvalues mu > 0 of
L^-1 G L^-T in descending order; G's null space maps to mu ~ 0, E -> inf,
so no cut is needed. The bases are nested, so the leading N - 15 block at
the same sigma gives the estimate |E_N - E_(N-15)|. The default scale is
lam = kappa + 2 decay (kappa^2 the record's tail) and N = n_rho + 40.
The solver reads no closed-form level and nothing from pdmag.oracle.

References: J. P. Boyd, Chebyshev and Fourier Spectral Methods, Dover
2001, ch. 17 (Laguerre functions on [0, inf)); B. N. Parlett, The
Symmetric Eigenvalue Problem, SIAM 1998, ch. 15 (the definite pencil).
"""

import math
from typing import NamedTuple

import numpy as np

from pdmag.models import reduced_equation
from pdmag.specfun import _gauss_laguerre

# The nested basis of the estimate is this many functions smaller.
NESTED = 15


class Level(NamedTuple):
    energy: float
    error: float  # |E_N - E_(N-15)|


def pencil(eq, lam: float, size: int):
    """(K, G) of the record eq on `size` basis functions of scale lam."""
    c2, c1, smooth = eq.split()
    p = 0.5 + math.sqrt(c2 + 0.25)
    a = 2.0 * p - 1.0
    x, w = _gauss_laguerre(2 * size, a - 1.0)
    rho = x / (2.0 * lam)
    # x p_k = b_(k+1) p_(k+1) + (2k + a + 1) p_k + b_k p_(k-1) and x p_k' = k p_k + b_k p_(k-1),
    # b_k = sqrt(k (k + a)); p_0 = 1 leaves out a common factor, which cancels
    b = np.sqrt(np.arange(size) * (np.arange(size) + a))
    vals, xder = np.ones((size, x.size)), np.zeros((size, x.size))
    for k in range(1, size):
        back = b[k - 1] * vals[k - 2] if k > 1 else 0.0
        vals[k] = ((x - (2 * k - 1 + a)) * vals[k - 1] - back) / b[k]
        xder[k] = k * vals[k] + b[k] * vals[k - 1]
    root = np.sqrt(w)
    d = ((p - x / 2.0) * vals + xder) * root
    vals = vals * root
    f = c2 + rho * (c1 + rho * ((smooth(rho) if smooth else 0.0) - eq.et))
    return d @ d.T + (vals * f) @ vals.T, (vals * (rho * rho * eq.mass(rho))) @ vals.T


def _shift_factor(K, G):
    """(sigma, L) with K - sigma G = L L^T, sigma = 0, -1, -3, -7, ..."""
    sigma = 0.0
    for _ in range(64):
        try:
            return sigma, np.linalg.cholesky(K - sigma * G)
        except np.linalg.LinAlgError:
            sigma = 2.0 * sigma - 1.0
    raise np.linalg.LinAlgError("no shift below the pencil's lowest Ritz value")


def _ritz(sigma, L, G, n_rho: int) -> float:
    """Ritz value n_rho of the pencil, sigma + 1/mu with mu the (n_rho + 1)-th
    largest eigenvalue of L^-1 G L^-T."""
    mu = np.linalg.eigvalsh(np.linalg.solve(L, np.linalg.solve(L, G).T))[::-1]
    if not mu[n_rho] > 0:
        raise ValueError(f"the basis holds fewer than {n_rho + 1} levels")
    return sigma + 1.0 / mu[n_rho]


def level(kind, state, params, target="exact", *, lam=None, size=None) -> Level:
    """Level n_rho of the state's reduced equation, with its nested estimate.

    Model B's mass eta/rho^2 puts the level into the centrifugal term, so
    its level is a fixed point on p: at a trial energy Eg the pencil of the
    record with c2 - eta Eg as its c2 has p = 1/2 + u, u^2 = c2 + 1/4 - eta Eg,
    and E = Eg + its Ritz value. It starts at u = 1/2, takes u from E while
    c2 + 1/4 - eta E > 0 and halves u otherwise, and stops at
    |E - Eg| <= 1e-14 max(1, |E|). Models A and C have Eg = 0 and one solve.
    """
    eq = reduced_equation(kind, state, params, target)
    if lam is None:
        lam = math.sqrt(eq.tail) + 2.0 * eq.decay
    size = state.n_rho + 40 if size is None else size
    small = size - NESTED
    in_c2 = eq.power == 2  # model B
    u, e_g = 0.5, eq.c2 / eq.eta if in_c2 else 0.0
    for _ in range(100):
        K, G = pencil(eq._replace(c2=eq.c2 - eq.eta * e_g), lam, size)
        sigma, L = _shift_factor(K, G)
        ritz = _ritz(sigma, L, G, state.n_rho)
        e = e_g + ritz
        if not in_c2 or abs(ritz) <= 1e-14 * max(1.0, abs(e)):
            return Level(e, abs(ritz - _ritz(sigma, L[:small, :small], G[:small, :small],
                                             state.n_rho)))
        u_sq = eq.c2 + 0.25 - eq.eta * e
        u = math.sqrt(u_sq) if u_sq > 0 else 0.5 * u
        e_g = (eq.c2 + 0.25 - u * u) / eq.eta
    raise ValueError(f"model B level {state} did not settle in 100 solves")
