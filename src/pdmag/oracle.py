"""Independent numerical checks for the closed-form results.

The energy enters the reduced radial equation only through -g(rho) E, with
a mass profile g > 0:

    -U'' + W0(rho) U - E g(rho) U = Et U,   Et = -(kz^2 + e^2 B0^2 mu^2).

So at the fixed target Et every level is an eigenvalue of the symmetric-
definite Sturm-Liouville pencil (H0 - Et M) v = E G v with weight g, level
n_rho the one with n_rho nodes, and no root-find in E is needed.

The pencil is discretized by finite volumes on U = rho^p v, with
p = 1/2 + sqrt(c2 + 1/4) from the c2/rho^2 part of W0. Only the singular
powers are integrated exactly (the fluxes, c1/rho and rho^(2p - power) of a
weight g ~ rho^(-power)), so the power law at the origin keeps the second
order of convergence. G is diagonal: each grid costs one symmetric
tridiagonal eigensolve.

The oracle solves the record in canonical units (oracle_energy): rho in
decay lengths 1/kappa, kappa^2 = W(inf) - Et, and eta = 1, so a level and
its error estimate do not depend on the units of eta or of 1/rho, and
E = lam kappa^(2 - power) / eta. There one function (_rung) assembles and
solves each grid's pencil. The grids span 25 decay lengths, (0, 25], and
form a ladder of m, 2m, 4m and 8m cells (m = n_points // 4), extrapolated
in h^2 and h^q, q = min(2p + 1, 4), to the level and its error
(_extrapolate). Every eigensolve of a level runs Rayleigh-quotient
iteration and keeps the result only when a two-sided Sturm count (one pass
of LAPACK's dlarrc) certifies it to _CERT_TOL, else it bisects the whole
matrix (eigh_tridiagonal). The first solve takes its guess from a coarse
bisection of the leading half of its matrix; every later one starts from
the level it expects and from the last solve's eigenvector (_level).

The physics lives in models.reduced_equation alone: one record per state
and target ('exact', or model C's Greene-Aldrich 'ga') gives Et, the mass
profile g, W0 split as c2/rho^2 + c1/rho + smooth (its split method) and
the tail W(inf) - Et, without which (<= 0) there is no bound spectrum. The
oracle only decides how to discretize, and never calls a closed-form level.

Model B (g = eta/rho^2) puts E into c2(E) = c2 - eta E and so into p: at
a trial energy Eg the grid's p absorbs c2(Eg)/rho^2 and the eigenvalue is
E - Eg. Moving Eg to each new E until the step in eta E is at most
_FIXED_POINT_TOL takes about five eigensolves on the ladder's first grid
(_level).

verify_states checks each closed form on its own, apart from the oracle:
models.curvature evaluates U and its exact U'' on the Gauss nodes of the
form's own polynomial, where the sign changes of U (node_count) are
exactly its zeros, and residual measures -U'' + (W - Et) U there, with W
and Et from the reduced_equation record the oracle reads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BoundStateError, DomainError
from .models import (
    ModelKind,
    ReducedEquation,
    curvature as closed_form_curvature,
    energy as closed_form_energy,
    reduced_equation,
    wavefunction as closed_form_wavefunction,  # noqa: F401 - hooked by name in perfbench/spans.py
)
from .params import _MAX_POINTS, PhysicalParams, QuantumState

__all__ = [
    "OracleLevel",
    "oracle_energy",
    "residual",
    "node_count",
    "VerifyRow",
    "verify_states",
]

# Absolute tolerance of the tridiagonal eigensolves. LAPACK's default,
# eps times the 1-norm of the matrix, is far too loose for model C, whose
# weight falls to ~1e-12 at the far end of the grid and so makes the
# scaled matrix huge there while the wanted eigenvalues stay of order one.
_EIG_TOL = 1e-14

# The absolute tolerance of the leading-half bisection that gives a level's
# first eigensolve its guess (eigh_tridiagonal); Rayleigh-quotient iteration
# takes the guess the rest of the way.
_HALF_TOL = 1e-3

# An eigenvalue sigma found from a guess is returned once Sturm counts at
# sigma -/+ _CERT_TOL max(1, |sigma|) bracket the wanted index. Finding it
# takes at most _RQ_SOLVES tridiagonal solves: about 3.3 from a level's
# first guess and a vector of ones, 2.3 from a warm start vector.
_CERT_TOL = 1e-10
_RQ_SOLVES = 5

# Model B's level is settled once a fixed-point step E - Eg is at most this.
_FIXED_POINT_TOL = 1e-8

# The grid ladder stops at 4m cells once its two Richardson values agree
# to this, relative to max(1, |E|); otherwise it solves 8m (_level).
_LADDER_TOL = 1e-6


def _eval_potential(potential, x: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):  # a value that is not finite is rejected below
        w = np.broadcast_to(np.asarray(potential(x), dtype=float), x.shape)  # a constant too
    if not np.all(np.isfinite(w)):
        raise DomainError("potential must be finite on the grid")
    return w


# ---------------------------------------------------------------------------
# Finite-volume discretization of the transformed problem
# ---------------------------------------------------------------------------


def _powint(edges: np.ndarray, q: float) -> np.ndarray:
    """Integral of s^q between consecutive edges, each power taken once."""
    if abs(q + 1.0) < 1e-14:
        return np.log(edges[1:] / edges[:-1])
    return np.diff(edges ** (q + 1.0)) / (q + 1.0)


def eigh_tridiagonal(d, e, index: int, guess=None, start=None):
    """Eigenvalue `index` (from 0) of the symmetric tridiagonal matrix (d, e)
    and its unit eigenvector, or None for the vector when the full
    bisection found the value.

    Rayleigh-quotient iteration (_rayleigh_quotient) from the shift `guess`
    and the vector `start` (a vector of ones without one) gives sigma,
    returned only when a two-sided Sturm count certifies it: one pass of
    LAPACK's dlarrc (_sturm_counts) finds exactly `index` eigenvalues at or
    below sigma - h and index + 1 at or below sigma + h,
    h = _CERT_TOL max(1, |sigma|), so the wanted eigenvalue lies within h of
    sigma. Without a guess, the shift is eigenvalue `index` of the leading
    half of (d, e), bisected by LAPACK's dstebz to _HALF_TOL; by Cauchy
    interlacing it lies at or above the wanted one. On the oracle's pencils
    the far cells left out are the ones of tiny weight, whose huge entries
    widen the Gershgorin interval that a bisection of the whole matrix
    spends its passes on. Any other outcome falls back to dstebz over the
    whole interval to _EIG_TOL: a guess or a start vector changes the cost,
    never which eigenvalue is returned.

    The first call loads scipy.linalg's _flapack extension alone
    (_linalg_extension), so importing pdmag loads numpy alone. _rung looks
    this name up at call time, so it can be replaced on the module (timing
    hooks, tests).
    """
    lapack = _linalg_extension("_flapack")
    if len(d) == 1:  # the LAPACK wrappers take no empty off-diagonal
        return float(d[0]), np.ones(1)
    half = len(d) // 2
    if guess is None and 1 < half and index < half:  # a half of one entry has no off-diagonal
        guess = _bisect(lapack, d[:half], e[:half - 1], index, _HALF_TOL)
    if guess is not None:
        sigma, vector = _rayleigh_quotient(lapack, d, e, guess, start)
        h = _CERT_TOL * max(1.0, abs(sigma))
        if math.isfinite(sigma) and _sturm_counts(d, e, sigma - h, sigma + h) == (index, index + 1):
            return sigma, vector
    return _bisect(lapack, d, e, index, _EIG_TOL), None


def _bisect(lapack, d, e, index: int, tol: float) -> float:
    """Eigenvalue `index` of (d, e) by dstebz's bisection to the absolute tolerance tol."""
    # range 2 selects by index, 1-based, from il = index + 1 to iu = index + 1
    _, w, _, _, info = lapack.dstebz(d, e, 2, 0.0, 0.0, index + 1, index + 1, tol, "E")
    if info:
        raise np.linalg.LinAlgError(
            f"stebz (eigh_tridiagonal) did not converge (LAPACK info={info})"
        )
    return float(w[0])


def _rayleigh_quotient(lapack, d, e, guess: float, start=None):
    """(sigma, x): an eigenvalue near `guess` and its unit eigenvector, by
    Rayleigh-quotient iteration, or (nan, None).

    Each solve x = (T - sigma)^-1 y, y the last vector normalized
    (`start` at first), moves sigma to the Rayleigh quotient
    x^T T x / x^T x. Without a start vector the first solve, from a vector
    of ones at shift = guess, only turns the vector towards the
    eigenvector. sigma is settled once a step is below a tenth of the
    certificate's half-width or a pivot is zero; nan when _RQ_SOLVES
    solves do not settle it. Convergence is cubic, so a settled sigma is
    exact to rounding at the scale of the matrix's entries, about
    1/h^2 = 1e5 on the oracle's 8000-cell grids, not at that of sigma: it
    can differ from dstebz's bisection to _EIG_TOL by up to about
    1.5e-11 max(1, |sigma|). The bound that the certificate guarantees for
    a kept sigma is _CERT_TOL max(1, |sigma|) (eigh_tridiagonal).
    """
    x, sigma = (np.ones(len(d)) if start is None else start), guess
    with np.errstate(all="ignore"):  # a value that is not finite fails the certificate
        for k in range(_RQ_SOLVES):
            y = x / math.sqrt(x @ x)
            *_, x, info = lapack.dgtsv(e, d - sigma, e, y)
            if info:  # a zero pivot: sigma is an eigenvalue to rounding
                return float(sigma), y
            if k or start is not None:
                step = float(x @ y / (x @ x))
                sigma += step
                if abs(step) <= 0.1 * _CERT_TOL * max(1.0, abs(sigma)):
                    return float(sigma), x / math.sqrt(x @ x)
    return math.nan, None


@functools.cache
def _linalg_extension(name: str):
    """The extension module `name` of scipy's linalg directory, loaded from
    its file, so that the scipy.linalg package, which imports scipy's
    array-API layer, is never initialized for the three LAPACK routines the
    oracle calls. The module is entered in sys.modules under its own name,
    so a later import of scipy.linalg finds the same object."""
    import importlib.machinery as machinery
    import importlib.util
    import os
    import sys

    scipy = importlib.util.find_spec("scipy")  # finds the package without importing it
    directory = os.path.join(scipy.submodule_search_locations[0], "linalg")
    loaders = (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES)
    spec = machinery.FileFinder(directory, loaders).find_spec(f"scipy.linalg.{name}")
    if spec is None:
        raise ImportError(f"no extension module {name} in {directory}", name=f"scipy.linalg.{name}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@functools.cache
def _dlarrc():
    """LAPACK's dlarrc, which scipy.linalg.lapack does not wrap, bound once
    by ctypes from the function table of scipy.linalg's cython_lapack
    extension (_linalg_extension)."""
    import ctypes

    capsule = _linalg_extension("cython_lapack").__pyx_capi__["dlarrc"]
    api, obj, char_p, void_p = ctypes.pythonapi, ctypes.py_object, ctypes.c_char_p, ctypes.c_void_p
    name = ctypes.PYFUNCTYPE(char_p, obj)(("PyCapsule_GetName", api))(capsule)
    address = ctypes.PYFUNCTYPE(void_p, obj, char_p)(("PyCapsule_GetPointer", api))(capsule, name)
    int_p, double_p = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
    # (jobt, n, vl, vu, d, e, pivmin, eigcnt, lcnt, rcnt, info)
    return ctypes.CFUNCTYPE(None, char_p, int_p, double_p, double_p, void_p, void_p, double_p,
                            int_p, int_p, int_p, int_p)(address)


def _sturm_counts(d, e, lo: float, hi: float) -> tuple[int, int]:
    """The numbers of eigenvalues at or below lo and at or below hi, from
    one pass of dlarrc over the two Sturm sequences of (d, e).

    dlarrc's tridiagonal count has no pivot guard: a pivot of exactly +0
    counts itself and turns the next into -inf, so a point t that makes
    one (for instance t equal to a diagonal entry whose couplings are below
    its ulp) counts one eigenvalue too many.
    """
    import ctypes

    d = np.ascontiguousarray(d, dtype=float)
    e = np.ascontiguousarray(e, dtype=float)
    if e.size < d.size - 1:  # dlarrc reads n - 1 off-diagonal entries
        raise ValueError(f"{d.size} diagonal entries need {d.size - 1} off-diagonal ones, "
                         f"got {e.size}")
    counts = [ctypes.c_int() for _ in range(4)]  # eigcnt, lcnt, rcnt, info
    _dlarrc()(b"T", ctypes.c_int(len(d)), ctypes.c_double(lo), ctypes.c_double(hi), d.ctypes.data,
              e.ctypes.data, ctypes.c_double(0.0), *counts)
    return counts[1].value, counts[2].value


def _cell_integrals(n: int, p: float, power: int):
    """The singular-power integrals of a grid of n cells, in s = rho/h:
    coul and moment, those of s^(2p-1) and s^(2p) over each cell; aflux,
    one over that of s^(-2p) between consecutive nodes 1..n+1; and for
    power 2 inverse_square, that of s^(2p-2) over each cell (else None).

    They do not depend on h, and the cells of a coarser grid are the first
    ones of a finer grid with the same edges in s, so a rung of k <= n
    cells takes the first k entries of each: the same numbers it would
    compute itself.
    """
    edges = np.concatenate(([0.0], np.arange(1, n + 1, dtype=float) + 0.5))  # the n + 1 cell edges
    coul, moment = _powint(edges, 2.0 * p - 1.0), _powint(edges, 2.0 * p)
    aflux = 1.0 / _powint(np.arange(1.0, n + 2), -2.0 * p)  # nodes 1..n+1
    inverse_square = _powint(edges, 2.0 * p - 2.0) if power == 2 else None
    return coul, moment, aflux, inverse_square


def _rung(n: int, p: float, rho_max: float, c1: float, smooth, mass, power: int, et: float,
          index: int, guess=None, start=None, integrals=None):
    """(lam, y): eigenvalue `index` of one rung's pencil (H - et M) v =
    lam G v for U = rho^p v on n cells of (0, rho_max], H v = -(w v')' +
    w (c1/rho + smooth) v with w = rho^(2p), and G the weight of g = mass,
    g ~ rho^(-power), with y = G^(1/2) v its unit eigenvector (None when
    the full bisection found lam).

    Nodes sit at rho_i = i h, i = 1..n; cell i spans [i - 1/2, i + 1/2] h
    except the origin cell [0, 3/2] h, which carries no flux through
    rho = 0. Cell integrals are kept in units of h, scaled by h^(-2p), and
    only powers of rho are integrated exactly (_cell_integrals, of this
    grid or the first n cells of `integrals` from a finer one): G_i is the
    exact cell integral of rho^(2p - power) times rho^power g at its
    centroid. The pencil is scaled by G^(-1/2) to a symmetric tridiagonal
    problem and solved by eigh_tridiagonal, from `guess` and the start
    vector `start` when its result is certified.
    """
    h = rho_max / n
    i = np.arange(1, n + 1, dtype=float)
    if integrals is None:
        integrals = _cell_integrals(n, p, power)
    coul, moment, aflux, inverse_square = integrals
    coul, moment, aflux = coul[:n], moment[:n], aflux[:n]
    cell = moment * h  # the cell integral of rho^(2p): the M of the pencil
    diag = (np.concatenate(([0.0], aflux[:-1])) + aflux) / h + c1 * coul
    if smooth is not None:
        diag = diag + _eval_potential(smooth, i * h) * cell
    lower, upper = coul, cell  # the integrals of rho^(2p - 1) and rho^(2p)
    if power == 2:  # g ~ 1/rho^2: integrate rho^(2p - 2), its centroid needs rho^(2p - 1)
        lower, upper = inverse_square[:n] / h, lower
    rho = upper / lower
    weight = lower * rho**power * mass(rho)
    d = np.sqrt(weight)
    a = (diag - et * cell) / weight
    b = -aflux[:-1] / h / (d[:-1] * d[1:])
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("finite-volume pencil must be finite on the grid")
    try:
        return eigh_tridiagonal(a, b, index, guess, start)
    except np.linalg.LinAlgError as err:
        raise DomainError(f"the pencil's tridiagonal eigensolve did not converge: {err}") from None


def _prolong(y: np.ndarray) -> np.ndarray:
    """y on the nodes i h, i = 1..n, interpolated linearly to the nodes
    i h/2, i = 1..2n of the grid of twice the cells (y = 0 at the origin)."""
    fine = np.empty(2 * len(y))
    fine[1::2] = y
    fine[0::2] = 0.5 * (np.concatenate(([0.0], y[:-1])) + y)
    return fine


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


class OracleLevel(NamedTuple):
    """A level from the oracle and the estimate of its error (_extrapolate):
    |R23 - R12| for the three-grid fit, |R23 - E3| for the pair value."""

    energy: float
    error: float


def _extrapolate(levels, q: float, last: bool) -> OracleLevel | None:
    """The level from the last three `levels`, each on twice the cells of
    the one before, or None while the ladder goes on (`last`: it has no
    finer rung).

    R12 = (4 E2 - E1)/3 and R23 = (4 E3 - E2)/3, the order-2 Richardson
    values of the two pairs, differ by the h^q term: R12 - E* is 2^q times
    R23 - E*. The fit E* + a h^2 + b h^q, with the error |R23 - R12|,
    stops the ladder once settled to _LADDER_TOL. On the last rung the fit
    and R23 (error |R23 - E3|) compete, so that a level still far from its
    asymptotic range keeps the plain step.
    """
    if len(levels) < 3:
        return None
    e1, e2, e3 = levels[-3:]
    r12, r23, f = (4.0 * e2 - e1) / 3.0, (4.0 * e3 - e2) / 3.0, 2.0**q
    fit = OracleLevel((f * r23 - r12) / (f - 1.0), abs(r23 - r12))
    if not last:
        return fit if fit.error <= _LADDER_TOL * max(1.0, abs(fit.energy)) else None
    return min(fit, OracleLevel(r23, abs(r23 - e3)), key=lambda level: level.error)


def _level(eq: ReducedEquation, state, n_points) -> OracleLevel:
    """Level n_rho of a record in canonical units (eta = 1, W(inf) - Et = 1,
    see oracle_energy) on the grid ladder of m, 2m, 4m and 8m cells
    (m = n_points // 4) over (0, 25], 25 decay lengths, as far as it goes.

    On each grid the level is the fixed point E = Eg + lam(Eg) of the
    weighted pencil. At a trial energy Eg the grid's p = 1/2 + u,
    u = sqrt(c2(Eg) + 1/4), absorbs c2(Eg)/rho^2, and lam is the pencil
    eigenvalue. In models A and C, c2 does not depend on E, so Eg = 0 and
    one solve is the level. In model B, c2(E) = c2 - E: one step is exact
    in the continuum and only the scheme's dependence on p is left, so the
    iteration settles in a few solves. It starts at p = 1 (Eg = c2), not
    at p(0) >= 1, whose v ~ rho^(p* - p) is singular at the origin for a
    level with a smaller p*; an iterate at or past the fall-to-center
    threshold c2(E) = -1/4 halves u instead.

    The fixed point runs on the ladder's first grid, whose first solve
    guesses from the leading half of its matrix (eigh_tridiagonal); if
    model B has no level there, the ladder starts at 2m. Every later solve
    starts warm: its guess is the level it expects and its start vector the
    last solve's eigenvector, as it is on the fixed point's grid and
    prolonged (_prolong) to the next rung's twice the cells. Every finer
    grid keeps the first grid's p and Eg. The cell integrals of that p are
    computed once, on the finest grid, and each rung takes its leading
    cells (_cell_integrals); model B's trial p's build their own on the
    fixed point's grid. Each grid's pencil follows one rule (eq.split,
    _rung) for every model.
    """
    c2, c1, smooth = eq.split()
    in_c2 = eq.power == 2  # model B: the level enters the centrifugal strength
    if not in_c2 and c2 + 0.25 < 0:
        raise BoundStateError(
            f"fall to center: centrifugal strength c2 = {c2} is below -1/4, no lowest level"
        )

    u0, e_g0 = (0.5, c2) if in_c2 else (math.sqrt(c2 + 0.25), 0.0)  # model B starts at p = 1

    def solve(n: int, u: float, e_g: float, guess, start, integrals):
        value, vector = _rung(n, 0.5 + u, 25.0, c1, smooth, eq.mass, eq.power, eq.et, state.n_rho,
                              guess, start, integrals)
        return e_g + value, vector

    def fixed_point(n: int, integrals):
        u, e_g = u0, e_g0
        guess = vector = None  # the first solve guesses from the leading half
        for _ in range(100):
            e, vector = solve(n, u, e_g, guess, vector, integrals)
            if not in_c2 or abs(e - e_g) <= _FIXED_POINT_TOL:
                return e, vector, u, e_g
            u_sq = c2 + 0.25 - e
            if u_sq > 0:
                u, e_g = math.sqrt(u_sq), e
            else:
                u *= 0.5
                e_g = c2 + 0.25 - u * u
                if u * u <= _FIXED_POINT_TOL:  # the threshold is within the tolerance
                    raise BoundStateError(
                        f"model B has no level n_rho = {state.n_rho} (m = {state.m}) "
                        "above the fall-to-center threshold on this grid"
                    )
            guess = 0.0  # E - Eg: the next level is near the last one
        raise DomainError(
            f"model B level {state} did not settle to tol = {_FIXED_POINT_TOL} in 100 solves"
        )

    n = n_points // 4  # m, the first rung's cells
    finest = 8 * n
    # the cell integrals of the level's p on the finest grid; model B's
    # trial p's build their own on the fixed point's grid
    shared = None if in_c2 else _cell_integrals(finest, 0.5 + u0, eq.power)
    try:
        e, vector, u, e_g = fixed_point(n, shared)
    except BoundStateError:
        n *= 2
        e, vector, u, e_g = fixed_point(n, shared)
    if shared is None:
        shared = _cell_integrals(finest, 0.5 + u, eq.power)
    q = min(2.0 * u + 2.0, 4.0)  # q = 2p + 1, at most 4
    levels = [e]
    while (level := _extrapolate(levels, q, last=n == finest)) is None:
        n *= 2
        start = None if vector is None else _prolong(vector)  # the last grid's eigenvector
        e, vector = solve(n, u, e_g, levels[-1] - e_g, start, shared)  # near the last level
        levels.append(e)
    return level


def _check_n_points(n_points) -> None:
    """oracle_energy's rules for n_points, which verify_states also checks
    before its first state."""
    if not isinstance(n_points, int) or isinstance(n_points, bool) or n_points < 1:
        raise DomainError(f"n_points must be a positive integer, got {n_points!r}")
    if n_points > _MAX_POINTS // 2:  # the ladder's finest grid has up to 2 n_points cells
        raise DomainError(f"n_points must be at most {_MAX_POINTS // 2} (2 n_points cells on the "
                          f"finest grid), got {n_points}")


def oracle_energy(
    kind: ModelKind,
    state: QuantumState,
    params: PhysicalParams,
    *,
    n_points: int = 4000,
    target: str = "exact",
) -> OracleLevel:
    """Level n_rho of the reduced equation, found without a starting guess.

    The equation is models.reduced_equation(kind, state, params, target),
    built once; it rejects sigma != 1 (the singular split exists only
    there) and a target other than 'exact' and 'ga' (model C with
    delta > 0), and it has no bound spectrum (BoundStateError) unless
    its tail W(inf) - Et = kappa^2 is positive.

    The record is rescaled to canonical units, where W(inf) - Et = 1 and
    eta = 1: c1/kappa, b0/kappa^2, v0/kappa, delta/kappa, decay/kappa and
    Et/kappa^2, with c2 and power unchanged. _level's grids there span 25
    decay lengths, (0, 25]: m = n_points // 4, 2m and 4m cells, the
    coarsest of which must hold the level, and 8m too when the fit of the
    first three levels is not settled to _LADDER_TOL (_extrapolate). So
    n_points rounds down to a multiple of 4, 4m, the finest grid of a
    settled level and half the finest of any other. Returns
    OracleLevel(energy, error) from the canonical level lam and its error,
    each times kappa^(2 - power) / eta.
    """
    eq = reduced_equation(kind, state, params, target)
    _check_n_points(n_points)
    if state.n_rho >= n_points // 4:
        raise DomainError(f"n_rho = {state.n_rho} exceeds n_points // 4 - 1 = "
                          f"{n_points // 4 - 1}, the highest level the coarsest grid holds")
    if not eq.tail > 0:
        raise BoundStateError(f"no bound spectrum: W(inf) - Et = {eq.tail} must be positive "
                              "for a decaying tail")
    kappa = math.sqrt(eq.tail)  # the decay rate of U, the unit of 1/rho
    unit = eq._replace(c1=eq.c1 / kappa, b0=eq.b0 / eq.tail, v0=eq.v0 / kappa,
                       delta=eq.delta / kappa, decay=eq.decay / kappa, eta=1.0,
                       et=eq.et / eq.tail)
    with np.errstate(all="ignore"):  # _rung rejects a pencil that is not finite
        level = _level(unit, state, n_points)
    scale = kappa ** (2 - eq.power) / eq.eta
    return OracleLevel(level.energy * scale, level.error * scale)


# ---------------------------------------------------------------------------
# Residuals and node counts
# ---------------------------------------------------------------------------


def residual(u, u_second, w, e_tilde_target: float) -> float:
    """Max-norm residual of -U'' + (W - Et) U, scaled by max|U|.

    u, u_second and w are U, its second derivative and W on the same
    points. With the exact U'' of models.curvature the residual of a
    correct closed form is rounding, about 1e-13, and a wrong exponent or
    coefficient shows up in proportion to its error.
    """
    u = np.asarray(u, dtype=float)
    res = -np.asarray(u_second, dtype=float) + (np.asarray(w, dtype=float) - e_tilde_target) * u
    return float(np.max(np.abs(res)) / np.max(np.abs(u)))


def node_count(f) -> int:
    """Number of strict sign changes, ignoring exact zeros: on a form's own
    Gauss nodes (models.curvature) U = A P_n with A > 0, so each nonzero
    entry has the sign of P_n however far below max|U| it lies."""
    signs = np.sign(np.asarray(f, dtype=float))
    signs = signs[signs != 0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


# ---------------------------------------------------------------------------
# Closed-form vs oracle comparison (drives the verify CLI)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyRow:
    """One state's comparison. oracle_err is the oracle's own error estimate
    (NaN when unknown), so an abs_err near it is oracle-limited."""

    state: QuantumState
    e_closed: float
    e_oracle: float
    abs_err: float
    residual: float
    nodes: int
    oracle_err: float = math.nan


def verify_states(
    kind: ModelKind,
    states,
    params: PhysicalParams,
    n_points: int = 4000,
    target: str | None = None,
):
    """Compare closed-form levels against the oracle, state by state.

    Returns (rows, skipped): one VerifyRow per bound state, and
    (state, reason) pairs for states without a bound level. Model C is
    checked against the Greene-Aldrich form by default since that is the
    equation its closed formula solves exactly; pass target='exact' to
    measure the approximation error instead. The oracle never sees the
    closed-form level it is compared with.
    """
    if kind is ModelKind.C and params.delta == 0:
        raise DomainError("model C at delta = 0 is model A's equation (acceptance "
                          "criterion 4): verify it with --model a, or take --delta > 0")
    if target is None:
        target = "ga" if kind is ModelKind.C else "exact"
    reduced_equation(kind, QuantumState(0, 0), params, target)  # the record's rules, checked once
    _check_n_points(n_points)  # here too, so that a run whose every state is skipped checks it
    rows: list[VerifyRow] = []
    skipped: list[tuple[QuantumState, str]] = []
    for state in states:
        try:
            e_closed = closed_form_energy(kind, state, params)
        except DomainError as err:
            skipped.append((state, str(err)))
            continue
        eq = reduced_equation(kind, state, params, target)
        e_oracle, oracle_err = oracle_energy(
            kind, state, params, n_points=n_points, target=target
        )
        rho, u, upp = closed_form_curvature(kind, state, params)
        w = _eval_potential(lambda x: eq.potential(x, e_closed), rho)
        res = residual(u, upp, w, eq.et)
        nodes = node_count(u)
        rows.append(
            VerifyRow(
                state=state,
                e_closed=e_closed,
                e_oracle=e_oracle,
                abs_err=abs(e_closed - e_oracle),
                residual=res,
                nodes=nodes,
                oracle_err=oracle_err,
            )
        )
    return rows, skipped
