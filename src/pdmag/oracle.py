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

The grids span (0, 25/sqrt(W(inf) - Et)] and form a ladder n/4, n/2, n, 2n
(n = n_points), extrapolated in h^2 and h^q, q = min(2p + 1, 4), to the
level and its error (_extrapolate). A level's first eigensolve is a Sturm
bisection; every later one runs Rayleigh-quotient iteration from the level
it expects and keeps the result only when a two-sided Sturm count (one pass
of LAPACK's dlarrc) certifies it to _CERT_TOL, else it bisects.

The physics lives in models.reduced_equation alone: one record per state
and target ('exact', or model C's Greene-Aldrich 'ga') gives Et, the mass
profile g, W0 split as c2/rho^2 + c1/rho + smooth (its split method) and
the tail W(inf) - Et, without which (<= 0) there is no bound spectrum. The
oracle only decides how to discretize, and never calls a closed-form level.

Model B (g = eta/rho^2) puts E into c2(E) = c2 - eta E and so into p: at
a trial energy Eg the grid's p absorbs c2(Eg)/rho^2 and the eigenvalue is
E - Eg. Moving Eg to each new E until the step is at most _FIXED_POINT_TOL
takes about five eigensolves on the ladder's first grid (_level).

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
from .fields import _positive, shape_function
from .models import (
    ModelKind,
    ReducedEquation,
    curvature as closed_form_curvature,
    energy as closed_form_energy,
    reduced_equation,
    wavefunction as closed_form_wavefunction,  # noqa: F401 - hooked by name in perfbench/spans.py
)
from .params import PhysicalParams, QuantumState, m_tilde
from .sweeps import _MAX_POINTS

__all__ = [
    "radial_potential",
    "spectral_target",
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

# An eigenvalue sigma found from a guess is returned once Sturm counts at
# sigma -/+ _CERT_TOL max(1, |sigma|) bracket the wanted index. Finding it
# takes at most _RQ_SOLVES tridiagonal solves, about three on the oracle's
# grids.
_CERT_TOL = 1e-10
_RQ_SOLVES = 5

# Model B's level is settled once a fixed-point step E - Eg is at most this.
_FIXED_POINT_TOL = 1e-8

# The grid ladder stops at n_points cells once its two Richardson values
# agree to this, relative to max(1, |E|); otherwise it solves 2 n_points.
_LADDER_TOL = 1e-6


def _eval_potential(potential, x: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):  # a value that is not finite is rejected below
        w = np.asarray(potential(x), dtype=float)
    if w.ndim == 0:
        w = np.full(x.shape, float(w))
    if w.shape != x.shape:
        raise DomainError("potential must return one value per node")
    if not np.all(np.isfinite(w)):
        raise DomainError("potential must be finite on the grid")
    return w


# ---------------------------------------------------------------------------
# Potentials and spectral targets
# ---------------------------------------------------------------------------


def spectral_target(params: PhysicalParams) -> float:
    """The Et on the right-hand side matching radial_potential's convention.

    At sigma = 1 the constant e^2 B0^2 mu^2 generated by the field terms is
    absorbed into Et = -(kz^2 + e^2 B0^2 mu^2), the et of every
    reduced_equation record; for other sigma it stays rho-dependent and
    only -kz^2 moves across.
    """
    if params.sigma == 1.0:
        return -params.s_squared
    return -params.kz**2


def radial_potential(
    kind: ModelKind, state: QuantumState, params: PhysicalParams, E: float, target: str = "exact"
):
    """Callable W(rho) for the reduced equation at a trial energy E.

    At sigma = 1, W is the potential of models.reduced_equation for the
    target: 'exact', or 'ga' (model C with delta > 0), which replaces every
    1/rho by delta/(1 - e^(-delta rho)), the form whose spectrum the model C
    closed formula reproduces exactly.

    Other sigma values have no closed form and no 'ga' target: there W is
    the field-free reduced equation (B0 = 0) plus the field terms of the
    shape function. Pair with spectral_target for the matching right-hand
    side.
    """
    if params.sigma == 1.0:
        eq = reduced_equation(kind, state, params, target)
        return lambda rho: eq.potential(_positive(rho), E)
    if target == "ga" and kind is ModelKind.C:
        raise DomainError("Greene-Aldrich target requires sigma = 1")
    field_free = reduced_equation(kind, state, params.replace(b0=0.0, sigma=1.0), target)
    mt = m_tilde(state, params)
    e, b0 = params.e, params.b0

    def w(rho):
        rho = np.asarray(rho, dtype=float)
        s = shape_function(rho, params)  # owns rho > 0
        field = -e * mt * b0 * s + (e**2 * b0**2 / 4.0) * rho**2 * s**2
        return field_free.potential(rho, E) + field

    return w


# ---------------------------------------------------------------------------
# Finite-volume discretization of the transformed problem
# ---------------------------------------------------------------------------


def _powint(edges: np.ndarray, q: float) -> np.ndarray:
    """Integral of s^q between consecutive edges, each power taken once."""
    if abs(q + 1.0) < 1e-14:
        return np.log(edges[1:] / edges[:-1])
    return np.diff(edges ** (q + 1.0)) / (q + 1.0)


@dataclass(frozen=True)
class _FVGrid:
    """Cells of the finite-volume scheme for U = rho^p v on (0, rho_max].

    Nodes sit at rho_i = i h, i = 1..n; cell i spans [i - 1/2, i + 1/2] h
    except the origin cell [0, 3/2] h, which carries no flux through
    rho = 0. Cell integrals are kept in units of h, scaled by h^(-2p):
    coul_i and moment_i are the integrals of s^(2p-1) and s^(2p) over the
    cell in s = rho/h. Only powers of rho are integrated exactly.
    """

    p: float
    h: float
    index: np.ndarray
    edges: np.ndarray
    coul: np.ndarray
    moment: np.ndarray

    @classmethod
    def build(cls, p: float, rho_max: float, n_points: int) -> "_FVGrid":
        i = np.arange(1, n_points + 1, dtype=float)
        edges = np.concatenate(([0.0], i + 0.5))  # the n + 1 cell edges
        return cls(
            p=p,
            h=rho_max / n_points,
            index=i,
            edges=edges,
            coul=_powint(edges, 2.0 * p - 1.0),
            moment=_powint(edges, 2.0 * p),
        )

    @property
    def nodes(self) -> np.ndarray:
        return self.index * self.h

    @property
    def mass(self) -> np.ndarray:
        """Cell integral of the weight rho^(2p): the M of the pencil."""
        return self.moment * self.h

    def operator(self, c1: float, smooth=None):
        """(diagonal, off-diagonal) of -(w v')' + w (c1/rho + smooth) v."""
        h = self.h
        aflux = 1.0 / _powint(np.arange(1.0, self.index.size + 2), -2.0 * self.p)  # nodes 1..n+1
        a_left = np.concatenate(([0.0], aflux[:-1]))
        diag = (a_left + aflux) / h + c1 * self.coul
        if smooth is not None:
            diag = diag + _eval_potential(smooth, self.nodes) * self.mass
        return diag, -aflux[:-1] / h

    def weight(self, power: int, g) -> np.ndarray:
        """G_i: the exact cell integral of rho^(2p - power) times rho^power g at its centroid."""
        lower, upper = self.coul, self.mass  # the integrals of rho^(2p - 1) and rho^(2p)
        if power == 2:  # g ~ 1/rho^2: integrate rho^(2p - 2), its centroid needs rho^(2p - 1)
            lower, upper = _powint(self.edges, 2.0 * self.p - 2.0) / self.h, lower
        rho = upper / lower
        return lower * rho**power * g(rho)


def eigh_tridiagonal(d, e, index: int, guess=None):
    """Eigenvalue `index` (from 0) of the symmetric tridiagonal matrix (d, e).

    Without a guess, LAPACK's dstebz bisects the whole Gershgorin interval
    to _EIG_TOL. With one, Rayleigh-quotient iteration from the guess
    (_rayleigh_quotient) gives sigma, returned only when a two-sided Sturm
    count certifies it: one pass of LAPACK's dlarrc (_sturm_counts) finds
    exactly `index` eigenvalues at or below sigma - h and index + 1 at or
    below sigma + h, h = _CERT_TOL max(1, |sigma|), so the wanted
    eigenvalue lies within h of sigma. Any other outcome falls back to the
    bisection: a guess changes the cost, never which eigenvalue is returned.

    The first call loads scipy.linalg's _flapack extension alone
    (_linalg_extension), so importing pdmag loads numpy alone. _pencil looks
    this name up at call time, so it can be replaced on the module (timing
    hooks, tests).
    """
    lapack = _linalg_extension("_flapack")
    if len(d) == 1:  # the LAPACK wrappers take no empty off-diagonal
        return float(d[0])
    if guess is not None:
        sigma = _rayleigh_quotient(lapack, d, e, guess)
        h = _CERT_TOL * max(1.0, abs(sigma))
        if math.isfinite(sigma) and _sturm_counts(d, e, sigma - h, sigma + h) == (index, index + 1):
            return sigma
    # range 2 selects by index, 1-based, from il = index + 1 to iu = index + 1
    _, w, _, _, info = lapack.dstebz(d, e, 2, 0.0, 0.0, index + 1, index + 1, _EIG_TOL, "E")
    if info:
        raise np.linalg.LinAlgError(
            f"stebz (eigh_tridiagonal) did not converge (LAPACK info={info})"
        )
    return float(w[0])


def _rayleigh_quotient(lapack, d, e, guess: float) -> float:
    """Eigenvalue near `guess` by Rayleigh-quotient iteration, or nan.

    One inverse-iteration solve at shift = guess turns a vector of ones
    towards the eigenvector; then each solve x = (T - sigma)^-1 y moves
    sigma to the Rayleigh quotient x^T T x / x^T x. sigma is settled once
    a step is below a tenth of the certificate's half-width (convergence is
    cubic, so it is then exact to rounding) or a pivot is zero; nan when
    _RQ_SOLVES solves do not settle it.
    """
    x, sigma = np.ones(len(d)), guess
    with np.errstate(all="ignore"):  # a value that is not finite fails the certificate
        for k in range(_RQ_SOLVES):
            y = x / math.sqrt(x @ x)
            *_, x, info = lapack.dgtsv(e, d - sigma, e, y)
            if info:  # a zero pivot: sigma is an eigenvalue to rounding
                return float(sigma)
            if k:
                step = float(x @ y / (x @ x))
                sigma += step
                if abs(step) <= 0.1 * _CERT_TOL * max(1.0, abs(sigma)):
                    return float(sigma)
    return math.nan


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


def _pencil(diag, off, weight, index: int, guess=None):
    """Eigenvalue `index` of the tridiagonal pencil (diag, off) v = lam weight v.

    Scaled by weight^(-1/2) to a symmetric tridiagonal problem and solved by
    eigh_tridiagonal, from `guess` when its result is certified.
    """
    d = np.sqrt(weight)
    a = diag / weight
    b = off / (d[:-1] * d[1:])
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("finite-volume pencil must be finite on the grid")
    try:
        return eigh_tridiagonal(a, b, index, guess)
    except np.linalg.LinAlgError as err:
        raise DomainError(f"the pencil's tridiagonal eigensolve did not converge: {err}") from None


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


class OracleLevel(NamedTuple):
    """A level from the oracle and the estimate of its error (_extrapolate):
    |R23 - R12| for the three-grid fit, |R23 - E3| for the pair value."""

    energy: float
    error: float


def _extrapolate(sizes, levels, q: float) -> OracleLevel | None:
    """The level from the last three `levels`, solved on the first rungs of
    the ladder `sizes`, or None while the ladder goes on.

    R12 = (r^2 E2 - E1)/(r^2 - 1), r = n2/n1, and R23 (s = n3/n2) are the
    order-2 Richardson values of the two pairs. They differ by the h^q
    term, which one more step cancels: the fit E* + a h^2 + b h^q, with the
    error |R23 - R12|, stops the ladder once settled to _LADDER_TOL. On the
    last rung the fit and R23 (error |R23 - E3|) compete, so that a level
    still far from its asymptotic range keeps the plain step.
    """
    if len(levels) < 3:
        return None
    (n1, n2, n3), (e1, e2, e3) = sizes[len(levels) - 3:len(levels)], levels[-3:]
    r, s = n2 / n1, n3 / n2
    r12, r23 = (r * r * e2 - e1) / (r * r - 1.0), (s * s * e3 - e2) / (s * s - 1.0)
    # (R12 - E*)/(R23 - E*) is s^q times the ratio of the pairs' h^q shares,
    # 2^q when both halve h; at q = 2 both vanish, and any f but 1 keeps E*
    share_r, share_s = ((x * x - x**q) / (x * x - 1.0) for x in (r, s))
    f = s**q * (share_r / share_s if share_s else 1.0)
    fit = OracleLevel((f * r23 - r12) / (f - 1.0), abs(r23 - r12))
    if len(levels) < len(sizes):
        return fit if fit.error <= _LADDER_TOL * max(1.0, abs(fit.energy)) else None
    return min(fit, OracleLevel(r23, abs(r23 - e3)), key=lambda level: level.error)


def _level(eq: ReducedEquation, state, n_points) -> OracleLevel:
    """Level n_rho on the grid ladder n/4, n/2, n, 2n (n = n_points), as far as it goes.

    On each grid the level is the fixed point E = Eg + lam(Eg) of the
    weighted pencil. At a trial energy Eg the grid's p = 1/2 + u,
    u = sqrt(c2(Eg) + 1/4), absorbs c2(Eg)/rho^2, and lam is the pencil
    eigenvalue. In models A and C, c2 does not depend on E, so Eg = 0 and
    one solve is the level. In model B one step is exact in the continuum
    and only the scheme's dependence on p is left, so the iteration settles
    in a few solves. It starts at p = 1 (Eg = c2/eta), not at p(0) >= 1,
    whose v ~ rho^(p* - p) is singular at the origin for a level with a
    smaller p*; an iterate at or past the fall-to-center threshold
    c2(E) = -1/4 halves u instead.

    The fixed point runs on the ladder's first grid, whose first solve is
    the level's one full bisection; if model B has no level there, the
    ladder starts at n/2. Every finer grid keeps that grid's p and Eg and
    takes the level of the grid before it as its guess. Each grid's
    pencil follows one rule (eq.split, _FVGrid.weight) for every model.
    """
    c2, c1, smooth = eq.split()
    et, rho_max = eq.et, 25.0 / math.sqrt(eq.tail)
    eta = eq.eta if eq.power == 2 else 0.0  # E's share of the centrifugal strength
    if not eta and c2 + 0.25 < 0:
        raise BoundStateError(
            f"fall to center: centrifugal strength c2 = {c2} is below -1/4, no lowest level"
        )

    def solve(n: int, u: float, e_g: float, guess=None) -> float:
        grid = _FVGrid.build(0.5 + u, rho_max, n)
        diag, off = grid.operator(c1, smooth)
        weight = grid.weight(eq.power, eq.mass)
        return e_g + _pencil(diag - et * grid.mass, off, weight, state.n_rho, guess)

    def fixed_point(n: int):
        u, e_g = (0.5, c2 / eta) if eta else (math.sqrt(c2 + 0.25), 0.0)
        guess = None  # the first solve bisects the whole interval
        for _ in range(100):
            e = solve(n, u, e_g, guess)
            if not eta or abs(e - e_g) <= _FIXED_POINT_TOL:
                return e, u, e_g
            u_sq = c2 + 0.25 - eta * e
            if u_sq > 0:
                u, e_g = math.sqrt(u_sq), e
            else:
                u *= 0.5
                e_g = (c2 + 0.25 - u * u) / eta
                if u * u <= eta * _FIXED_POINT_TOL:  # the threshold is within the tolerance
                    raise BoundStateError(
                        f"model B has no level n_rho = {state.n_rho} (m = {state.m}) "
                        "above the fall-to-center threshold on this grid"
                    )
            guess = 0.0  # E - Eg: the next level is near the last one
        raise DomainError(
            f"model B level {state} did not settle to tol = {_FIXED_POINT_TOL} in 100 solves"
        )

    sizes = [n_points // 4, n_points // 2, n_points, 2 * n_points]
    try:
        e, u, e_g = fixed_point(sizes[0])
    except BoundStateError:
        del sizes[0]
        e, u, e_g = fixed_point(sizes[0])
    q = min(2.0 * u + 2.0, 4.0)  # q = 2p + 1, at most 4
    levels = [e]
    while (level := _extrapolate(sizes, levels, q)) is None:
        levels.append(solve(sizes[len(levels)], u, e_g, levels[-1] - e_g))  # near the last level
    return level


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
    its tail W(inf) - Et is positive. Returns OracleLevel(energy, error)
    from _level's grids on (0, 25/sqrt(W(inf) - Et)] at the record's Et:
    n_points // 4, n_points // 2 and n_points cells, the coarsest of which
    must hold the level, and 2 n_points too when the fit of the first three
    levels is not settled to _LADDER_TOL (_extrapolate). So n_points is the
    finest grid of a settled level and half the finest of any other.
    """
    eq = reduced_equation(kind, state, params, target)
    if not isinstance(n_points, int) or isinstance(n_points, bool) or n_points < 1:
        raise DomainError(f"n_points must be a positive integer, got {n_points!r}")
    if n_points > _MAX_POINTS // 2:  # the ladder's finest grid has 2 n_points cells
        raise DomainError(f"n_points must be at most {_MAX_POINTS // 2} (2 n_points cells on the "
                          f"finest grid), got {n_points}")
    if state.n_rho >= n_points // 4:
        raise DomainError(f"n_rho = {state.n_rho} exceeds n_points // 4 - 1 = "
                          f"{n_points // 4 - 1}, the highest level the coarsest grid holds")
    if not eq.tail > 0:
        raise BoundStateError(f"no bound spectrum: W(inf) - Et = {eq.tail} must be positive "
                              "for a decaying tail")
    with np.errstate(all="ignore"):  # _pencil rejects a pencil that is not finite
        return _level(eq, state, n_points)


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
