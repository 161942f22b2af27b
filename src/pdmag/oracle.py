"""Independent numerical checks for the closed-form results.

The energy enters the reduced radial equation only through the term
-g(rho) E, with a mass profile g > 0:

    -U'' + W0(rho) U - E g(rho) U = Et U,   Et = -(kz^2 + e^2 B0^2 mu^2).

At the fixed spectral target Et every level is therefore an eigenvalue of
the symmetric-definite Sturm-Liouville pencil (H0 - Et M) v = E G v with
weight g, and level n_rho is the pencil eigenvalue with n_rho nodes. No
root-find in E is needed.

The pencil is discretized by finite volumes on the transformed problem
U = rho^p v, with p = 1/2 + sqrt(c2 + 1/4) taken from the c2/rho^2 part of
W0. Only the singular powers are integrated exactly (the fluxes, c1/rho
and rho^(2p - power) of a weight g ~ rho^(-power)) and the rest is taken
pointwise, so the power law at the origin keeps the second order of
convergence. G is diagonal, so each grid costs one symmetric tridiagonal
eigensolve.

The grids form a ladder n/4, n/2, n, with n = n_points. Beyond h^2 the
error's next term is h^(2p+1), from the rho^p factor at the origin, so
the three levels are fitted to E* + a h^2 + b h^q with q = min(2p + 1, 4).
When the fit's two Richardson values agree to _LADDER_TOL the fit is the
level and their difference its error; otherwise a fourth grid of 2n
cells is solved and one Richardson step on n and 2n gives the level and
its error, |E_2n - E_n|/3. A level's first eigensolve is a Sturm
bisection. Every later one runs Rayleigh-quotient iteration from the
level it expects (the grid before's, or model B's last trial energy) and
keeps the result only when two Sturm counts certify it as the wanted
eigenvalue to _CERT_TOL; otherwise it falls back to the bisection.

The physics lives in models.reduced_equation alone: W0's coefficients
c2 and c1, its potential (for either target) and the mass profile g. The
smooth part of W0 is that potential less c2/rho^2 and c1/rho; the oracle
only decides how to discretize, and never calls a closed-form level.

Model B (g = eta/rho^2) puts E into c2(E) = c2 - eta E and so into p. It
takes the same pencil: at a trial energy Eg the grid's p absorbs all of
c2(Eg)/rho^2, the weight eta/rho^2 carries the rest, and the eigenvalue
is E - Eg. Starting at p = 1 and moving Eg to each new E until the step
is at most _FIXED_POINT_TOL takes about five eigensolves, all on the
ladder's first grid; the finer grids keep its p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BoundStateError, DomainError
from .fields import shape_function
from .models import (
    ModelKind,
    ReducedEquation,
    _positive,
    energy as closed_form_energy,
    reduced_equation,
    wavefunction as closed_form_wavefunction,
)
from .params import PhysicalParams, QuantumState, e_tilde, m_tilde

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

# The rho points at which residual and verify_states' node count check a
# closed form.
_CHECK_POINTS = np.linspace(0.05, 30.0, 4000)
_CHECK_POINTS.flags.writeable = False


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
    absorbed into Et; for other sigma it stays rho-dependent and only
    -kz^2 moves across.
    """
    if params.sigma == 1.0:
        return e_tilde(params)
    return -params.kz**2


def _check_target(kind: ModelKind, params: PhysicalParams, target: str) -> None:
    """target is 'exact', or 'ga' on model C at sigma = 1 with delta > 0."""
    if target not in ("exact", "ga"):
        raise DomainError(f"target must be 'exact' or 'ga', got {target!r}")
    if target == "ga":
        if kind is not ModelKind.C:
            raise DomainError("Greene-Aldrich target applies to model C only")
        if params.sigma != 1.0:
            raise DomainError("Greene-Aldrich target requires sigma = 1")
        if params.delta <= 0:
            raise DomainError("Greene-Aldrich target requires delta > 0")


def radial_potential(
    kind: ModelKind, state: QuantumState, params: PhysicalParams, E: float, target: str = "exact"
):
    """Callable W(rho) for the reduced equation at a trial energy E.

    At sigma = 1, W is models.reduced_equation's potential. target 'exact'
    uses it as it is. target 'ga' replaces every 1/rho by
    delta/(1 - e^(-delta rho)), the form whose spectrum the model C closed
    formula reproduces exactly; it needs model C with delta > 0.

    Other sigma values have no closed form: there W is the field-free
    reduced equation (B0 = 0) plus the field terms of the shape function.
    Pair with spectral_target for the matching right-hand side.
    """
    _check_target(kind, params, target)
    if params.sigma == 1.0:
        eq = reduced_equation(kind, state, params)
        return lambda rho: eq.potential(_positive(rho), E, target)

    field_free = reduced_equation(kind, state, params.replace(b0=0.0, sigma=1.0))
    mt = m_tilde(state, params)
    e, b0 = params.e, params.b0

    def w(rho):
        rho = np.asarray(rho, dtype=float)
        s = shape_function(rho, params)
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
    (_rayleigh_quotient) gives sigma, returned only when two Sturm counts
    certify it: dstebz over (-inf, t] with an infinite tolerance, so that
    no bisection step runs, finds exactly `index` eigenvalues at or below
    sigma - h and index + 1 at or below sigma + h, h = _CERT_TOL
    max(1, |sigma|), so the wanted eigenvalue lies within h of sigma. Any
    other outcome falls back to the bisection: a guess changes the cost,
    never which eigenvalue is returned.

    scipy.linalg is loaded on the first call, so importing pdmag loads numpy
    alone. _pencil looks this name up at call time, so it can be replaced on
    the module (timing hooks, tests).
    """
    from scipy.linalg import lapack

    if len(d) == 1:  # the LAPACK wrappers take no empty off-diagonal
        return float(d[0])
    if guess is not None:
        sigma = _rayleigh_quotient(lapack, d, e, guess)
        h = _CERT_TOL * max(1.0, abs(sigma))
        if math.isfinite(sigma) and (
            _count(lapack, d, e, sigma - h) == index and _count(lapack, d, e, sigma + h) == index + 1
        ):
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


def _count(lapack, d, e, t: float) -> int:
    """Sturm count: the number of eigenvalues at or below t, -1 on failure."""
    # range 1 selects by value, over (vl, vu] = (-inf, t]
    m, *_, info = lapack.dstebz(d, e, 1, -np.inf, t, 0, 0, np.inf, "E")
    return -1 if info else m


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
# The reduced equation split for the scheme
# ---------------------------------------------------------------------------


def _split(eq: ReducedEquation, target: str):
    """W0 = W(rho; E = 0) as c2/rho^2 + c1/rho + smooth(rho), the form the
    scheme integrates; the -g(rho) E term is left to the caller.

    For target 'ga', delta/(1 - e^(-delta rho)) = 1/rho + delta/2 + O(rho)
    adds delta c2 to the 1/rho term; smooth is eq.potential less both
    singular terms, which rounds at about eps |c2|/i^2 of diagonal entry i.
    """
    if target == "exact":  # without a Yukawa term, models A and B have no smooth part
        return eq.c2, eq.c1, eq.smooth if eq.b0 or eq.v0 else None
    c2, c1 = eq.c2, eq.c1 + eq.delta * eq.c2

    def smooth(rho):
        return eq.potential(rho, 0.0, "ga") - c2 / rho**2 - c1 / rho

    return c2, c1, smooth


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


class OracleLevel(NamedTuple):
    """A level from the oracle and the estimate of its error: |R23 - R12|
    when the grid ladder stops at n_points cells (_ladder_fit), otherwise
    |E_2n - E_n|/3 from the n and 2n grids (_richardson)."""

    energy: float
    error: float


def _richardson(e_coarse: float, e_fine: float) -> OracleLevel:
    """One halving step of Richardson extrapolation at order 2, the
    scheme's leading order; the error is the size of the step,
    |e_fine - e_coarse|/3."""
    shift = (e_fine - e_coarse) / 3.0
    return OracleLevel(e_fine + shift, abs(shift))


def _ladder_fit(e1: float, e2: float, e3: float, q: float) -> OracleLevel:
    """E* + a h^2 + b h^q fitted to the levels on h, h/2 and h/4.

    R12 and R23 are the order-2 Richardson values of the two pairs; they
    differ by the h^q term, which one more step at order q cancels. The
    error is |R23 - R12|, the size of that step times 2^q - 1.
    """
    r12, r23 = (4.0 * e2 - e1) / 3.0, (4.0 * e3 - e2) / 3.0
    f = 2.0**q
    return OracleLevel((f * r23 - r12) / (f - 1.0), abs(r23 - r12))


def _level(kind, state, params, target, et, rho_max, n_points) -> OracleLevel:
    """Level n_rho on the grid ladder n/4, n/2, n (and 2n when needed), n = n_points.

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
    ladder starts one grid finer. Every finer grid keeps that grid's p and
    Eg and takes the level of the grid before it as its guess. Each grid's
    pencil follows one rule (_split, _FVGrid.weight) for every model.
    """
    eq = reduced_equation(kind, state, params)
    c2, c1, smooth = _split(eq, target)
    eta = eq.eta if eq.power == 2 else 0.0  # E's share of the centrifugal strength
    if not eta and c2 + 0.25 < 0:
        raise BoundStateError(
            f"fall to center: centrifugal strength c2 = {c2} is below -1/4, no lowest level"
        )

    def solve(n: int, u: float, e_g: float, guess=None) -> float:
        grid = _FVGrid.build(0.5 + u, rho_max, n)
        diag, off = grid.operator(c1, smooth)
        weight = grid.weight(eq.power, lambda rho: eq.mass(rho, target))
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

    def refine(n: int, e: float) -> float:
        return solve(n, u, e_g, e - e_g)  # the finer level is near e

    ladder = [n_points]
    if n_points % 4 == 0 and n_points // 4 > state.n_rho:
        ladder = [n_points // 4, n_points // 2, n_points]
    for first, n in enumerate(ladder):
        try:
            e, u, e_g = fixed_point(n)
            break
        except BoundStateError:
            if n == n_points:
                raise
    levels = [e]
    for n in ladder[first + 1:]:
        levels.append(refine(n, levels[-1]))
    if len(levels) == 3:
        fit = _ladder_fit(*levels, q=min(2.0 * u + 2.0, 4.0))  # q = 2p + 1, at most 4
        if fit.error <= _LADDER_TOL * max(1.0, abs(fit.energy)):
            return fit
    return _richardson(levels[-1], refine(2 * n_points, levels[-1]))


def oracle_energy(
    kind: ModelKind,
    state: QuantumState,
    params: PhysicalParams,
    *,
    n_points: int = 4000,
    target: str = "exact",
) -> OracleLevel:
    """Level n_rho of the reduced equation, found without a starting guess.

    Returns OracleLevel(energy, error). The grids span (0, 25/sqrt(-Et)]
    and form a ladder of n_points/4, n_points/2 and n_points cells (only
    n_points when it is not a multiple of 4 or n_points/4 cells cannot
    hold the level). Models A and C take one pencil eigensolve per grid;
    model B repeats the solve on the first grid at the last level's p
    until the energy step is at most _FIXED_POINT_TOL, and starts one grid
    finer when that grid has no level. If the fit of the three levels is
    settled to _LADDER_TOL, it is returned with the difference of its two
    Richardson values as the error. Otherwise one more solve on
    2 n_points cells is extrapolated with the n_points one (Richardson)
    and |E_2n - E_n|/3 is the error. So n_points is the finest grid of a
    settled level and half the finest of any other.
    """
    if params.sigma != 1.0:
        raise DomainError(
            f"oracle_energy needs sigma = 1, got sigma = {params.sigma}: the "
            "singular split of the reduced equation exists only there"
        )
    _check_target(kind, params, target)
    if not isinstance(n_points, int) or isinstance(n_points, bool) or n_points < 1:
        raise DomainError(f"n_points must be a positive integer, got {n_points!r}")
    if state.n_rho >= n_points:
        raise DomainError(f"n_rho = {state.n_rho} exceeds the {n_points} grid cells")
    et = e_tilde(params)
    if not et < 0:
        raise BoundStateError(
            "no bound spectrum: kz^2 + e^2 B0^2 mu^2 must be positive for a decaying tail"
        )
    with np.errstate(all="ignore"):  # _pencil rejects a pencil that is not finite
        return _level(kind, state, params, target, et, 25.0 / math.sqrt(-et), n_points)


# ---------------------------------------------------------------------------
# Residuals and node counts
# ---------------------------------------------------------------------------


def residual(f, potential, e_tilde_target: float, rho_points=_CHECK_POINTS) -> float:
    """Max-norm residual of -U'' + W U - Et U, scaled by max|U|.

    f is checked pointwise with five-point fourth-order stencils at a
    relative step of 1e-3, on rho_points (default: 4000 points spanning
    [0.05, 30]).
    """
    x = np.asarray(rho_points, dtype=float)
    if np.any(x <= 0):
        raise DomainError("rho_points must be positive")
    h = 1e-3 * x
    u0 = np.asarray(f(x), dtype=float)
    upp = (
        -np.asarray(f(x - 2 * h), dtype=float)
        + 16.0 * np.asarray(f(x - h), dtype=float)
        - 30.0 * u0
        + 16.0 * np.asarray(f(x + h), dtype=float)
        - np.asarray(f(x + 2 * h), dtype=float)
    ) / (12.0 * h**2)
    w = _eval_potential(potential, x)
    res = -upp + (w - e_tilde_target) * u0
    return float(np.max(np.abs(res)) / np.max(np.abs(u0)))


def node_count(f) -> int:
    """Number of strict sign changes, ignoring entries below 1e-12 max|f|."""
    v = np.asarray(f, dtype=float)
    vmax = np.max(np.abs(v))
    kept = v[np.abs(v) > 1e-12 * vmax]
    if kept.size < 2:
        return 0
    signs = np.sign(kept)
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
    rows: list[VerifyRow] = []
    skipped: list[tuple[QuantumState, str]] = []
    for state in states:
        try:
            e_closed = closed_form_energy(kind, state, params)
        except DomainError as err:
            skipped.append((state, str(err)))
            continue
        e_oracle, oracle_err = oracle_energy(
            kind, state, params, n_points=n_points, target=target
        )
        wf_kwargs = {"component": "U"}
        if kind is ModelKind.C:
            wf_kwargs["form"] = "xi"

        def u(rho, _state=state, _kw=wf_kwargs):
            return closed_form_wavefunction(kind, _state, params, rho, **_kw)

        w = radial_potential(kind, state, params, e_closed, target=target)
        res = residual(u, w, e_tilde(params))
        nodes = node_count(np.asarray(u(_CHECK_POINTS)))
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
