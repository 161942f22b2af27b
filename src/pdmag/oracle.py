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
W0. Interface fluxes and power-law cell moments are integrated exactly,
which keeps the power-law behaviour at the origin from degrading the
second order of convergence. G is diagonal, so each grid costs one
symmetric tridiagonal eigensolve. Solving on n and 2n cells and taking one
Richardson step gives the level together with an estimate of its own
error.

The split of W0 into c2/rho^2 + c1/rho + a smooth part, and the mass
profile g, come from models.reduced_equation, the one definition of the
reduced equation; the oracle only decides how to discretize it, and never
calls a closed-form level.

Model B (g = eta/rho^2) puts E into c2 and so into p. There one pencil
solve of the E = 0 split gives the start, and a safeguarded Newton
iteration on F(E) = eig_n(E) - Et, with the Hellmann-Feynman slope
-eta <rho^-2> taken from the eigenvector, takes it to the root (about five
eigensolves a level).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import BoundStateError, BracketingError, DomainError
from .fields import shape_function
from .models import (
    ModelKind,
    ReducedEquation,
    effective_potential,
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

    target 'exact' uses the true effective potential. target 'ga' replaces
    every 1/rho by delta/(1 - e^(-delta rho)), the form whose spectrum the
    model C closed formula reproduces exactly; it needs model C with
    delta > 0. Both read models.reduced_equation.

    Other sigma values have no closed form: there W is the field-free
    reduced equation (B0 = 0) plus the field terms of the shape function.
    Pair with spectral_target for the matching right-hand side.
    """
    _check_target(kind, params, target)
    if target == "ga":
        eq = reduced_equation(kind, state, params)
        return lambda rho: eq.potential(np.asarray(rho, dtype=float), E, "ga")
    if params.sigma == 1.0:
        return lambda rho: effective_potential(rho, kind, state, params, E)

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


def _powint(a, b, q: float):
    """Integral of s^q on [a, b], elementwise in the bounds."""
    if abs(q + 1.0) < 1e-14:
        return np.log(b / a)
    return (b ** (q + 1.0) - a ** (q + 1.0)) / (q + 1.0)


@dataclass(frozen=True)
class _FVGrid:
    """Cells of the finite-volume scheme for U = rho^p v on (0, rho_max].

    Nodes sit at rho_i = i h, i = 1..n; cell i spans [i - 1/2, i + 1/2] h
    except the origin cell [0, 3/2] h, which carries no flux through
    rho = 0. Cell integrals are kept in units of h, scaled by h^(-2p):
    coul_i and moment_i are the integrals of s^(2p-1) and s^(2p) over the
    cell in s = rho/h.
    """

    p: float
    h: float
    index: np.ndarray
    cell_lo: np.ndarray
    cell_hi: np.ndarray
    coul: np.ndarray
    moment: np.ndarray

    @classmethod
    def build(cls, p: float, rho_max: float, n_points: int) -> "_FVGrid":
        i = np.arange(1, n_points + 1, dtype=float)
        cell_lo = np.where(i == 1.0, 0.0, i - 0.5)
        cell_hi = i + 0.5
        twop = 2.0 * p
        return cls(
            p=p,
            h=rho_max / n_points,
            index=i,
            cell_lo=cell_lo,
            cell_hi=cell_hi,
            coul=_powint(cell_lo, cell_hi, twop - 1.0),
            moment=_powint(cell_lo, cell_hi, twop),
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
        i, h = self.index, self.h
        aflux = 1.0 / _powint(i, i + 1.0, -2.0 * self.p)
        a_left = np.concatenate(([0.0], aflux[:-1]))
        diag = (a_left + aflux) / h + c1 * self.coul
        if smooth is not None:
            diag = diag + _eval_potential(smooth, self.nodes) * self.mass
        return diag, -aflux[:-1] / h

    def centroid(self) -> np.ndarray:
        """rho-bar_i: centroid of the weight rho^(2p-1) over cell i."""
        return self.h * self.moment / self.coul


def _pencil(diag, off, weight, index: int, with_vector: bool = False):
    """Eigenvalue `index` of the tridiagonal pencil (diag, off) v = lam weight v.

    Scaled by weight^(-1/2) to a symmetric tridiagonal problem and solved by
    bisection with Sturm counts. With with_vector=True also returns the
    scaled eigenvector y = weight^(1/2) v, normalized to sum(y^2) = 1.
    """
    d = np.sqrt(weight)
    a = diag / weight
    b = off / (d[:-1] * d[1:])
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("finite-volume pencil must be finite on the grid")
    try:
        found = eigh_tridiagonal(
            a, b, eigvals_only=not with_vector, select="i",
            select_range=(index, index), tol=_EIG_TOL,
        )
    except np.linalg.LinAlgError as err:
        raise DomainError(f"the pencil's tridiagonal eigensolve did not converge: {err}") from None
    if with_vector:
        vals, vecs = found
        return float(vals[0]), vecs[:, 0]
    return float(found[0])


# ---------------------------------------------------------------------------
# The reduced equation split for the scheme
# ---------------------------------------------------------------------------


def _split(eq: ReducedEquation, target: str):
    """W0 = W(rho; E = 0) as c2/rho^2 + c1/rho + smooth(rho), the form the
    scheme integrates; the -g(rho) E term is left to the caller.

    For target 'ga', delta/(1 - e^(-delta rho)) = 1/rho + delta t(delta rho)
    with t = _t_hat bounded, so its square adds delta c2 to the 1/rho term
    and leaves the rest smooth.
    """
    if target == "exact":  # without a Yukawa term, models A and B have no smooth part
        return eq.c2, eq.c1, eq.smooth if eq.b0 or eq.v0 else None
    c2, c1, d = eq.c2, eq.c1, eq.delta

    def smooth(rho):
        t = _t_hat(d * rho)
        return c2 * (2.0 * d * (t - 0.5) / rho + (d * t) ** 2) + c1 * d * t + eq.smooth(rho, "ga")

    return c2, c1 + d * c2, smooth


def _t_hat(x):
    """1/(1 - e^(-x)) - 1/x, the smooth part of the Greene-Aldrich surrogate.

    Tends to 1/2 at 0; the series branch avoids the 0/0 cancellation.
    """
    x = np.asarray(x, dtype=float)
    small = x < 1e-3
    xs = np.where(small, 1.0, x)
    direct = (xs + np.expm1(-xs)) / (xs * (-np.expm1(-xs)))
    series = 0.5 + x / 12.0 - x**3 / 720.0 + x**5 / 30240.0
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


class OracleLevel(NamedTuple):
    """A level from the oracle and the estimate |E_2n - E_n|/3 of its error."""

    energy: float
    error: float


def _richardson(e_coarse: float, e_fine: float) -> OracleLevel:
    # The scheme converges at second order, so one halving step of
    # Richardson extrapolation cancels the leading error term.
    shift = (e_fine - e_coarse) / 3.0
    return OracleLevel(e_fine + shift, abs(shift))


def _linear_level(kind, state, params, target, et, rho_max, n_points, refine) -> OracleLevel:
    """Models A and C: E enters only as -E g with g ~ 1/rho."""
    eq = reduced_equation(kind, state, params)
    c2, c1, smooth = _split(eq, target)
    if c2 + 0.25 < 0:
        raise BoundStateError(
            f"fall to center: centrifugal strength c2 = {c2} is below -1/4, no lowest level"
        )
    p = 0.5 + math.sqrt(c2 + 0.25)

    def solve(n: int) -> float:
        grid = _FVGrid.build(p, rho_max, n)
        diag, off = grid.operator(c1, smooth)
        rho = grid.centroid()  # G_i: g rho at the centroid times the cell integral coul_i
        weight = grid.coul * rho * eq.mass(rho, target)
        return _pencil(diag - et * grid.mass, off, weight, state.n_rho)

    e_coarse = solve(n_points)
    if not refine:
        return OracleLevel(e_coarse, math.nan)
    return _richardson(e_coarse, solve(2 * n_points))


def _inverse_square(grid: _FVGrid) -> np.ndarray:
    """Cell integrals of rho^(2p-2) in the units of _FVGrid.mass."""
    return _powint(grid.cell_lo, grid.cell_hi, 2.0 * grid.p - 2.0) / grid.h


def _model_b_start(c2_0, c1, smooth, eta, et, rho_max, n_points, index) -> float:
    """Pencil estimate of the model B level from the E = 0 split.

    Solved in U = rho v (p = 1), where the whole c2(E)/rho^2 =
    (c2(0) - eta E)/rho^2 stays in the equation and the E term has weight
    eta/rho^2. Freezing p at p(0) >= 1 instead leaves v ~ rho^(p* - p(0))
    singular at the origin whenever the level has a smaller p*, and the
    start can then land on the wrong level.
    """
    grid = _FVGrid.build(1.0, rho_max, n_points)
    diag, off = grid.operator(c1, smooth)
    inv_sq = _inverse_square(grid)
    return _pencil(diag + c2_0 * inv_sq - et * grid.mass, off, eta * inv_sq, index)


def _model_b_level(state, params, et, rho_max, n_points, tol, refine) -> OracleLevel:
    """Model B: safeguarded Newton on F(E) = eig_n(E) - Et.

    E sits in c2(E) = c2(0) - eta E, so the iteration runs in
    u = p - 1/2 = sqrt(c2(E) + 1/4), which keeps F smooth up to the
    fall-to-center threshold u = 0 where dF/dE diverges. F increases with
    u; by Hellmann-Feynman dF/dE = -eta <rho^-2>, so dF/du = 2 u <rho^-2>.
    The safeguard (lo, hi) holds the iterates with F < 0 and F > 0 seen
    so far, starting from (0, inf); a Newton step that leaves it is
    replaced by bisection.
    """
    c2_0, c1, smooth = _split(reduced_equation(ModelKind.B, state, params), "exact")
    eta = params.eta
    u_sq_0 = c2_0 + 0.25  # E = (u_sq_0 - u^2) / eta

    def f_and_slope(u: float, n: int, with_slope: bool = True):
        grid = _FVGrid.build(0.5 + u, rho_max, n)
        diag, off = grid.operator(c1, smooth)
        if not with_slope:
            return _pencil(diag, off, grid.mass, state.n_rho) - et, None
        val, y = _pencil(diag, off, grid.mass, state.n_rho, with_vector=True)
        return val - et, 2.0 * u * float(np.sum(y * y * _inverse_square(grid) / grid.mass))

    e_start = _model_b_start(c2_0, c1, smooth, eta, et, rho_max, n_points, state.n_rho)
    u = math.sqrt(abs(u_sq_0 - eta * e_start))  # a start past the threshold is mirrored back

    lo, hi = 0.0, math.inf
    f_lo = f_hi = None
    for _ in range(100):
        if not lo < u < hi:
            u = 0.5 * (lo + hi) if hi < math.inf else lo + 1.0
        f, slope = f_and_slope(u, n_points)
        if f < 0:
            lo, f_lo = u, f
        else:
            hi, f_hi = u, f
        usable = math.isfinite(slope) and slope > 0
        if (hi - lo) * (hi + lo) <= eta * tol:  # safeguard narrower than tol in E
            if f_lo is None:
                raise BoundStateError(
                    f"model B has no level n_rho = {state.n_rho} (m = {state.m}) "
                    "above the fall-to-center threshold on this grid"
                )
            break
        if not usable:
            u = math.nan  # forces a bisection step
            continue
        step = -f / slope
        u += step
        if lo < u < hi and abs(step * (2.0 * u - step)) <= eta * tol:  # |E step| <= tol
            break
    else:
        usable = False
    if not usable:
        raise BracketingError(
            f"Newton iteration for model B state (n_rho={state.n_rho}, m={state.m}) "
            "did not converge",
            f_lo=f_lo,
            f_hi=f_hi,
        )
    e_coarse = (u_sq_0 - u * u) / eta
    if not refine:
        return OracleLevel(e_coarse, math.nan)
    # One more solve on the halved spacing; the fine-grid root is one
    # Newton step away from the coarse one.
    f_fine, _ = f_and_slope(u, 2 * n_points, with_slope=False)
    u_fine = u - f_fine / slope
    return _richardson(e_coarse, (u_sq_0 - u_fine * u_fine) / eta)


def oracle_energy(
    kind: ModelKind,
    state: QuantumState,
    params: PhysicalParams,
    *,
    tol: float = 1e-8,
    n_points: int = 4000,
    rho_max: float | None = None,
    target: str = "exact",
    refine: bool = True,
) -> OracleLevel:
    """Level n_rho of the reduced equation, found without a starting guess.

    Returns OracleLevel(energy, error). Models A and C take one pencil
    eigensolve on n_points cells and one on 2 n_points cells; model B
    iterates Newton on n_points cells until the step is below tol, then
    adds one solve on 2 n_points cells. refine=True extrapolates the two
    grids (Richardson) and reports |E_2n - E_n|/3 as the error;
    refine=False returns the n_points level with error NaN (unknown).
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
    if rho_max is None:
        rho_max = 25.0 / math.sqrt(-et)
    with np.errstate(all="ignore"):  # _pencil rejects a pencil that is not finite
        if kind is ModelKind.B:
            return _model_b_level(state, params, et, rho_max, n_points, tol, refine)
        return _linear_level(kind, state, params, target, et, rho_max, n_points, refine)


# ---------------------------------------------------------------------------
# Residuals and node counts
# ---------------------------------------------------------------------------


def residual(f, potential, e_tilde_target: float, rho_points=None) -> float:
    """Max-norm residual of -U'' + W U - Et U, scaled by max|U|.

    f is checked pointwise with five-point fourth-order stencils at a
    relative step of 1e-3, on rho_points (default: 4000 points spanning
    [0.05, 30]).
    """
    if rho_points is None:
        rho_points = np.linspace(0.05, 30.0, 4000)
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
    if target is None:
        target = "ga" if kind is ModelKind.C else "exact"
    rows: list[VerifyRow] = []
    skipped: list[tuple[QuantumState, str]] = []
    check_points = np.linspace(0.05, 30.0, 4000)
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
        res = residual(u, w, e_tilde(params), rho_points=check_points)
        nodes = node_count(np.asarray(u(check_points)))
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
