"""Closed-form spectra and wavefunctions for three solvable mass profiles.

All closed forms assume the sigma = 1 field profile. Units follow the
convention hbar = 2 m0 = 1 throughout, so energies carry no extra
prefactors.

Profile tags:
    A: g = eta / rho            (V = 0)
    B: g = eta / rho^2          (V = 0)
    C: g = eta exp(-delta rho) / rho, optionally with the
       Yukawa-plus-Kratzer confinement V(rho).

Each model reduces to one radial equation -U'' + W U = Et U, whose
coefficients come from one table (reduced_equation), which the oracle
reads. The record also carries its target: the exact equation, or model C's
Greene-Aldrich form and its singular split. Each closed-form wavefunction
takes its exponents from its own level kernel.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from functools import lru_cache, partial
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .errors import BoundStateError, DomainError
from .fields import _positive
from .params import (_MAX_POINTS, _NON_NEGATIVE, PhysicalParams, QuantumState, m_tilde,
                     s_squared_of)
from .specfun import _golub_welsch, _jacobi_matrix, _laguerre_matrix, jacobi, laguerre, normalize

__all__ = [
    "ModelKind",
    "GreeneAldrich",
    "ReducedEquation",
    "reduced_equation",
    "greene_aldrich",
    "energy",
    "level_axis",
    "Invalid",
    "reason_text",
    "SWEEPABLE",
    "wavefunction",
    "curvature",
]

# The fields a parameter axis (level_axis, and the sweeps built on it) may vary.
SWEEPABLE = ("beta", "b0", "alpha_ab", "mu", "delta")


def _check_sweepable(name: str) -> None:
    if name not in SWEEPABLE:
        raise DomainError(f"cannot sweep {name!r}; choose one of {', '.join(SWEEPABLE)}")


class ModelKind(enum.Enum):
    """Which position-dependent-mass profile is in force."""

    A = "A"
    B = "B"
    C = "C"

    @classmethod
    def parse(cls, text: str) -> "ModelKind":
        try:
            return cls(text.strip().upper())
        except ValueError:
            raise DomainError(f"unknown model {text!r}; expected one of A, B, C") from None


def _w(state: QuantumState, params: PhysicalParams) -> float:
    """Shifted magnetic quantum number m_tilde - e B0 beta / 2 (state and
    one field of params may hold arrays, see level_axis)."""
    return m_tilde(state, params) - params.e * params.b0 * params.beta / 2.0


def _coulomb(state: QuantumState, params: PhysicalParams) -> float:
    """Strength 2 e m_tilde B0 mu - e^2 B0^2 mu beta of the field's attractive
    1/rho term (beta_acute of model B)."""
    e, b0, mu = params.e, params.b0, params.mu
    return 2.0 * e * m_tilde(state, params) * b0 * mu - (e * e) * (b0 * b0) * mu * params.beta


def _check_ga_delta(delta) -> None:
    """The Greene-Aldrich surrogate delta/(1 - e^(-delta rho)) needs delta > 0."""
    if np.any(np.asarray(delta) <= 0):
        raise DomainError("Greene-Aldrich target requires delta > 0")


def _inverse_rho(rho, delta, target: str):
    """1/rho, or for target 'ga' its Greene-Aldrich surrogate delta/(1 - e^(-delta rho))."""
    if target == "ga":
        return delta / (-np.expm1(-delta * rho))
    return 1.0 / rho


# ---------------------------------------------------------------------------
# The reduced radial equation: one coefficient table for the three models
# ---------------------------------------------------------------------------

# Mass profile g = eta e^(-k rho) / rho^power of each model as
# (power, whether k = delta; otherwise k = 0).
_MASS = {ModelKind.A: (1, False), ModelKind.B: (2, False), ModelKind.C: (1, True)}


class ReducedEquation(NamedTuple):
    """The reduced radial equation -U'' + W(rho; E) U = Et U of one state at
    sigma = 1, Et = -(kz^2 + e^2 B0^2 mu^2), split as

        W = c2/rho^2 + c1/rho + b0 + v0 (1 - e^(-delta rho))/rho - E g(rho),
        g = eta e^(-decay rho) / rho^power.

    c2, c1 and b0 collect the field, the confining potential
    V = -v0 e^(-delta rho)/rho - v1/rho + v2/rho^2 and the mass bracket.
    With target 'ga' every 1/rho reads as delta/(1 - e^(-delta rho)), the
    Greene-Aldrich form whose spectrum model C's closed form solves exactly;
    smooth, mass, potential, split and tail all follow the record's target.
    """

    c2: float
    c1: float
    b0: float
    v0: float
    delta: float
    eta: float
    power: int
    decay: float
    target: str
    et: float

    def smooth(self, rho):
        """b0 + v0 (1 - e^(-delta rho))/rho, the part of W(rho; 0) bounded at 0."""
        if not self.v0:
            return self.b0
        r = _inverse_rho(rho, self.delta, self.target)
        return self.b0 + self.v0 * -np.expm1(-self.delta * rho) * r

    def mass(self, rho):
        """The mass profile g(rho), which multiplies -E."""
        g = self.eta * _inverse_rho(rho, self.delta, self.target) ** self.power
        return g * np.exp(-self.decay * rho) if self.decay else g

    def potential(self, rho, E: float):
        """W(rho; E) at rho > 0 (fields._positive)."""
        rho = _positive(rho)
        r = _inverse_rho(rho, self.delta, self.target)
        return self.c2 * r * r + self.c1 * r + self.smooth(rho) - E * self.mass(rho)

    def split(self):
        """(c2, c1, smooth) with W(rho; 0) = c2/rho^2 + c1/rho + smooth(rho),
        the form the oracle's scheme integrates; smooth is None for target
        'exact' when b0 = v0 = 0 (models A and B without a Yukawa term).

        For 'ga', delta/(1 - e^(-delta rho)) = 1/rho + delta/2 + O(rho) adds
        delta c2 to c1; smooth is W less both singular terms, which rounds
        at about eps |c2|/i^2 of the scheme's diagonal entry i.
        """
        if self.target == "exact":
            return self.c2, self.c1, self.smooth if self.b0 or self.v0 else None
        c2, c1 = self.c2, self.c1 + self.delta * self.c2
        return c2, c1, lambda rho: self.potential(rho, 0.0) - c2 / rho**2 - c1 / rho

    @property
    def tail(self) -> float:
        """W(inf) - Et, the squared decay rate of a bound U (model C's r0 for 'ga')."""
        if self.target == "exact":
            return self.b0 - self.et
        d = self.delta
        return self.c2 * d * d + self.c1 * d + self.b0 + self.v0 * d - self.et


def reduced_equation(
    kind: ModelKind, state: QuantumState, params: PhysicalParams, target: str = "exact"
):
    """The reduced radial equation of one state, for target 'exact' or 'ga'.

    c2 = w^2 + b2 - 1/4 + v2 and c1 = -(2 e mt B0 mu - e^2 B0^2 mu beta) + b1 - v1 - v0,
    summed in this order so that model C's a1 and a2 keep their bits. The
    mass bracket b2/rho^2 + b1/rho + b0 = (5/16)(g'/g)^2 - (1/4)(g''/g) - (1/4)(g'/g)/rho
    of g ~ e^(-k rho)/rho^power is b2 = power^2/16, b1 = k (power + 2)/8,
    b0 = k^2/16: (1/16, 0, 0) for A, (1/4, 0, 0) for B and
    (1/16, 3 delta/8, delta^2/16) for C. The Greene-Aldrich target 'ga'
    needs model C with delta > 0.
    """
    _raise_invalid(Invalid.SIGMA, params.sigma != 1.0, params.sigma)
    if target not in ("exact", "ga"):
        raise DomainError(f"target must be 'exact' or 'ga', got {target!r}")
    if target == "ga" and kind is not ModelKind.C:
        raise DomainError("Greene-Aldrich target applies to model C only")
    if target == "ga":
        _check_ga_delta(params.delta)
    power, decays = _MASS[kind]
    k = params.delta if decays else 0.0
    w = _w(state, params)
    return ReducedEquation(
        c2=w * w + (power * power / 16.0 - 0.25) + params.v2,
        c1=-_coulomb(state, params) + k * (power + 2) / 8.0 - params.v1 - params.v0,
        b0=k * k / 16.0,
        v0=params.v0,
        delta=params.delta,
        eta=params.eta,
        power=power,
        decay=k,
        target=target,
        et=-params.s_squared,
    )


# ---------------------------------------------------------------------------
# Closed-form levels. Models A and B are the V = 0 models, and A's kernel is
# C's at delta = 0; each kernel is written over a state and params of
# numbers or arrays (see level_axis).
# ---------------------------------------------------------------------------


def _require_no_potential(p, check) -> None:
    if p.v0 or p.v1 or p.v2:  # floats on a parameter axis too: they are not sweepable
        check(Invalid.POTENTIAL, True, (p.v0, p.v1, p.v2))


def _level_a(state: QuantumState, p, check):
    """Level kernel of model A, the g = eta/rho profile (V = 0): model C's
    at delta = 0, where E = (1/eta)[beta mu e^2 B0^2 - 2 e mt B0 mu
    + 2 s (n + 1/2 + |ell_tilde|)] and the parts (sqrt(r0), G) are
    (s, |ell_tilde|), s = sqrt(kz^2 + e^2 B0^2 mu^2)."""
    _require_no_potential(p, check)
    s2 = s_squared_of(p)
    check(Invalid.NO_SCALE, s2 <= 0, s2)
    return _level_c(state, p, check, 0.0)


def _level_b(state: QuantumState, p, check):
    """Level kernel of model B, the g = eta/rho^2 profile (V = 0); returns
    (E, (s, |ell_acute|)) with E = (1/eta)[w^2 + 1/4 - ell_acute^2],
    ell_acute = t - n - 1/2 and t = beta_acute/(2 s) = e B0 mu w/s. The
    state is bound iff ell_acute > 0. As w^2 - t^2 = (kz w/s)^2 and
    t^2 - ell_acute^2 = (n + 1/2)(t + ell_acute), E is a sum of
    non-negative terms, which nothing cancels at any |m|.
    """
    _require_no_potential(p, check)
    s2 = s_squared_of(p)
    check(Invalid.NO_SCALE, s2 <= 0, s2)
    check(Invalid.NOT_FINITE_LEVEL, s2 == math.inf, s2)  # t would read 0 there
    w, s, half = _w(state, p), _sqrt(s2), state.n_rho + 0.5
    s = s + (s == 0)  # NO_SCALE there; a float s of 0 would raise ZeroDivisionError
    t = p.e * p.b0 * p.mu / s * w
    ell = t - half
    check(Invalid.NOT_BOUND, ell <= 0, ell)
    kw = p.kz / s * w
    return (kw * kw + 0.25 + half * (t + ell)) / p.eta, (s, ell)


def _level_c(state: QuantumState, p, check, d):
    """Level kernel of model C, the Yukawa-mass profile with confinement,
    at mass decay rate d (p.delta, or 0 for model A); returns
    (E, (sqrt(r0), G)) with

    E = (1/eta)[(n^2 + n + 1/2) d + (2n + 1) eps1 + eps2 - V0],

    eps1 = sqrt(r0) + d G, eps2 = 2 (sqrt(r0) G - y) - V1,
    G = sqrt(w^2 + V2 + 1/16), y = e B0 mu w - d (w^2 + V2) and the
    radicand r0 = (d w - e B0 mu)^2 + kz^2 + d (d (V2 + 1/4) - V1); both
    radicands must be non-negative, which only V1 > 0 or V2 < -1/4 (r0) and
    V2 < -1/16 (G) can break. sqrt(r0) G - y cancels as |m| grows, so it is
    taken as D/a + (|y| - y), a = sqrt(r0) G + |y|, with D = r0 G^2 - y^2 =
    kz^2 w^2 + s^2 V2 + d (d/4 - V1)(w^2 + V2) + r0/16 and kz^2 w^2/a as
    (kz w)(kz w/a): non-negative terms at V = 0, and at d = 0 each term of
    d or V is an exact 0. An infinite a (w^2 first) would read the
    quotients as 0: it is the level's NOT_FINITE_LEVEL (a nan a makes the
    level nan). a = 0 only where D and |y| - y are 0 too, and reads 1
    there. The roots give the NU exponents kappa = 2 sqrt(r0)/d and
    upsilon = 2 G.
    """
    w = _w(state, p)
    kw, ww = p.kz * w, w * w
    u = p.e * p.b0 * p.mu - d * w  # y = u w - d V2
    r0 = u * u + (p.kz * p.kz + d * (d * (p.v2 + 0.25) - p.v1))
    if p.v1 > 0 or p.v2 < -0.25:  # d >= 0
        check(Invalid.R0_NEGATIVE, r0 < 0, r0)
    g_rad = ww + (p.v2 + 1.0 / 16.0)
    if p.v2 < -1.0 / 16.0:
        check(Invalid.G_NEGATIVE, g_rad < 0, g_rad)
    root, big_g = _sqrt(r0), _sqrt(g_rad)
    y = u * w - d * p.v2
    ay = abs(y)
    a = root * big_g + ay
    check(Invalid.NOT_FINITE_LEVEL, np.isinf(a) if isinstance(a, np.ndarray) else math.isinf(a), a)
    a = a + (a == 0)
    k = d * (d / 4.0 - p.v1)
    diff = kw * (kw / a) + (k * ww + (s_squared_of(p) + k) * p.v2 + r0 / 16.0) / a + (ay - y)
    n = state.n_rho
    base = (n * n + n + 0.5) * d - p.v1 - p.v0
    return (base + 2.0 * ((n + 0.5) * (root + d * big_g) + diff)) / p.eta, (root, big_g)


# ---------------------------------------------------------------------------
# Levels: one kernel for a single point and for a parameter axis
# ---------------------------------------------------------------------------


class Invalid:
    """Codes of level_axis's reason array: why a point has no closed-form
    level (NONE: it has one). Plain ints, cheap to look up in the kernels
    that a single point runs."""

    NONE = 0
    NOT_FINITE = 1  # the swept value is inf or nan
    NEGATIVE = 2  # a swept b0 or delta below 0
    SIGMA = 3  # sigma != 1: no closed form
    NO_SCALE = 4  # kz^2 + e^2 B0^2 mu^2 <= 0 (models A and B)
    NOT_BOUND = 5  # model B: beta_acute/(2 s) - n_rho - 1/2 <= 0
    R0_NEGATIVE = 6  # model C: radicand r0 < 0
    G_NEGATIVE = 7  # model C: radicand w^2 + V2 + 1/16 < 0
    NOT_FINITE_LEVEL = 8  # the level itself overflowed to inf or nan
    POTENTIAL = 9  # models A and B (the V = 0 models): v0, v1 or v2 is not 0


# Per reason: the error a single point raises and the rule's text, which
# a sweep row carries as its reason ({name} is the swept field) and a single
# point raises as "<text>, got <value>". A single point never sees the
# first two: PhysicalParams rejects such a value when it is built.
_INVALID = {
    Invalid.NOT_FINITE: (None, "{name} must be finite"),
    Invalid.NEGATIVE: (None, "{name} must be >= 0"),
    Invalid.SIGMA: (DomainError, "closed-form models require sigma = 1"),
    Invalid.NO_SCALE: (BoundStateError, "no bound spectrum: kz^2 + e^2 B0^2 mu^2 <= 0"),
    Invalid.NOT_BOUND: (BoundStateError, "state not bound: beta_acute/(2 s) - n_rho - 1/2 <= 0"),
    Invalid.R0_NEGATIVE: (DomainError, "no real bound level: radicand r0 < 0"),
    Invalid.G_NEGATIVE: (DomainError, "no real bound level: radicand w^2 + V2 + 1/16 < 0"),
    Invalid.NOT_FINITE_LEVEL: (
        DomainError, "level not finite: a parameter is too large for double precision"),
    Invalid.POTENTIAL: (DomainError, "models A and B need v0 = v1 = v2 = 0; use model C"),
}

_LEVELS = {ModelKind.A: _level_a, ModelKind.B: _level_b,
           ModelKind.C: lambda state, p, check: _level_c(state, p, check, p.delta)}


def reason_text(code: int, name: str) -> str | None:
    """Text of an Invalid code's rule for a sweep row over field name."""
    return _INVALID[code][1].format(name=name) if code else None


def _sqrt(x):
    """Correctly rounded square root of a float or an array, nan below 0 (a
    single point checks its radicands before it takes their roots)."""
    if isinstance(x, np.ndarray) or not x >= 0:
        return np.sqrt(x)
    return math.sqrt(x)


def _raise_invalid(code: int, bad, value) -> None:
    if bad:
        error, text = _INVALID[code]
        raise error(f"{text}, got {value}")


def _level(kind: ModelKind, state: QuantumState, params: PhysicalParams):
    """(E, kernel parts) of one point; raises the first failed condition."""
    _raise_invalid(Invalid.SIGMA, params.sigma != 1.0, params.sigma)
    level, parts = _LEVELS[kind](state, params, _raise_invalid)
    _raise_invalid(Invalid.NOT_FINITE_LEVEL, not math.isfinite(level), level)
    return level, parts


def level_axis(kind: ModelKind, states, params: PhysicalParams, name: str, values):
    """Closed-form levels of k states along one parameter axis.

    params gives every field but name, which takes each of the N values in
    turn. Returns (E, reason): (k, N) float and int8 arrays, row i for
    states[i], reason an Invalid code (0 where the level exists) and E nan
    wherever reason is not 0. The kernel runs once, on (k, 1) int64 columns
    of n_rho and m broadcast against the values (so n_rho^2 + n_rho must
    stay below 2^63), with the arithmetic of a single point, so E[i, j] equals energy(kind,
    states[i], params.replace(name=values[j])) bit for bit wherever that
    succeeds, and reason names the condition it raises on where it does not.
    """
    _check_sweepable(name)
    if any(s.n_rho * (s.n_rho + 1) >= 2**63 or not -(2**63) <= s.m < 2**63 for s in states):
        raise DomainError("a parameter axis takes n_rho^2 + n_rho below 2^63 and m in int64")
    qn = np.array([(s.n_rho, s.m) for s in states], np.int64).reshape(-1, 2, 1)
    values = np.asarray(values, dtype=float)
    reason = np.zeros((len(states), len(values)), dtype=np.int8)

    def record(code: int, bad, value) -> None:
        # most checks fail at no point: skip the masked write then
        if bad.any() if isinstance(bad, np.ndarray) else bad:
            reason[(reason == 0) & bad] = code

    record(Invalid.NOT_FINITE, ~np.isfinite(values), values)
    if name in _NON_NEGATIVE:
        record(Invalid.NEGATIVE, values < 0, values)
    record(Invalid.SIGMA, params.sigma != 1.0, params.sigma)
    point = SimpleNamespace(**{**vars(params), name: values})
    with np.errstate(all="ignore"):
        level, _ = _LEVELS[kind](SimpleNamespace(n_rho=qn[:, 0], m=qn[:, 1]), point, record)
        if level.shape != reason.shape:  # else it is the kernel's own new array
            level = np.array(np.broadcast_to(level, reason.shape))
        record(Invalid.NOT_FINITE_LEVEL, ~np.isfinite(level), level)
    if reason.any():
        level[reason != 0] = np.nan
    return level, reason


# ---------------------------------------------------------------------------
# Wavefunctions: one assembly over a per-model table of closed forms
# ---------------------------------------------------------------------------


class _ClosedForm(NamedTuple):
    """One closed-form radial function U = A(rho) P(t(rho)), up to its norm.

    factor(rho) gives A and t, and poly(t, k) the list [P] for k = 0 or
    [P, P', P''] in t for k = 2, P'' from P's differential equation (DLMF
    18.8.1), which leaves U'' no rounding of its own to cancel. slopes(rho)
    gives g = (ln A)', g', t' and t'', so U'' is exact (curvature). nodes(m)
    is the m-point Gauss rule of P's family mapped to rho. norm holds the
    arguments of specfun.normalize for the integral of U^2. R follows from
    U and the model's mass profile alone (wavefunction).
    """

    factor: Callable
    slopes: Callable
    poly: Callable
    nodes: Callable
    norm: tuple

    def u(self, rho):
        a, t = self.factor(rho)
        return a * self.poly(t, 0)[0]

    def curvature(self, rho):
        """U and U'' = A [(g^2 + g') P + (2 g t' + t'') P' + t'^2 P''] at rho."""
        a, t = self.factor(rho)
        g, dg, dt, ddt = self.slopes(rho)
        p0, p1, p2 = self.poly(t, 2)
        return a * p0, a * ((g * g + dg) * p0 + (2.0 * g * dt + ddt) * p1 + dt * dt * p2)


def _laguerre_form(kind: ModelKind, state: QuantumState, params: PhysicalParams,
                   form: str) -> _ClosedForm:
    """Models A and B: U = rho^p e^(-s rho) L_n^a(2 s rho) with p = ell + 1/2
    and a = 2 ell, s and ell = |ell_tilde| (A) or |ell_acute| (B) from the
    level kernel; in x = 2 s rho, int U^2 drho = (2s)^-(a+2) times the 'laguerre'
    integral."""
    s, ell = _level(kind, state, params)[1]
    n, p, a = state.n_rho, ell + 0.5, 2.0 * ell

    def factor(rho):  # one exp: rho^p alone can overflow where U does not
        return np.exp(p * np.log(rho) - s * rho), 2.0 * s * rho

    def slopes(rho):
        return p / rho - s, -p / rho**2, 2.0 * s, 0.0

    def poly(x, k: int):  # P' = -L_(n-1)^(a+1) (DLMF 18.9.23)
        pn = laguerre(n, a, x)
        if not k:
            return [pn]
        dpn = -laguerre(n - 1, a + 1.0, x) if n else 0.0
        return [pn, dpn, ((x - a - 1.0) * dpn - n * pn) / x]

    def nodes(m):
        return _golub_welsch(*_laguerre_matrix(m, a)) / (2.0 * s)

    norm = ("laguerre", n, a, 0.0, -(a + 2.0) * math.log(2.0 * s))
    return _ClosedForm(factor, slopes, poly, nodes, norm)


def _model_c_form(state: QuantumState, params: PhysicalParams, form: str) -> _ClosedForm:
    """form 'paper': R = N rho^((upsilon-1)/2) e^(-delta rho (1+kappa)/2)
    P_n^(kappa,upsilon)(1 - 2 e^(-delta rho)), with the small-rho matching
    factor delta^((1+upsilon)/2) so the two forms agree as delta rho -> 0;
    form 'xi': U = xi^(kappa/2) (1-xi)^((1+upsilon)/2) P_n^(kappa,upsilon)(1-2xi),
    xi = e^(-delta rho), which solves the approximated equation exactly.
    kappa = 2 sqrt(r0)/delta and upsilon = 2 G come from the level kernel's
    roots (_level_c); delta so small that kappa^2 overflows is a DomainError.
    In x = delta rho, int U^2 drho = 1/delta times the integral named by the
    form. P_n takes y = 1 + z = -2 expm1(-delta rho) and xi^(kappa/2) is
    e^(-delta kappa rho/2), both free of the rounding of xi that
    kappa ~ 1/delta amplifies."""
    if params.delta <= 0:
        raise DomainError(
            "model C wavefunction needs delta > 0; at delta = 0 use model A reduction"
        )
    root, big_g = _level(ModelKind.C, state, params)[1]
    n, d = state.n_rho, params.delta
    kappa, upsilon = 2.0 * root / d, 2.0 * big_g
    if d * d == 0 or not math.isfinite(kappa * kappa):
        raise DomainError(f"kappa = 2 sqrt(r0)/delta overflows: delta = {d} is too small")
    p = 0.5 * (1.0 + upsilon)

    def factor(rho):
        y = -2.0 * np.expm1(-d * rho)
        if form == "xi":
            a = np.exp(-d * kappa * rho / 2.0) * (0.5 * y) ** p
        else:  # np.float64 overflows to inf (a DomainError below), a float raises OverflowError
            a = np.float64(d) ** p * rho**p * np.exp(-d * kappa * rho / 2.0)
        return a, y

    def slopes(rho):
        xi = np.exp(-d * rho)
        if form == "xi":
            q = 1.0 / np.expm1(d * rho)  # xi / (1 - xi)
            g, dg = p * d * q - d * kappa / 2.0, -p * d * d * q * (1.0 + q)
        else:
            g, dg = p / rho - d * kappa / 2.0, -p / rho**2
        return g, dg, 2.0 * d * xi, -2.0 * d * d * xi

    def poly(y, k: int):  # P' = lam/2 P_(n-1)^(kappa+1,upsilon+1) (DLMF 18.9.15)
        pn = jacobi(n, kappa, upsilon, y)
        if not k:
            return [pn]
        lam = n + kappa + upsilon + 1.0
        dpn = 0.5 * lam * jacobi(n - 1, kappa + 1.0, upsilon + 1.0, y) if n else 0.0
        tau = (kappa + upsilon + 2.0) * y - 2.0 * (upsilon + 1.0)
        return [pn, dpn, (tau * dpn - n * lam * pn) / (y * (2.0 - y))]

    def nodes(m):
        return -np.log1p(-0.5 / kappa * _golub_welsch(*_jacobi_matrix(m, kappa, upsilon))) / d

    return _ClosedForm(factor, slopes, poly, nodes, (form, n, kappa, upsilon, -math.log(d)))


_CLOSED_FORMS = {ModelKind.A: partial(_laguerre_form, ModelKind.A),
                 ModelKind.B: partial(_laguerre_form, ModelKind.B), ModelKind.C: _model_c_form}


@lru_cache(maxsize=512)
def _norm(*norm) -> float:
    """normalize(*norm), cached on a form's norm arguments."""
    return normalize(*norm)


def _closed_form(kind: ModelKind, state: QuantumState, params: PhysicalParams, form: str | None):
    """The closed form of a state; form None is model C's eigenfunction 'xi'
    and the one form 'paper' of models A and B."""
    if form is None:
        form = "xi" if kind is ModelKind.C else "paper"
    if form not in ("paper", "xi"):
        raise DomainError(f"form must be 'paper' or 'xi', got {form!r}")
    if form != "paper" and kind is not ModelKind.C:
        raise DomainError(f"form {form!r} applies to model C only")
    if state.n_rho > _MAX_POINTS:  # the polynomial's recurrence takes n_rho steps
        raise DomainError(f"n_rho must be at most {_MAX_POINTS} for a closed-form wavefunction, "
                          f"got {state.n_rho}")
    return _CLOSED_FORMS[kind](state, params, form)


def _peak(out) -> float:
    """max|out| of a normalized table, which must be finite and not 0 at every rho."""
    peak = np.max(np.abs(out), initial=0.0)  # nan or inf if any value is
    if not peak < math.inf:
        raise DomainError("normalized wavefunction is not finite: a parameter is too large")
    if peak == 0 and np.size(out) > 1:  # a table, not one point far in the tail
        raise DomainError("normalized wavefunction table underflows to 0 at every rho")
    return peak


def wavefunction(
    kind: ModelKind,
    state: QuantumState,
    params: PhysicalParams,
    rho,
    *,
    form: str | None = None,
    component: str = "R",
):
    """Closed-form radial function of any model at its quantized energy.

    component 'R' gives the physical radial factor, 'U' the reduced
    function of the -U'' + W U = Et U equation. R = sqrt(g/rho) U with the
    model's mass profile g = eta e^(-k rho)/rho^power (_MASS), that is
    sqrt(eta) e^(-k rho/2) U / rho^((power + 1)/2): sqrt(eta) U/rho for A,
    sqrt(eta) U/rho^(3/2) for B and sqrt(eta) e^(-delta rho/2) U/rho for C.
    form picks model C's closed form: 'xi' (the default), the eigenfunction
    of the Greene-Aldrich equation that its level solves, or 'paper', the
    paper's printed formula, which is not an eigenfunction (its residual is
    5e-3 at delta = 0.01 and grows to order 1 at delta = 0.5). The integral
    of U^2 over (0, inf) is exactly 1; a value that is not finite, or a
    table that is 0 at every rho (a state too narrow for double
    precision), is a DomainError.
    """
    closed = _closed_form(kind, state, params, form)
    if component not in ("R", "U"):
        raise DomainError(f"component must be 'R' or 'U', got {component!r}")
    rho_arr = _positive(rho)
    scale = _norm(*closed.norm)
    with np.errstate(all="ignore"):  # checked below
        u = closed.u(rho_arr)
        if component == "U":
            out = scale * u
        else:
            power, decays = _MASS[kind]
            tail = np.exp(-(params.delta / 2.0) * rho_arr) if decays else 1.0
            out = scale * math.sqrt(params.eta) * tail * u / rho_arr ** ((power + 1) / 2)
    _peak(out)
    return out if np.ndim(rho) else float(out)


def curvature(kind: ModelKind, state: QuantumState, params: PhysicalParams, *,
              form: str | None = None):
    """(rho, U, U'') of the unit-norm reduced function, with U'' exact.

    U'' comes from the form's polynomial and its equation, so -U'' + (W - Et) U
    is zero to rounding wherever U solves its equation. rho is the
    M = 2 n_rho + 16 Gauss nodes of the form's own polynomial family, mapped
    to rho: by the separation theorem (Szego, Orthogonal Polynomials, 3.3)
    each gap between zeros of P_n, and each end, holds one, so U changes sign
    there exactly n_rho times. form and errors as in wavefunction.
    """
    closed = _closed_form(kind, state, params, form)
    # A check evaluates each state once, so its norm bypasses _norm's cache;
    # normalize also rejects a form that does not decay, before its rule.
    scale = normalize(*closed.norm)
    x = closed.nodes(2 * state.n_rho + 16)
    with np.errstate(all="ignore"):  # checked below
        u, upp = closed.curvature(x)
        u, upp = scale * u, scale * upp
    _peak(u)
    _peak(upp)
    return x, u, upp


# ---------------------------------------------------------------------------
# Greene-Aldrich machinery and dispatch helpers
# ---------------------------------------------------------------------------

GreeneAldrich = namedtuple("GreeneAldrich", ["exact", "approx", "rel_err"])


def greene_aldrich(rho, delta):
    """Compare 1/rho against its exponential surrogate delta/(1 - e^(-delta rho)).

    Returns (exact, approx, rel_err) with rel_err = |approx - exact| * rho,
    the error relative to 1/rho (a DomainError where it overflows). Good
    only for delta*rho << 1 (the error grows like delta*rho/2). rho and
    delta must be positive.
    """
    rho_arr = _positive(rho)
    delta_arr = np.asarray(delta, dtype=float)
    _check_ga_delta(delta_arr)
    with np.errstate(all="ignore"):  # a value that is not finite is rejected below
        exact = 1.0 / rho_arr
        approx = _inverse_rho(rho_arr, delta_arr, "ga")
        rel = np.abs(approx - exact) * rho_arr
    if not np.all(np.isfinite(rel)):
        raise DomainError("surrogate error overflows: delta rho is too large for double precision")
    if np.ndim(rho) or np.ndim(delta):
        return GreeneAldrich(exact, approx, rel)
    return GreeneAldrich(float(exact), float(approx), float(rel))


def energy(kind: ModelKind, state: QuantumState, params: PhysicalParams) -> float:
    """Closed-form level of any model (the formulas are in _level_a,
    _level_b and _level_c)."""
    return _level(kind, state, params)[0]
