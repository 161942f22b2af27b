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
coefficients come from one table (reduced_equation); effective_potential,
the oracle and model_c_coefficients all read it.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .errors import BoundStateError, DomainError
from .nu import NUCoefficients
from .params import PhysicalParams, QuantumState, m_tilde, s_squared_of
from .specfun import jacobi, laguerre, normalize

__all__ = [
    "ModelKind",
    "ModelCCore",
    "GreeneAldrich",
    "ReducedEquation",
    "reduced_equation",
    "effective_potential",
    "model_a_energy",
    "model_b_energy",
    "model_c_coefficients",
    "model_c_energy",
    "greene_aldrich",
    "energy",
    "level_axis",
    "Invalid",
    "reason_text",
    "SWEEPABLE",
    "wavefunction",
]

# The fields a parameter axis (level_axis, and the sweeps built on it) may vary.
SWEEPABLE = ("beta", "b0", "alpha_ab", "mu", "delta")


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


def _require_sigma_one(params: PhysicalParams) -> None:
    _raise_invalid(Invalid.SIGMA, params.sigma != 1.0, params.sigma)


def _w(state: QuantumState, params: PhysicalParams) -> float:
    """Shifted magnetic quantum number m_tilde - e B0 beta / 2 (params may
    hold an array in one field, see level_axis)."""
    return m_tilde(state, params) - params.e * params.b0 * params.beta / 2.0


def _coulomb(state: QuantumState, params: PhysicalParams) -> float:
    """Strength 2 e m_tilde B0 mu - e^2 B0^2 mu beta of the field's attractive
    1/rho term (beta_acute of model B)."""
    e, b0, mu = params.e, params.b0, params.mu
    return 2.0 * e * m_tilde(state, params) * b0 * mu - (e * e) * (b0 * b0) * mu * params.beta


def _positive(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise DomainError("rho must be positive")
    return rho


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
    target 'ga' reads every 1/rho as delta/(1 - e^(-delta rho)), the
    Greene-Aldrich form whose spectrum model C's closed form solves exactly.
    """

    c2: float
    c1: float
    b0: float
    v0: float
    delta: float
    eta: float
    power: int
    decay: float

    def smooth(self, rho, target: str = "exact"):
        """b0 + v0 (1 - e^(-delta rho))/rho, the part of W(rho; 0) bounded at 0."""
        if not self.v0:
            return self.b0
        r = _inverse_rho(rho, self.delta, target)
        return self.b0 + self.v0 * -np.expm1(-self.delta * rho) * r

    def mass(self, rho, target: str = "exact"):
        """The mass profile g(rho), which multiplies -E."""
        g = self.eta * _inverse_rho(rho, self.delta, target) ** self.power
        return g * np.exp(-self.decay * rho) if self.decay else g

    def potential(self, rho, E: float, target: str = "exact"):
        """W(rho; E)."""
        r = _inverse_rho(rho, self.delta, target)
        return self.c2 * r * r + self.c1 * r + self.smooth(rho, target) - E * self.mass(rho, target)


def reduced_equation(kind: ModelKind, state: QuantumState, params: PhysicalParams):
    """The coefficients of the reduced radial equation of one state.

    c2 = w^2 + b2 - 1/4 + v2 and c1 = -(2 e mt B0 mu - e^2 B0^2 mu beta) + b1 - v1 - v0,
    summed in this order so that model C's a1 and a2 keep their bits. The
    mass bracket b2/rho^2 + b1/rho + b0 = (5/16)(g'/g)^2 - (1/4)(g''/g) - (1/4)(g'/g)/rho
    of g ~ e^(-k rho)/rho^power is b2 = power^2/16, b1 = k (power + 2)/8,
    b0 = k^2/16: (1/16, 0, 0) for A, (1/4, 0, 0) for B and
    (1/16, 3 delta/8, delta^2/16) for C.
    """
    _require_sigma_one(params)
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
    )


def effective_potential(
    rho, kind: ModelKind, state: QuantumState, params: PhysicalParams, E: float
):
    """W(rho; E) of the reduced radial equation of one state, at sigma = 1
    (see ReducedEquation)."""
    out = reduced_equation(kind, state, params).potential(_positive(rho), E)
    return out if np.ndim(rho) else float(out)


# ---------------------------------------------------------------------------
# Closed-form levels. Models A and B are the V = 0 models; each kernel is
# written over a record whose fields are floats or arrays (see level_axis).
# ---------------------------------------------------------------------------


def _require_no_potential(p, check) -> None:
    if p.v0 or p.v1 or p.v2:  # floats on a parameter axis too: they are not sweepable
        check(Invalid.POTENTIAL, True, (p.v0, p.v1, p.v2))


def _level_a(state: QuantumState, p, check):
    """Level kernel of model A; returns (E, (|ell_tilde|,))."""
    _require_no_potential(p, check)
    s2 = s_squared_of(p)
    check(Invalid.NO_SCALE, s2 <= 0, s2)
    mt = m_tilde(state, p)
    e, b0, mu = p.e, p.b0, p.mu
    w = _w(state, p)
    ell = _sqrt(w * w + 1.0 / 16.0)
    level = (
        p.beta * mu * (e * e) * (b0 * b0)
        - 2.0 * e * mt * b0 * mu
        + 2.0 * _sqrt(s2) * (state.n_rho + 0.5 + ell)
    ) / p.eta
    return level, (ell,)


def model_a_energy(state: QuantumState, params: PhysicalParams) -> float:
    """Bound level of the g = eta/rho profile (V = 0).

    E = (1/eta)[beta mu e^2 B0^2 - 2 e mt B0 mu
                + 2 sqrt(kz^2 + e^2 B0^2 mu^2) (n + 1/2 + |ell_tilde|)].
    """
    return _level(ModelKind.A, state, params)[0]


def _level_b(state: QuantumState, p, check):
    """Level kernel of model B; returns (E, (|ell_acute|,)), where the
    quantized |ell_acute| is positive iff the state is bound."""
    _require_no_potential(p, check)
    s2 = s_squared_of(p)
    check(Invalid.NO_SCALE, s2 <= 0, s2)
    ell = _coulomb(state, p) / (2.0 * _sqrt(s2)) - state.n_rho - 0.5
    check(Invalid.NOT_BOUND, ell <= 0, ell)
    w = _w(state, p)
    return (w * w + 0.25 - ell * ell) / p.eta, (ell,)


def model_b_energy(state: QuantumState, params: PhysicalParams) -> float:
    """Bound level of the g = eta/rho^2 profile (V = 0).

    E = (1/eta)[w^2 + 1/4 - (beta_acute/(2 s) - n - 1/2)^2] with
    w = mt - e B0 beta/2, valid only while the squared term's base stays
    positive (Coulomb quantization needs positive effective angular
    momentum).
    """
    return _level(ModelKind.B, state, params)[0]


@dataclass(frozen=True)
class ModelCCore:
    """Model C's reduced equation in the form of the paper,
        -U'' + [a1/rho^2 + a2/rho - a3 e^(-delta rho)/rho + a4] U = 0.
    a3 carries the energy; everything else is E-independent.
    """

    a1: float
    a2: float
    a3: float
    a4: float
    delta: float

    def __post_init__(self):
        if not self.a4 > 0:
            raise DomainError(f"a4 = {self.a4} must be positive (no decaying tail otherwise)")

    def nu_coefficients(self) -> NUCoefficients:
        """The reduced (tilde) coefficients under xi = e^(-delta rho)."""
        d = self.delta
        if d**2 == 0:
            raise DomainError(
                f"coefficient reduction divides by delta^2 = 0 (delta = {d}); at delta = 0 "
                "use model A reduction instead"
            )
        tilde = (self.a1, -self.a2 / d, self.a3 / d, self.a4 / d**2)
        if not all(map(math.isfinite, tilde)):
            raise DomainError(f"coefficient reduction overflows: delta = {d} is too small")
        return NUCoefficients(*tilde)


def _level_c(state: QuantumState, p, check):
    """Level kernel of model C; returns (E, ()) from the quantization
    ingredients eps1 = sqrt(r0) + delta G and
    eps2 = 2 sqrt(r0) G + 2 delta (w^2 + V2) - 2 e B0 mu w - V1,
    G = sqrt(w^2 + V2 + 1/16); both radicands must be non-negative."""
    w = _w(state, p)
    e, b0, mu, d = p.e, p.b0, p.mu, p.delta
    w2v = w * w + p.v2
    r0 = (d * d) * w2v + (d * d) / 4.0 - 2.0 * e * b0 * mu * w * d - d * p.v1 + s_squared_of(p)
    check(Invalid.R0_NEGATIVE, r0 < 0, r0)
    g_rad = w2v + 1.0 / 16.0
    check(Invalid.G_NEGATIVE, g_rad < 0, g_rad)
    root, big_g = _sqrt(r0), _sqrt(g_rad)
    eps1 = root + d * big_g
    eps2 = 2.0 * root * big_g + 2.0 * d * w2v - 2.0 * e * b0 * mu * w - p.v1
    n = state.n_rho
    return ((n * n + n + 0.5) * d + (2 * n + 1) * eps1 + eps2 - p.v0) / p.eta, ()


def model_c_coefficients(state: QuantumState, params: PhysicalParams, E: float) -> ModelCCore:
    """a1..a4 at the given energy, read off the reduced equation:
    a1 = c2, a2 = c1 + v0, a3 = v0 + eta E, a4 = s^2 + b0."""
    eq = reduced_equation(ModelKind.C, state, params)
    return ModelCCore(eq.c2, eq.c1 + eq.v0, eq.v0 + eq.eta * E, params.s_squared + eq.b0, eq.delta)


def model_c_energy(state: QuantumState, params: PhysicalParams) -> float:
    """Bound level of the Yukawa-mass profile with confinement.

    E = (1/eta)[(n^2 + n + 1/2) delta + (2n + 1) eps1 + eps2 - V0],
    computed through eps1/eps2 so delta = 0 is a plain substitution (and
    reproduces Model A exactly when the confinement is off).
    """
    return _level(ModelKind.C, state, params)[0]


# ---------------------------------------------------------------------------
# Levels: one kernel for a single point and for a parameter axis
# ---------------------------------------------------------------------------


class Invalid:
    """Codes of level_axis's reason array: why a closed-form level is
    missing at a point (NONE: it is not). Plain ints, cheap to look up in
    the kernels that a single point runs."""

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


# Per reason: the error a single point raises, its message with the
# offending value, and the value-free text of a sweep row ({name} is the
# swept field). A single point never sees the first two: PhysicalParams
# rejects such a value when it is built.
_INVALID = {
    Invalid.NOT_FINITE: (None, None, "{name} must be finite"),
    Invalid.NEGATIVE: (None, None, "{name} must be >= 0"),
    Invalid.SIGMA: (
        DomainError,
        "closed-form models require sigma = 1, got sigma = {value}",
        "closed-form models require sigma = 1",
    ),
    Invalid.NO_SCALE: (
        BoundStateError,
        "no bound spectrum: kz^2 + e^2 B0^2 mu^2 must be positive (got {value})",
        "no bound spectrum: kz^2 + e^2 B0^2 mu^2 <= 0",
    ),
    Invalid.NOT_BOUND: (
        BoundStateError,
        "state not bound for these parameters: beta_acute/(2 s) - n_rho - 1/2 = {value} <= 0",
        "state not bound: beta_acute/(2 s) - n_rho - 1/2 <= 0",
    ),
    Invalid.R0_NEGATIVE: (
        DomainError,
        "no real bound level: radicand r0 = {value} is negative",
        "no real bound level: radicand r0 < 0",
    ),
    Invalid.G_NEGATIVE: (
        DomainError,
        "no real bound level: radicand w^2 + V2 + 1/16 = {value} is negative",
        "no real bound level: radicand w^2 + V2 + 1/16 < 0",
    ),
    Invalid.NOT_FINITE_LEVEL: (
        DomainError,
        "closed-form level is {value}: a parameter is too large for double precision",
        "level not finite: a parameter is too large for double precision",
    ),
    Invalid.POTENTIAL: (
        DomainError,
        "models A and B have V = 0: their closed forms need v0 = v1 = v2 = 0, "
        "got (v0, v1, v2) = {value}; use model C",
        "models A and B need v0 = v1 = v2 = 0; use model C",
    ),
}

_LEVELS = {ModelKind.A: _level_a, ModelKind.B: _level_b, ModelKind.C: _level_c}


def reason_text(code: int, name: str) -> str | None:
    """Value-free text of an Invalid code for a sweep row over field name."""
    return _INVALID[code][2].format(name=name) if code else None


def _sqrt(x):
    """Correctly rounded square root of a float or an array, nan below 0 (a
    single point checks its radicands before it takes their roots)."""
    if isinstance(x, np.ndarray) or not x >= 0:
        return np.sqrt(x)
    return math.sqrt(x)


def _raise_invalid(code: int, bad, value) -> None:
    if bad:
        error, message, _ = _INVALID[code]
        raise error(message.format(value=value))


def _level(kind: ModelKind, state: QuantumState, params: PhysicalParams):
    """(E, kernel parts) of one point; raises the first failed condition."""
    _require_sigma_one(params)
    level, parts = _LEVELS[kind](state, params, _raise_invalid)
    _raise_invalid(Invalid.NOT_FINITE_LEVEL, not math.isfinite(level), level)
    return level, parts


def level_axis(kind: ModelKind, state: QuantumState, params: PhysicalParams, name: str, values):
    """Closed-form level of one state along one parameter axis.

    params gives every field but name, which takes each of values in turn.
    Returns (E, reason): float and int8 arrays shaped like values, reason
    an Invalid code (0 where the level exists) and E nan wherever reason is
    not 0. The arithmetic is the kernel a single point runs, operation for
    operation, so E equals energy(kind, state, params.replace(name=v)) bit
    for bit wherever that succeeds, and reason names the condition it
    raises on where it does not.
    """
    if name not in SWEEPABLE:
        raise DomainError(f"cannot sweep {name!r}; choose one of {', '.join(SWEEPABLE)}")
    values = np.asarray(values, dtype=float)
    reason = np.zeros(values.shape, dtype=np.int8)

    def record(code: int, bad, value) -> None:
        reason[(reason == 0) & bad] = code

    record(Invalid.NOT_FINITE, ~np.isfinite(values), values)
    if name in ("b0", "delta"):
        record(Invalid.NEGATIVE, values < 0, values)
    record(Invalid.SIGMA, params.sigma != 1.0, params.sigma)
    point = SimpleNamespace(**{**vars(params), name: values})
    with np.errstate(all="ignore"):
        level, _ = _LEVELS[kind](state, point, record)
        level = np.array(np.broadcast_to(level, values.shape))
        record(Invalid.NOT_FINITE_LEVEL, ~np.isfinite(level), level)
    level[reason != 0] = np.nan
    return level, reason


# ---------------------------------------------------------------------------
# Wavefunctions: one assembly over a per-model table of closed forms
# ---------------------------------------------------------------------------


class _ClosedForm(NamedTuple):
    """One closed-form radial function, up to its norm.

    u(rho) is the reduced function U and R = sqrt(eta) e^(-tail rho) U / rho^r_power;
    norm holds the arguments of specfun.normalize for the integral of U^2.
    """

    u: Callable
    r_power: float
    tail: float
    norm: tuple


def _laguerre_form(state: QuantumState, s: float, ell: float, r_power: float) -> _ClosedForm:
    """Models A and B: U = rho^p e^(-s rho) L_n^a(2 s rho) with p = ell + 1/2
    and a = 2 ell; in x = 2 s rho, int U^2 drho = (2s)^-(a+2) times the
    'laguerre' integral."""
    n, p, a = state.n_rho, ell + 0.5, 2.0 * ell

    def u(rho):
        return rho**p * np.exp(-s * rho) * laguerre(n, a, 2.0 * s * rho)

    return _ClosedForm(u, r_power, 0.0, ("laguerre", n, a, 0.0, -(a + 2.0) * math.log(2.0 * s)))


def _model_a_form(state: QuantumState, params: PhysicalParams, form: str) -> _ClosedForm:
    """R = N rho^(|ell_tilde|-1/2) e^(-s rho) L_n^(2|ell_tilde|)(2 s rho) = sqrt(eta) U / rho."""
    (ell,) = _level(ModelKind.A, state, params)[1]
    return _laguerre_form(state, params.decay_rate, ell, 1.0)


def _model_b_form(state: QuantumState, params: PhysicalParams, form: str) -> _ClosedForm:
    """R = N rho^(|ell_acute|-1) e^(-s rho) L_n^(2|ell_acute|)(2 s rho)
    = sqrt(eta) U / rho^(3/2)."""
    (ell,) = _level(ModelKind.B, state, params)[1]
    return _laguerre_form(state, params.decay_rate, ell, 1.5)


def _model_c_form(state: QuantumState, params: PhysicalParams, form: str) -> _ClosedForm:
    """form 'paper': R = N rho^((upsilon-1)/2) e^(-delta rho (1+kappa)/2)
    P_n^(kappa,upsilon)(1 - 2 e^(-delta rho)), with the small-rho matching
    factor delta^((1+upsilon)/2) so the two forms agree as delta rho -> 0;
    form 'xi': U = xi^(kappa/2) (1-xi)^((1+upsilon)/2) P_n^(kappa,upsilon)(1-2xi),
    xi = e^(-delta rho), which solves the approximated equation exactly.
    R = sqrt(eta) e^(-delta rho/2) U / rho for either form; in x = delta rho,
    int U^2 drho = 1/delta times the integral named by the form."""
    if params.delta <= 0:
        raise DomainError(
            "model C wavefunction needs delta > 0; at delta = 0 use model A reduction"
        )
    nu_c = model_c_coefficients(state, params, model_c_energy(state, params)).nu_coefficients()
    n, d, kappa, upsilon = state.n_rho, params.delta, nu_c.kappa, nu_c.upsilon
    p = 0.5 * (1.0 + upsilon)

    def u(rho):
        xi = np.exp(-d * rho)
        poly = jacobi(n, kappa, upsilon, 1.0 - 2.0 * xi)
        if form == "xi":
            return xi ** (kappa / 2.0) * (-np.expm1(-d * rho)) ** p * poly
        # np.float64 overflows to inf (a DomainError below), a float raises OverflowError
        return np.float64(d) ** p * rho**p * np.exp(-d * kappa * rho / 2.0) * poly

    return _ClosedForm(u, 1.0, d / 2.0, (form, n, kappa, upsilon, -math.log(d)))


_CLOSED_FORMS = {ModelKind.A: _model_a_form, ModelKind.B: _model_b_form, ModelKind.C: _model_c_form}


@lru_cache(maxsize=512)
def _norm(kind: ModelKind, state: QuantumState, params: PhysicalParams, form: str) -> float:
    return normalize(*_CLOSED_FORMS[kind](state, params, form).norm)


def wavefunction(
    kind: ModelKind,
    state: QuantumState,
    params: PhysicalParams,
    rho,
    *,
    form: str = "paper",
    component: str = "R",
    normalized: bool = True,
):
    """Closed-form radial function of any model at its quantized energy.

    component 'R' gives the physical radial factor, 'U' the reduced
    function of the -U'' + W U = Et U equation (U = rho R / sqrt(eta) for
    A, rho^(3/2) R / sqrt(eta) for B, rho e^(delta rho/2) R / sqrt(eta)
    for C). form picks model C's 'paper' or 'xi' closed form. With
    normalized=True the integral of U^2 over (0, inf) is exactly 1, and a
    value that is not finite, or a table that is 0 at every rho (a state
    too narrow for double precision), is a DomainError.
    """
    if form not in ("paper", "xi"):
        raise DomainError(f"form must be 'paper' or 'xi', got {form!r}")
    if form != "paper" and kind is not ModelKind.C:
        raise DomainError(f"form {form!r} applies to model C only")
    closed = _CLOSED_FORMS[kind](state, params, form)
    if component not in ("R", "U"):
        raise DomainError(f"component must be 'R' or 'U', got {component!r}")
    rho_arr = _positive(rho)
    scale = _norm(kind, state, params, form) if normalized else 1.0
    with np.errstate(all="ignore") if normalized else nullcontext():  # checked below
        u = closed.u(rho_arr)
        if component == "U":
            out = scale * u
        else:
            tail = np.exp(-closed.tail * rho_arr) if closed.tail else 1.0
            out = scale * math.sqrt(params.eta) * tail * u / rho_arr**closed.r_power
    if normalized:
        peak = np.max(np.abs(out), initial=0.0)  # nan or inf if any value is
        if not peak < math.inf:
            raise DomainError("normalized wavefunction is not finite: a parameter is too large")
        if peak == 0 and np.size(out) > 1:  # a table, not one point far in the tail
            raise DomainError("normalized wavefunction table underflows to 0 at every rho")
    return out if np.ndim(rho) else float(out)


# ---------------------------------------------------------------------------
# Greene-Aldrich machinery and dispatch helpers
# ---------------------------------------------------------------------------

GreeneAldrich = namedtuple("GreeneAldrich", ["exact", "approx", "rel_err"])


def greene_aldrich(rho, delta):
    """Compare 1/rho against its exponential surrogate delta/(1 - e^(-delta rho)).

    Returns (exact, approx, rel_err) with rel_err = |approx - exact| * rho,
    the error relative to 1/rho (a DomainError where it overflows). Good
    only for delta*rho << 1 (the error grows like delta*rho/2).
    """
    rho_arr = np.asarray(rho, dtype=float)
    delta_arr = np.asarray(delta, dtype=float)
    if np.any(rho_arr <= 0) or np.any(delta_arr <= 0):
        raise DomainError("rho and delta must be positive")
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
    """Closed-form level for any model tag."""
    return _level(kind, state, params)[0]
