"""Closed-form spectra and wavefunctions for three solvable mass profiles.

All closed forms assume the sigma = 1 field profile. Units follow the
convention hbar = 2 m0 = 1 throughout, so energies carry no extra
prefactors.

Profile tags:
    A: g = eta / rho            (decaying linearly)
    B: g = eta / rho^2
    C: g = eta exp(-delta rho) / rho, optionally with the
       Yukawa-plus-Kratzer confinement V(rho).
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
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
    "ModelACore",
    "ModelBCore",
    "ModelCCore",
    "GreeneAldrich",
    "mass_function",
    "mass_log_derivatives",
    "mass_bracket",
    "confining_potential",
    "effective_potential",
    "model_a_core",
    "model_a_energy",
    "model_b_core",
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


def mass_function(rho, kind: ModelKind, params: PhysicalParams):
    """The radial mass profile g(rho) for the chosen model. Positive for rho > 0."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise DomainError("rho must be positive")
    if kind is ModelKind.A:
        out = params.eta / rho
    elif kind is ModelKind.B:
        out = params.eta / rho**2
    else:
        out = params.eta * np.exp(-params.delta * rho) / rho
    return out if out.ndim else float(out)


def mass_log_derivatives(rho, kind: ModelKind, params: PhysicalParams):
    """(g'/g, g''/g) for the chosen profile, in closed form."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise DomainError("rho must be positive")
    if kind is ModelKind.A:
        l1 = -1.0 / rho
        l2 = 2.0 / rho**2
    elif kind is ModelKind.B:
        l1 = -2.0 / rho
        l2 = 6.0 / rho**2
    else:
        d = params.delta
        l1 = -(d + 1.0 / rho)
        l2 = (d + 1.0 / rho) ** 2 + 1.0 / rho**2
    if np.ndim(rho):
        return l1, l2
    return float(l1), float(l2)


def mass_bracket(rho, kind: ModelKind, params: PhysicalParams):
    """Kinetic correction generated by the position dependence of the mass.

    (5/16)(g'/g)^2 - (1/4)(g''/g) - (1/4)(g'/g)/rho, assembled from the
    closed-form logarithmic derivatives.
    """
    rho_arr = np.asarray(rho, dtype=float)
    l1, l2 = mass_log_derivatives(rho_arr, kind, params)
    out = 0.3125 * np.asarray(l1) ** 2 - 0.25 * np.asarray(l2) - 0.25 * np.asarray(l1) / rho_arr
    return out if np.ndim(rho) else float(out)


def confining_potential(rho, params: PhysicalParams):
    """-V0 e^(-delta rho)/rho - V1/rho + V2/rho^2."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise DomainError("rho must be positive")
    out = (
        -params.v0 * np.exp(-params.delta * rho) / rho
        - params.v1 / rho
        + params.v2 / rho**2
    )
    return out if out.ndim else float(out)


def effective_potential(rho, kind: ModelKind, state: QuantumState, params: PhysicalParams, E: float):
    """Everything multiplying U in the reduced radial equation, at sigma = 1.

    The equation reads -U'' + W(rho) U = Et U with
    Et = -(kz^2 + e^2 B0^2 mu^2); this function returns W. Terms: the
    centrifugal coefficient (mt^2 - 1/4 - e mt B0 beta + e^2 B0^2 beta^2/4)
    over rho^2, the Coulomb-like -(2 e mt B0 mu - e^2 B0^2 mu beta)/rho,
    -g(rho) E, the confining potential, and the mass bracket.
    """
    _require_sigma_one(params)
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr <= 0):
        raise DomainError("rho must be positive")
    mt = m_tilde(state, params)
    e, b0, mu, beta = params.e, params.b0, params.mu, params.beta
    cent = mt**2 - 0.25 - e * mt * b0 * beta + (e * b0 * beta) ** 2 / 4.0
    coul = 2.0 * e * mt * b0 * mu - e**2 * b0**2 * mu * beta
    out = (
        cent / rho_arr**2
        - coul / rho_arr
        - mass_function(rho_arr, kind, params) * E
        + confining_potential(rho_arr, params)
        + mass_bracket(rho_arr, kind, params)
    )
    return out if np.ndim(rho) else float(out)


# ---------------------------------------------------------------------------
# Model A: g = eta / rho
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelACore:
    """Coulomb-problem parameters of the reduced Model A equation."""

    alpha_tilde: float
    ell_tilde_abs: float

    def __post_init__(self):
        if not self.ell_tilde_abs >= 0.25:
            raise DomainError(
                f"ell_tilde_abs = {self.ell_tilde_abs} < 1/4; construction is inconsistent"
            )


def model_a_core(state: QuantumState, params: PhysicalParams, E: float) -> ModelACore:
    """alpha_tilde and |ell_tilde| at the given energy."""
    _require_sigma_one(params)
    mt = m_tilde(state, params)
    e, b0, mu, beta, eta = params.e, params.b0, params.mu, params.beta, params.eta
    alpha_tilde = 2.0 * e * mt * b0 * mu - e**2 * b0**2 * mu * beta + eta * E
    ell = math.sqrt(_w(state, params) ** 2 + 1.0 / 16.0)
    return ModelACore(alpha_tilde=alpha_tilde, ell_tilde_abs=ell)


def _level_a(state: QuantumState, p, check):
    """Level kernel of model A; returns (E, (|ell_tilde|,))."""
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
    """Bound level of the g = eta/rho profile.

    E = (1/eta)[beta mu e^2 B0^2 - 2 e mt B0 mu
                + 2 sqrt(kz^2 + e^2 B0^2 mu^2) (n + 1/2 + |ell_tilde|)].
    """
    return _level(ModelKind.A, state, params)[0]


# ---------------------------------------------------------------------------
# Model B: g = eta / rho^2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelBCore:
    """Coulomb-problem parameters of the reduced Model B equation."""

    beta_acute: float
    ell_acute_abs: float

    def __post_init__(self):
        if not self.ell_acute_abs > 0:
            raise DomainError(
                f"ell_acute_abs = {self.ell_acute_abs} must be positive for a bound state"
            )


def model_b_core(state: QuantumState, params: PhysicalParams, E: float) -> ModelBCore:
    """beta_acute and |ell_acute| at the given energy."""
    _require_sigma_one(params)
    mt = m_tilde(state, params)
    e, b0, mu, beta, eta = params.e, params.b0, params.mu, params.beta, params.eta
    beta_acute = 2.0 * e * mt * b0 * mu - e**2 * b0**2 * mu * beta
    rad = _w(state, params) ** 2 + 0.25 - eta * E
    if rad < 0:
        raise DomainError(f"ell_acute^2 = {rad} is negative; no real solution at E = {E}")
    return ModelBCore(beta_acute=beta_acute, ell_acute_abs=math.sqrt(rad))


def _level_b(state: QuantumState, p, check):
    """Level kernel of model B; returns (E, (|ell_acute|,)), where the
    quantized |ell_acute| is positive iff the state is bound."""
    s2 = s_squared_of(p)
    check(Invalid.NO_SCALE, s2 <= 0, s2)
    mt = m_tilde(state, p)
    e, b0, mu = p.e, p.b0, p.mu
    beta_acute = 2.0 * e * mt * b0 * mu - (e * e) * (b0 * b0) * mu * p.beta
    ell = beta_acute / (2.0 * _sqrt(s2)) - state.n_rho - 0.5
    check(Invalid.NOT_BOUND, ell <= 0, ell)
    w = _w(state, p)
    return (w * w + 0.25 - ell * ell) / p.eta, (ell,)


def model_b_energy(state: QuantumState, params: PhysicalParams) -> float:
    """Bound level of the g = eta/rho^2 profile.

    E = (1/eta)[w^2 + 1/4 - (beta_acute/(2 s) - n - 1/2)^2] with
    w = mt - e B0 beta/2, valid only while the squared term's base stays
    positive (Coulomb quantization needs positive effective angular
    momentum).
    """
    return _level(ModelKind.B, state, params)[0]


# ---------------------------------------------------------------------------
# Model C: g = eta e^(-delta rho) / rho with Yukawa + Kratzer confinement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelCCore:
    """Coefficient assembly of the reduced Model C equation.

    The exact reduced equation is
        -U'' + [a1/rho^2 + a2/rho - a3 e^(-delta rho)/rho + a4] U = 0,
    and eps1t/eps2t are the quantization ingredients of the closed-form
    level. a3 carries the energy; everything else is E-independent.
    """

    a1: float
    a2: float
    a3: float
    a4: float
    eps1t: float
    eps2t: float
    delta: float

    def __post_init__(self):
        if not self.a4 > 0:
            raise DomainError(f"a4 = {self.a4} must be positive (no decaying tail otherwise)")

    def nu_coefficients(self) -> NUCoefficients:
        """The reduced (tilde) coefficients under xi = e^(-delta rho)."""
        if self.delta == 0:
            raise DomainError(
                "coefficient reduction divides by delta; at delta = 0 "
                "use model A reduction instead"
            )
        d = self.delta
        return NUCoefficients(self.a1, -self.a2 / d, self.a3 / d, self.a4 / d**2)

    @property
    def upsilon(self) -> float:
        rad = 4.0 * self.a1 + 1.0
        if rad < 0:
            raise DomainError(f"4 a1 + 1 = {rad} is negative; upsilon is imaginary")
        return math.sqrt(rad)

    @property
    def kappa(self) -> float:
        return self.nu_coefficients().kappa


def _level_c(state: QuantumState, p, check):
    """Level kernel of model C; returns (E, (eps1t, eps2t)) with the
    quantization ingredients
    eps1t = sqrt(r0) + delta G and
    eps2t = 2 sqrt(r0) G + 2 delta (w^2 + V2) - 2 e B0 mu w - V1,
    G = sqrt(w^2 + V2 + 1/16); both radicands must be non-negative."""
    w = _w(state, p)
    e, b0, mu, d = p.e, p.b0, p.mu, p.delta
    w2v = w * w + p.v2
    r0 = (d * d) * w2v + (d * d) / 4.0 - 2.0 * e * b0 * mu * w * d - d * p.v1 + s_squared_of(p)
    check(Invalid.R0_NEGATIVE, r0 < 0, r0)
    g_rad = w2v + 1.0 / 16.0
    check(Invalid.G_NEGATIVE, g_rad < 0, g_rad)
    root, big_g = _sqrt(r0), _sqrt(g_rad)
    eps1t = root + d * big_g
    eps2t = 2.0 * root * big_g + 2.0 * d * w2v - 2.0 * e * b0 * mu * w - p.v1
    n = state.n_rho
    level = ((n * n + n + 0.5) * d + (2 * n + 1) * eps1t + eps2t - p.v0) / p.eta
    return level, (eps1t, eps2t)


def model_c_coefficients(state: QuantumState, params: PhysicalParams, E: float) -> ModelCCore:
    """Assemble a1..a4 and the quantization ingredients at the given energy."""
    _require_sigma_one(params)
    w = _w(state, params)
    mt = m_tilde(state, params)
    e, b0, mu, d = params.e, params.b0, params.mu, params.delta
    a1 = w**2 - 3.0 / 16.0 + params.v2
    a2 = e**2 * b0**2 * mu * params.beta - 2.0 * e * mt * b0 * mu + 3.0 * d / 8.0 - params.v1
    a3 = params.v0 + params.eta * E
    a4 = params.s_squared + d**2 / 16.0
    eps1t, eps2t = _level(ModelKind.C, state, params)[1]
    return ModelCCore(a1=a1, a2=a2, a3=a3, a4=a4, eps1t=eps1t, eps2t=eps2t, delta=d)


def model_c_energy(state: QuantumState, params: PhysicalParams) -> float:
    """Bound level of the Yukawa-mass profile with confinement.

    E = (1/eta)[(n^2 + n + 1/2) delta + (2n + 1) eps1t + eps2t - V0],
    computed through eps1t/eps2t so delta = 0 is a plain substitution (and
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
        return d**p * rho**p * np.exp(-d * kappa * rho / 2.0) * poly

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
    normalized=True the integral of U^2 over (0, inf) is exactly 1.
    """
    if form not in ("paper", "xi"):
        raise DomainError(f"form must be 'paper' or 'xi', got {form!r}")
    if form != "paper" and kind is not ModelKind.C:
        raise DomainError(f"form {form!r} applies to model C only")
    closed = _CLOSED_FORMS[kind](state, params, form)
    if component not in ("R", "U"):
        raise DomainError(f"component must be 'R' or 'U', got {component!r}")
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr <= 0):
        raise DomainError("rho must be positive")
    u = closed.u(rho_arr)
    scale = _norm(kind, state, params, form) if normalized else 1.0
    if component == "U":
        out = scale * u
    else:
        tail = np.exp(-closed.tail * rho_arr) if closed.tail else 1.0
        out = scale * math.sqrt(params.eta) * tail * u / rho_arr**closed.r_power
    return out if np.ndim(rho) else float(out)


# ---------------------------------------------------------------------------
# Greene-Aldrich machinery and dispatch helpers
# ---------------------------------------------------------------------------

GreeneAldrich = namedtuple("GreeneAldrich", ["exact", "approx", "rel_err"])


def greene_aldrich(rho, delta):
    """Compare 1/rho against its exponential surrogate delta/(1 - e^(-delta rho)).

    Returns (exact, approx, rel_err) with rel_err = |approx - exact| * rho,
    the error relative to 1/rho. Good only for delta*rho << 1 (the error
    grows like delta*rho/2).
    """
    rho_arr = np.asarray(rho, dtype=float)
    delta_arr = np.asarray(delta, dtype=float)
    if np.any(rho_arr <= 0) or np.any(delta_arr <= 0):
        raise DomainError("rho and delta must be positive")
    exact = 1.0 / rho_arr
    approx = delta_arr / (-np.expm1(-delta_arr * rho_arr))
    rel = np.abs(approx - exact) * rho_arr
    if np.ndim(rho) or np.ndim(delta):
        return GreeneAldrich(exact, approx, rel)
    return GreeneAldrich(float(exact), float(approx), float(rel))


def energy(kind: ModelKind, state: QuantumState, params: PhysicalParams) -> float:
    """Closed-form level for any model tag."""
    return _level(kind, state, params)[0]
