"""Closed-form spectra and wavefunctions of the three mass profiles.

Naming shorthand used below: s = sqrt(kz^2 + e^2 B0^2 mu^2) is the tail
decay rate, w = m_tilde - e B0 beta / 2 the dressed magnetic number.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson
from scipy.special import roots_genlaguerre, roots_jacobi

from nu_reference import model_c_coefficients
from pdmag.errors import BoundStateError, DomainError
from pdmag.models import (
    _CLOSED_FORMS,
    Invalid,
    ModelKind,
    curvature,
    energy,
    greene_aldrich,
    level_axis,
    reduced_equation,
    wavefunction,
)
from pdmag.oracle import node_count, residual
from pdmag.params import PhysicalParams, QuantumState


def count_sign_changes(values):
    v = np.asarray(values)
    signs = np.sign(v[np.abs(v) > 1e-12 * np.max(np.abs(v))])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


# Parameter draws for the closed-form identities. Validity (nonzero decay
# rate, bound-state conditions) is asserted per test via assume().
param_draws = dict(
    e=st.floats(min_value=-2.0, max_value=2.0),
    b0=st.floats(min_value=0.0, max_value=2.0),
    mu=st.floats(min_value=-2.0, max_value=2.0),
    beta=st.floats(min_value=-2.0, max_value=2.0),
    kz=st.floats(min_value=0.0, max_value=2.0),
    eta=st.floats(min_value=0.2, max_value=4.0),
    alpha=st.floats(min_value=-1.0, max_value=1.0),
    m=st.integers(-4, 4),
    n=st.integers(0, 4),
)


class TestModelKind:
    def test_parse(self):
        assert ModelKind.parse("a") is ModelKind.A
        assert ModelKind.parse("B") is ModelKind.B
        assert ModelKind.parse("c") is ModelKind.C
        with pytest.raises(DomainError):
            ModelKind.parse("d")


def _mp_params(state, p):
    """(e, B0, mu, beta, kz, eta, mt, w, s^2) of a point as 400-digit numbers."""
    e, b0, mu, beta, kz, eta = map(mpmath.mpf, (p.e, p.b0, p.mu, p.beta, p.kz, p.eta))
    mt = state.m - mpmath.mpf(p.alpha_ab)
    return e, b0, mu, beta, kz, eta, mt, mt - e * b0 * beta / 2, kz * kz + (e * b0 * mu) ** 2


def model_a_level_mpmath(state, p):
    """Model A's level, as printed, in 400-digit arithmetic (its terms
    cancel to about 1/|m| of their size at kz = 0)."""
    with mpmath.workdps(400):
        e, b0, mu, beta, kz, eta, mt, w, s2 = _mp_params(state, p)
        ell = mpmath.sqrt(w * w + mpmath.mpf(1) / 16)
        return float((beta * mu * e * e * b0 * b0 - 2 * e * mt * b0 * mu
                      + 2 * mpmath.sqrt(s2) * (state.n_rho + mpmath.mpf(0.5) + ell)) / eta)


def model_b_level_mpmath(state, p):
    """Model B's level, as printed, in 400-digit arithmetic; None where
    |ell_acute| <= 0 (not bound)."""
    with mpmath.workdps(400):
        e, b0, mu, beta, kz, eta, mt, w, s2 = _mp_params(state, p)
        beta_acute = 2 * e * mt * b0 * mu - e * e * b0 * b0 * mu * beta
        ell = beta_acute / (2 * mpmath.sqrt(s2)) - state.n_rho - mpmath.mpf(0.5)
        return float((w * w + mpmath.mpf(1) / 4 - ell * ell) / eta) if ell > 0 else None


def model_c_level_mpmath(state, p):
    """Model C's level, as printed (eps1, eps2 and the radicand r0), in
    400-digit arithmetic."""
    with mpmath.workdps(400):
        e, b0, mu, beta, kz, eta, mt, w, s2 = _mp_params(state, p)
        d, v0, v1, v2 = map(mpmath.mpf, (p.delta, p.v0, p.v1, p.v2))
        n = state.n_rho
        root = mpmath.sqrt(d * d * (w * w + v2) + d * d / 4 - 2 * e * b0 * mu * w * d - d * v1 + s2)
        big_g = mpmath.sqrt(w * w + v2 + mpmath.mpf(1) / 16)
        eps1 = root + d * big_g
        eps2 = 2 * root * big_g + 2 * d * (w * w + v2) - 2 * e * b0 * mu * w - v1
        return float(((n * n + n + mpmath.mpf(0.5)) * d + (2 * n + 1) * eps1 + eps2 - v0) / eta)


def w_of(state, params):
    return state.m - params.alpha_ab - params.e * params.b0 * params.beta / 2.0


def coulomb_of(state, params):
    """2 e mt B0 mu - e^2 B0^2 mu beta, the strength of the field's -1/rho term."""
    e, b0, mu, mt = params.e, params.b0, params.mu, state.m - params.alpha_ab
    return 2.0 * e * mt * b0 * mu - e**2 * b0**2 * mu * params.beta


class TestMassFunction:
    def test_values(self):
        state = QuantumState(0, 0)
        assert reduced_equation(ModelKind.A, state, PhysicalParams()).mass(2.0) == 0.5
        assert reduced_equation(ModelKind.C, state, PhysicalParams(delta=0.0)).mass(1.0) == 1.0
        assert reduced_equation(ModelKind.B, state, PhysicalParams(eta=2.0)).mass(0.5) == 8.0
        params = PhysicalParams(eta=1.5, delta=0.4)
        g = reduced_equation(ModelKind.C, state, params).mass(2.0)
        assert g == pytest.approx(1.5 * math.exp(-0.8) / 2.0, rel=1e-15)

    @given(rho=st.floats(min_value=1e-3, max_value=50.0), eta=st.floats(min_value=0.1, max_value=5.0))
    def test_positive_everywhere(self, rho, eta):
        params = PhysicalParams(eta=eta, delta=0.3)
        for kind in ModelKind:
            assert reduced_equation(kind, QuantumState(0, 1), params).mass(rho) > 0


class TestConfiningPotential:
    def test_values(self):
        # V = -v0 e^(-delta rho)/rho - v1/rho + v2/rho^2 is what W gains
        # when the potential is switched on
        state = QuantumState(0, 1)

        def v_of(rho, **v):
            base = PhysicalParams(delta=v.pop("delta", 0.0))
            on = base.replace(**v)
            w_on = reduced_equation(ModelKind.C, state, on).potential(rho, 0.3)
            return w_on - reduced_equation(ModelKind.C, state, base).potential(rho, 0.3)

        assert v_of(3.7) == 0.0
        assert v_of(1.0, v0=1.0) == pytest.approx(-1.0, rel=1e-14)
        assert v_of(0.5, v1=1.0, v2=1.0) == pytest.approx(2.0, rel=1e-14)
        expected = -0.7 * math.exp(-0.6) / 2.0
        assert v_of(2.0, v0=0.7, delta=0.3) == pytest.approx(expected, rel=1e-13)


class TestEffectivePotential:
    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_model_a_collapses_to_coulomb_form(self, rho):
        # W = (|ell_tilde|^2 - 1/4)/rho^2 - alpha_tilde/rho with
        # |ell_tilde|^2 = w^2 + 1/16 and alpha_tilde = coulomb + eta E
        params = PhysicalParams(beta=0.4, alpha_ab=0.3, kz=1.0)
        state = QuantumState(1, 2)
        E = 0.8
        ell_sq = w_of(state, params) ** 2 + 1.0 / 16.0
        alpha_tilde = coulomb_of(state, params) + params.eta * E
        expected = (ell_sq - 0.25) / rho**2 - alpha_tilde / rho
        got = reduced_equation(ModelKind.A, state, params).potential(rho, E)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_model_b_collapses_to_coulomb_form(self, rho):
        # W = (|ell_acute|^2 - 1/4)/rho^2 - beta_acute/rho with
        # |ell_acute|^2 = w^2 + 1/4 - eta E and beta_acute = coulomb
        params = PhysicalParams(beta=-0.5, mu=1.5)
        state = QuantumState(0, 2)
        E = 0.3
        ell_sq = w_of(state, params) ** 2 + 0.25 - params.eta * E
        expected = (ell_sq - 0.25) / rho**2 - coulomb_of(state, params) / rho
        got = reduced_equation(ModelKind.B, state, params).potential(rho, E)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_field_off_pure_centrifugal(self):
        # with B0 = 0, E = 0, V = 0 only the centrifugal + mass bracket
        # remain; for the 1/rho mass that is (mt^2 - 1/4 + 1/16)/rho^2
        params = PhysicalParams(b0=0.0)
        state = QuantumState(0, 2)
        for rho in (0.5, 1.0, 2.0):
            got = reduced_equation(ModelKind.A, state, params).potential(rho, 0.0)
            assert got == pytest.approx((4.0 - 0.25 + 1.0 / 16.0) / rho**2, rel=1e-14)

    def test_mass_bracket_is_the_closed_form_difference(self):
        # with the field off, E = 0 and V = 0 only the centrifugal
        # (m^2 - 1/4)/rho^2 and the mass bracket are left; for model C the
        # bracket carries the delta-dependent terms
        params = PhysicalParams(b0=0.0, delta=0.5)
        state = QuantumState(0, 2)
        rho = 1.3
        d = params.delta
        bracket = d**2 / 16.0 + 3.0 * d / (8.0 * rho) + 1.0 / (16.0 * rho**2)
        got = reduced_equation(ModelKind.C, state, params).potential(rho, 0.0)
        assert got == pytest.approx(3.75 / rho**2 + bracket, rel=1e-13)
        for kind, b2 in ((ModelKind.A, 1.0 / 16.0), (ModelKind.B, 0.25)):
            got = reduced_equation(kind, state, params).potential(rho, 0.0)
            assert got == pytest.approx((3.75 + b2) / rho**2, rel=1e-13)

    def test_ga_target_replaces_every_inverse_rho(self):
        # W_ga = a1 L^2 + a2 L - a3 xi L + delta^2/16 with L = delta/(1 - xi),
        # xi = e^(-delta rho), in the coefficients of the paper's form
        params = PhysicalParams(mu=0.3, delta=0.2, v0=0.4, v1=0.3, v2=0.2, kz=0.1)
        state, E = QuantumState(1, 1), 0.7
        ex = reduced_equation(ModelKind.C, state, params)
        a1, a2, a3 = ex.c2, ex.c1 + ex.v0, ex.v0 + ex.eta * E
        eq = reduced_equation(ModelKind.C, state, params, "ga")
        for rho in (0.05, 1.0, 7.0):
            xi = math.exp(-0.2 * rho)
            big_l = 0.2 / (1.0 - xi)
            expected = a1 * big_l**2 + a2 * big_l - a3 * xi * big_l + 0.04 / 16.0
            assert eq.potential(rho, E) == pytest.approx(expected, rel=1e-12)


# The parameter sets of the levels checked against 400-digit arithmetic:
# model A's and B's, and model C's with small and moderate delta, with the
# confinement on, and at delta = 0 (model A's kernel).
LEVEL_SETS = {
    "default": {},
    "kz": dict(e=-1.3, b0=0.7, mu=1.7, beta=-2.0, kz=0.5, eta=1.3, alpha_ab=0.3),
    "kz0": dict(e=2.0, mu=0.4, beta=0.9, alpha_ab=-0.25),
    "large-kz": dict(kz=1e10),
}
C_LEVEL_SETS = {
    "delta1e-6": dict(mu=0.15, delta=1e-6),
    "delta0.05": dict(mu=0.15, delta=0.05),
    "delta0.1-kz": dict(e=-1.3, b0=0.7, mu=1.7, beta=-2.0, kz=0.5, eta=1.3, alpha_ab=0.3,
                        delta=0.1),
    "V": dict(e=-1.0, mu=0.3, kz=0.7, delta=0.2, v0=0.5, v1=0.01, v2=0.4),
    "delta0": dict(mu=0.15),
}
LEVEL_MPMATH = {ModelKind.A: model_a_level_mpmath, ModelKind.B: model_b_level_mpmath,
                ModelKind.C: model_c_level_mpmath}


class TestModelAEnergy:
    def test_anchor_level(self, unit_params):
        assert energy(ModelKind.A, QuantumState(0, 0), unit_params) == pytest.approx(1.5, rel=1e-15)

    @pytest.mark.parametrize("n, m", [(0, 0), (1, 0), (0, 2), (2, -1)])
    def test_field_off_reduction(self, n, m):
        # B0 = 0 leaves E = 2 kz (n + 1/2 + sqrt(m~^2 + 1/16)) in these units
        params = PhysicalParams(b0=0.0, kz=1.0)
        expected = 2.0 * (n + 0.5 + math.sqrt(m * m + 1.0 / 16.0))
        assert energy(ModelKind.A, QuantumState(n, m), params) == pytest.approx(expected, rel=1e-14)

    def test_zero_m_tilde_drops_the_linear_field_term(self):
        # at m~ = 0 the energy is even in mu; away from it it is not
        state = QuantumState(0, 1)
        sym = dict(alpha_ab=1.0, kz=1.0)
        e_plus = energy(ModelKind.A, state, PhysicalParams(mu=0.7, **sym))
        e_minus = energy(ModelKind.A, state, PhysicalParams(mu=-0.7, **sym))
        assert e_plus == pytest.approx(e_minus, rel=1e-14)
        e_plus = energy(ModelKind.A, state, PhysicalParams(mu=0.7, kz=1.0))
        e_minus = energy(ModelKind.A, state, PhysicalParams(mu=-0.7, kz=1.0))
        assert abs(e_plus - e_minus) > 0.1

    def test_no_radial_scale_is_an_error(self):
        with pytest.raises(BoundStateError, match="no bound spectrum"):
            energy(ModelKind.A, QuantumState(0, 0), PhysicalParams(mu=0.0, kz=0.0))

    @given(**param_draws)
    def test_quantization_self_consistency(self, e, b0, mu, beta, kz, eta, alpha, m, n):
        params = PhysicalParams(e=e, b0=b0, mu=mu, beta=beta, kz=kz, eta=eta, alpha_ab=alpha)
        assume(params.s_squared > 1e-12)
        state = QuantumState(n, m)
        E = energy(ModelKind.A, state, params)
        alpha_tilde = coulomb_of(state, params) + eta * E
        ell_tilde_abs = math.sqrt(w_of(state, params) ** 2 + 1.0 / 16.0)
        lhs = alpha_tilde / (2.0 * (n + ell_tilde_abs + 0.5))
        assert lhs == pytest.approx(math.sqrt(params.s_squared), rel=1e-12)

    def test_strictly_increasing_in_n(self, unit_params):
        levels = [energy(ModelKind.A, QuantumState(n, 1), unit_params) for n in range(6)]
        assert all(b > a for a, b in zip(levels, levels[1:]))

    def test_level_at_large_m_matches_mpmath(self):
        # A (0, 10^7) at default parameters read a relative error of 1.2e-9
        # while the field terms cancelled against 2 s |ell_tilde| (kz = 0)
        state, p = QuantumState(0, 10**7), PhysicalParams()
        ref = model_a_level_mpmath(state, p)
        assert abs(energy(ModelKind.A, state, p) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("kind, params", [
        pytest.param(kind, params, id=f"{tag}{name}")
        for kind, tag, sets in (
            (ModelKind.A, "", LEVEL_SETS),
            (ModelKind.B, "B-", {**LEVEL_SETS, "huge-beta": dict(beta=-1e200)}),
            (ModelKind.C, "C-", C_LEVEL_SETS))
        for name, params in sets.items()])
    def test_level_is_correctly_rounded_at_any_m(self, kind, params):
        # A (n, 10^16) at default parameters read E = 0 (true value 1.0), and
        # B (1, 10^12) 3000034656256 against 2999999999998; at kz = 1e10 and
        # m = 10^150, (kz w)^2 is beyond the largest double while the level,
        # 2e160, is not. B at beta = -1e200, kz = 0 is bound with E = 5e199.
        # C at delta = 0 is A: C (0, 10^9) at mu = 0.15 read 0.15 for
        # 0.150000000009375
        p = PhysicalParams(**params)
        reference = LEVEL_MPMATH[kind]
        for m in (0, 1, -3, 10**3, -(10**3), 10**7, -(10**7), 10**9, 10**16, -(10**16),
                  10**150, -(10**150)):
            for n in (0, 3):
                state = QuantumState(n, m)
                ref = reference(state, p)
                if ref is None:
                    with pytest.raises(BoundStateError, match="not bound"):
                        energy(kind, state, p)
                    continue
                assert abs(energy(kind, state, p) - ref) <= 1e-15 * abs(ref), (n, m)

    def test_level_past_the_largest_square_is_a_domain_error(self):
        # w^2 beyond the largest double (m = 10^155): the stable form's
        # quotients would read 0 there and give 1.41 for a level of 8.3e154
        with pytest.raises(DomainError, match="^level not finite: .*too large for double.*, got inf$"):
            energy(ModelKind.A, QuantumState(0, 10**155), PhysicalParams(kz=1.0))

    def test_axis_past_the_largest_square_records_a_non_finite_level(self):
        # the same point on a parameter axis: w = -e B0 beta/2 = -5e299
        p = PhysicalParams(kz=1.0)
        level, reason = level_axis(ModelKind.A, [QuantumState(0, 1)], p, "beta", [1.0, 1e300])
        assert reason.tolist() == [[Invalid.NONE, Invalid.NOT_FINITE_LEVEL]]
        assert level[0, 0] == energy(ModelKind.A, QuantumState(0, 1), p.replace(beta=1.0))
        assert np.isnan(level[0, 1])
        with pytest.raises(DomainError, match="^level not finite: .*, got inf$"):
            energy(ModelKind.A, QuantumState(0, 1), p.replace(beta=1e300))


class TestModelAWavefunction:
    def test_ground_state_nodeless(self, unit_params):
        rho = np.linspace(0.05, 30.0, 2000)
        u = wavefunction(ModelKind.A, QuantumState(0, 0), unit_params, rho, component="U")
        assert count_sign_changes(u) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_node_count_matches_n(self, n, unit_params):
        rho = np.linspace(0.01, 60.0, 6000)
        u = wavefunction(ModelKind.A, QuantumState(n, 1), unit_params, rho, component="U")
        assert count_sign_changes(u) == n

    def test_tail_decay_rate(self):
        params = PhysicalParams(kz=1.0)  # s = sqrt(2)
        state = QuantumState(0, 1)
        r1, r2 = 18.0, 19.0
        u1 = wavefunction(ModelKind.A, state, params, r1, component="U")
        u2 = wavefunction(ModelKind.A, state, params, r2, component="U")
        p = math.sqrt(1.0 + 1.0 / 16.0) + 0.5
        rate = -math.log((u2 / u1) / (r2 / r1) ** p) / (r2 - r1)
        assert rate == pytest.approx(math.sqrt(params.s_squared), rel=1e-12)

    def test_normalized_square_integral_is_one(self, unit_params):
        rho = np.linspace(1e-6, 60.0, 120001)
        u = wavefunction(ModelKind.A, QuantumState(2, 1), unit_params, rho, component="U")
        assert simpson(u**2, x=rho) == pytest.approx(1.0, rel=1e-6)

    def test_u_is_rho_r_over_sqrt_eta(self):
        params = PhysicalParams(eta=2.5, kz=0.5)
        state = QuantumState(1, -1)
        rho = np.array([0.3, 1.0, 4.0])
        r = wavefunction(ModelKind.A, state, params, rho, component="R")
        u = wavefunction(ModelKind.A, state, params, rho, component="U")
        np.testing.assert_allclose(u, rho * r / math.sqrt(params.eta), rtol=1e-13)


class TestModelBEnergy:
    def test_anchor_level(self, unit_params):
        assert energy(ModelKind.B, QuantumState(0, 1), unit_params) == pytest.approx(1.0, rel=1e-15)

    def test_first_excited_not_bound_at_anchor_params(self, unit_params):
        with pytest.raises(BoundStateError, match="not bound"):
            energy(ModelKind.B, QuantumState(1, 1), unit_params)

    def test_symmetric_point_has_no_bound_states(self):
        # w = 0 forces beta_acute = 2 e B0 mu w = 0, so the Coulomb
        # strength vanishes and no n_rho can satisfy the bound condition.
        params = PhysicalParams(beta=2.0)  # e = b0 = 1, m = 1 -> w = 0
        with pytest.raises(BoundStateError, match="not bound"):
            energy(ModelKind.B, QuantumState(0, 1), params)

    @given(
        m=st.integers(1, 6),
        mu=st.floats(min_value=0.5, max_value=2.0),
        beta=st.floats(min_value=-2.0, max_value=0.0),
        kz=st.floats(min_value=0.0, max_value=1.0),
        alpha=st.floats(min_value=-0.5, max_value=0.5),
        eta=st.floats(min_value=0.5, max_value=2.0),
        n=st.integers(0, 2),
    )
    def test_quantization_self_consistency(self, m, mu, beta, kz, alpha, eta, n):
        params = PhysicalParams(mu=mu, beta=beta, kz=kz, alpha_ab=alpha, eta=eta)
        state = QuantumState(n, m)
        mt = m - alpha
        beta_acute = 2.0 * mt * mu - mu * beta
        ell = beta_acute / (2.0 * math.sqrt(params.s_squared)) - n - 0.5
        assume(ell > 1e-6)
        E = energy(ModelKind.B, state, params)
        # |ell_acute|^2 = w^2 + 1/4 - eta E at the level
        assert w_of(state, params) ** 2 + 0.25 - eta * E == pytest.approx(ell**2, rel=1e-12)
        assert coulomb_of(state, params) == pytest.approx(beta_acute, rel=1e-12)

    def test_strictly_increasing_in_n(self):
        # at kz = 0 the bound condition is n < m - 1/2, so m = 5 admits n <= 4
        levels = [energy(ModelKind.B, QuantumState(n, 5), PhysicalParams()) for n in range(4)]
        assert all(b > a for a, b in zip(levels, levels[1:]))


class TestModelBWavefunction:
    def test_ground_state_nodeless(self):
        params = PhysicalParams(mu=2.0)
        rho = np.linspace(0.05, 30.0, 2000)
        r = wavefunction(ModelKind.B, QuantumState(0, 2), params, rho)
        assert count_sign_changes(r) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_node_count_matches_n(self, n):
        params = PhysicalParams(mu=1.0)
        rho = np.linspace(0.01, 40.0, 6000)
        u = wavefunction(ModelKind.B, QuantumState(n, 7), params, rho, component="U")
        assert count_sign_changes(u) == n

    def test_small_rho_exponent(self):
        params = PhysicalParams(mu=2.0, kz=1.0)
        state = QuantumState(0, 2)
        E = energy(ModelKind.B, state, params)
        ell = math.sqrt(w_of(state, params) ** 2 + 0.25 - params.eta * E)
        r1, r2 = 1e-4, 2e-4
        v1 = wavefunction(ModelKind.B, state, params, r1)
        v2 = wavefunction(ModelKind.B, state, params, r2)
        slope = math.log(v2 / v1) / math.log(r2 / r1)
        assert slope == pytest.approx(ell - 1.0, abs=1e-3)


class TestModelCCoefficients:
    """The paper's a1..a4 are the record's c2, c1 + v0, v0 + eta E and tail;
    model_c_coefficients divides them into the NU coefficients."""

    def test_a1_at_zero_w(self):
        eq = reduced_equation(ModelKind.C, QuantumState(0, 0), PhysicalParams(delta=0.1))
        assert eq.c2 == pytest.approx(-3.0 / 16.0, rel=1e-15)

    def test_a4_assembly(self):
        params = PhysicalParams(b0=0.0, kz=1.0, delta=0.1)
        eq = reduced_equation(ModelKind.C, QuantumState(0, 0), params)
        assert eq.tail == pytest.approx(1.0 + 0.01 / 16.0, rel=1e-15)

    def test_a3_carries_the_energy(self):
        params = PhysicalParams(delta=0.1, v0=0.7, eta=2.0)
        c = model_c_coefficients(QuantumState(0, 1), params, 1.3)
        assert c.a3t * params.delta == pytest.approx(0.7 + 2.0 * 1.3, rel=1e-15)

    def test_tilde_map(self):
        params = PhysicalParams(mu=0.15, delta=0.1)
        eq = reduced_equation(ModelKind.C, QuantumState(0, 1), params)
        c = model_c_coefficients(QuantumState(0, 1), params, 0.5)
        d = params.delta
        assert c.a1t == eq.c2
        assert c.a2t == pytest.approx(-(eq.c1 + eq.v0) / d, rel=1e-14)
        assert c.a3t == pytest.approx((eq.v0 + eq.eta * 0.5) / d, rel=1e-14)
        assert c.a4t == pytest.approx(eq.tail / d**2, rel=1e-14)

    def test_tilde_map_needs_positive_delta(self):
        eq = reduced_equation(ModelKind.C, QuantumState(0, 0), PhysicalParams())
        assert eq.tail == pytest.approx(1.0)  # plain coefficients still fine
        with pytest.raises(DomainError, match="model A reduction"):
            model_c_coefficients(QuantumState(0, 0), PhysicalParams(), 0.0)
        # delta^2 underflows to 0, or a4/delta^2 overflows: no ZeroDivisionError
        for delta in (1e-170, 1e-160):
            with pytest.raises(DomainError, match="delta"):
                model_c_coefficients(QuantumState(0, 0), PhysicalParams(delta=delta), 0.0)

    def test_kappa_upsilon_real_across_decay_scan(self, weak_field_params):
        for delta in np.linspace(0.05, 0.30, 11):
            params = weak_field_params.replace(delta=float(delta))
            state = QuantumState(0, 1)
            c = model_c_coefficients(state, params, energy(ModelKind.C, state, params))
            assert math.isfinite(c.kappa) and math.isfinite(c.upsilon)


class TestModelCEnergy:
    def test_reduction_at_zero_delta(self, unit_params):
        state = QuantumState(0, 0)
        assert energy(ModelKind.C, state, unit_params) == energy(ModelKind.A, state, unit_params)
        assert energy(ModelKind.C, state, unit_params) == pytest.approx(1.5, rel=1e-15)

    @given(**param_draws)
    @settings(max_examples=200)
    def test_reduction_identity(self, e, b0, mu, beta, kz, eta, alpha, m, n):
        params = PhysicalParams(e=e, b0=b0, mu=mu, beta=beta, kz=kz, eta=eta, alpha_ab=alpha)
        assume(params.s_squared > 1e-12)
        state = QuantumState(n, m)
        ec = energy(ModelKind.C, state, params)
        ea = energy(ModelKind.A, state, params)
        assert ec == pytest.approx(ea, rel=1e-12)

    def test_level_where_both_roots_and_y_vanish(self):
        # at delta = 0 with no field and kz = 0, sqrt(r0) = 0 and y = 0, so
        # a = sqrt(r0) G + |y| is 0: the level is (-V1 - V0)/eta, without a
        # ZeroDivisionError at a point or a nan on an axis
        params = PhysicalParams(b0=0.0, v0=0.2, v1=0.3, v2=0.1, eta=2.0)
        state = QuantumState(1, 2)
        assert energy(ModelKind.C, state, params) == -0.25
        level, reason = level_axis(ModelKind.C, [state], params, "beta", [0.0, 1.0])
        assert level.tolist() == [[-0.25, -0.25]] and reason.tolist() == [[0, 0]]

    def test_constant_potential_shift(self, weak_field_params):
        state = QuantumState(1, 1)
        base = weak_field_params.replace(delta=0.1, eta=2.0)
        e0 = energy(ModelKind.C, state, base)
        e1 = energy(ModelKind.C, state, base.replace(v0=0.7))
        assert e1 - e0 == pytest.approx(-0.7 / 2.0, rel=1e-12)

    def test_weak_field_reference_level(self, weak_field_params):
        # frozen after cross-checking the quantization round trip and the
        # independent eigensolver (see the acceptance tests)
        value = energy(ModelKind.C, QuantumState(0, 1), weak_field_params.replace(delta=0.1))
        assert value == pytest.approx(0.26956211613022885, rel=1e-12)

    def test_negative_radicand_rejected(self):
        params = PhysicalParams(delta=0.5, v1=10.0)
        with pytest.raises(DomainError, match="no real bound level"):
            energy(ModelKind.C, QuantumState(0, 0), params)

    def test_strictly_increasing_in_n(self, weak_field_params):
        params = weak_field_params.replace(delta=0.1)
        levels = [energy(ModelKind.C, QuantumState(n, 1), params) for n in range(6)]
        assert all(b > a for a, b in zip(levels, levels[1:]))


def _gauss_panels(count, order=24):
    """Nodes and weights of count equal Gauss-Legendre panels on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    lo = np.arange(count)[:, None] / count
    return (lo + (x + 1.0) / (2 * count)).ravel(), np.tile(w / (2 * count), count)


GRADED_RULES = (_gauss_panels(8), _gauss_panels(16))


def graded_norms(u_of, radius=16.0):
    """(I_m, I_2m): the integral of u_of(rho)^2 over (0, R] in rho = R t^2,
    by m = 8 and 2m = 16 Gauss-Legendre panels of 24 nodes in t. The rule
    is graded towards rho = 0, where U ~ rho^p. R doubles from radius until
    U(R)^2 <= 1e-30 max U^2; each R takes one vectorized u_of call on both
    rules' nodes."""
    t = np.concatenate([nodes for nodes, _ in GRADED_RULES])
    while True:
        u = u_of(np.append(radius * t * t, radius))
        if u[-1] ** 2 <= 1e-30 * np.max(u * u):
            break
        radius *= 2.0
    integrand = u[:-1] ** 2 * 2.0 * radius * t  # U^2 drho/dt
    parts = np.split(integrand, [GRADED_RULES[0][0].size])
    return [float(weights @ part) for (_, weights), part in zip(GRADED_RULES, parts)]


class TestModelCWavefunction:
    def test_ground_state_nodeless_both_forms(self, weak_field_params):
        params = weak_field_params.replace(delta=0.1)
        rho = np.linspace(0.05, 40.0, 2000)
        for form in ("paper", "xi"):
            r = wavefunction(ModelKind.C, QuantumState(0, 1), params, rho, form=form)
            assert count_sign_changes(r) == 0

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_node_count_matches_n(self, n, weak_field_params):
        params = weak_field_params.replace(delta=0.1)
        rho = np.linspace(0.01, 120.0, 12000)
        u = wavefunction(ModelKind.C, QuantumState(n, 1), params, rho, component="U", form="xi")
        assert count_sign_changes(u) == n

    def test_forms_agree_at_small_delta_rho(self, weak_field_params):
        params = weak_field_params.replace(delta=0.1)
        state = QuantumState(0, 1)

        def ratio(rho):
            # the raw closed forms: the two normalizations differ
            a = _CLOSED_FORMS[ModelKind.C](state, params, "paper").u(rho)
            b = _CLOSED_FORMS[ModelKind.C](state, params, "xi").u(rho)
            return a / b

        assert abs(ratio(1e-3) - 1.0) <= 1e-4
        assert abs(ratio(1e-3) - 1.0) < abs(ratio(1.0) - 1.0)

    def test_xi_form_is_model_c_only(self, unit_params):
        with pytest.raises(DomainError, match="model C only"):
            wavefunction(ModelKind.A, QuantumState(0, 1), unit_params, 1.0, form="xi")

    def test_zero_delta_needs_reduction(self, unit_params):
        with pytest.raises(DomainError, match="model A reduction"):
            wavefunction(ModelKind.C, QuantumState(0, 1), unit_params, 1.0)

    @pytest.mark.parametrize("form", ["paper", "xi"])
    @pytest.mark.parametrize("delta", [1e-170, 1e-160])
    def test_tiny_delta_is_a_domain_error(self, delta, form):
        # delta^2 underflows to 0, or kappa^2 = 4 r0/delta^2 overflows: the
        # error names delta instead of a failed norm quadrature
        with pytest.raises(DomainError, match=f"delta = {delta!r} is too small"):
            wavefunction(ModelKind.C, QuantumState(0, 1), PhysicalParams(delta=delta), 1.0,
                         form=form)

    @pytest.mark.parametrize("form", ["paper", "xi"])
    @pytest.mark.parametrize("delta", [1e-4, 1e-8, 1e-12, 1e-14, 1e-30])
    def test_unit_norm_as_delta_vanishes(self, delta, form):
        # the paper form's norm raised from delta = 1e-4 on, and the xi
        # form's integral was off by 1.4e-7 at 1e-8 and 1.2e-3 at 1e-12
        params = PhysicalParams(delta=delta)
        for state in (QuantumState(n, m) for n in range(6) for m in range(-3, 4)):
            coarse, fine = graded_norms(
                lambda rho: wavefunction(ModelKind.C, state, params, rho, form=form, component="U")
            )
            assert abs(coarse - fine) <= 1e-14, (state, coarse, fine)
            assert abs(fine - 1.0) <= 1e-12, (state, fine)

    def test_tends_to_model_a_as_delta_vanishes(self):
        # P_n^(kappa,upsilon)(1 - 2 e^(-delta rho)) -> (-1)^n L_n^upsilon(2 s rho)
        # as kappa ~ 2 s/delta grows, and upsilon = 2 G is model A's a = 2 ell
        rho = np.linspace(0.01, 40.0, 2000)
        params = PhysicalParams(delta=1e-12)
        for state in (QuantumState(n, m) for n in range(6) for m in range(-3, 4)):
            u_a = wavefunction(ModelKind.A, state, PhysicalParams(), rho, component="U")
            for form in ("paper", "xi"):
                u_c = wavefunction(ModelKind.C, state, params, rho, form=form, component="U")
                gap = np.max(np.abs((-1) ** state.n_rho * u_c - u_a)) / np.max(np.abs(u_a))
                assert gap <= 1e-9, (state, form, gap)

    @given(
        state=st.tuples(st.integers(0, 3), st.integers(-3, 3)),
        mu=st.floats(0.1, 0.5), delta=st.floats(0.02, 0.3), beta=st.floats(-5.0, 1.0),
        kz=st.floats(0.0, 1.0), alpha=st.floats(-0.5, 0.5), eta=st.floats(0.5, 1.5),
        form=st.sampled_from(["paper", "xi"]),
    )
    def test_exponents_are_the_nu_solution(self, state, mu, delta, beta, kz, alpha, eta, form):
        # the form's kappa = 2 sqrt(r0)/delta and upsilon = 2 G come from the
        # level kernel; the NU reduction of the reduced equation gives them
        # from other sums. Over the benchmark's model C draw space
        # r0 = (delta w - mu)^2 + delta^2/4 + kz^2 >= delta^2/4, so the two
        # roundings of r0 stay far below the bound
        params = PhysicalParams(mu=mu, delta=delta, beta=beta, kz=kz, alpha_ab=alpha, eta=eta)
        state = QuantumState(*state)
        assume(reduced_equation(ModelKind.C, state, params, "ga").tail > 1e-9)
        norm = _CLOSED_FORMS[ModelKind.C](state, params, form).norm
        c = model_c_coefficients(state, params, energy(ModelKind.C, state, params))
        assert norm[2] == pytest.approx(c.kappa, rel=1e-12, abs=0.0)
        assert norm[3] == pytest.approx(c.upsilon, rel=1e-12, abs=0.0)


class TestExactNorms:
    """Unit norm of U by adaptive quadrature. The first three cases are
    cold tables whose norm the former 20001-point Simpson normalizer got
    wrong by 8e-7 to 5.5e-6."""

    @pytest.mark.parametrize(
        "kind, state, params, form",
        [
            (ModelKind.B, (0, 0),
             dict(beta=-1.172, kz=0.621, alpha_ab=0.012, eta=1.302, mu=1.78), "paper"),
            (ModelKind.B, (3, 2),
             dict(beta=-2.718, kz=0.191, alpha_ab=-0.164, eta=0.806, mu=1.719), "paper"),
            (ModelKind.C, (3, 0), dict(delta=0.268, mu=0.385), "xi"),
            (ModelKind.A, (2, -1), dict(kz=0.4, beta=-0.5), "paper"),
            (ModelKind.C, (2, 1), dict(delta=0.05, mu=0.3), "paper"),
            (ModelKind.C, (1, -2), dict(delta=0.2, mu=0.4, kz=0.3), "paper"),
        ],
    )
    def test_unit_norm(self, kind, state, params, form):
        params = PhysicalParams(**params)
        state = QuantumState(*state)

        def u2(rho):
            return wavefunction(kind, state, params, rho, form=form, component="U") ** 2

        integral = quad(u2, 0.0, np.inf, limit=1000, epsabs=0.0, epsrel=1e-12)[0]
        assert abs(integral - 1.0) <= 1e-9


CURVATURE_CASES = [
    (ModelKind.A, (2, -1), dict(kz=0.4, beta=-0.5), "paper"),
    (ModelKind.B, (3, 2), dict(beta=-2.718, kz=0.191, alpha_ab=-0.164, eta=0.806, mu=1.719),
     "paper"),
    (ModelKind.C, (3, 0), dict(delta=0.268, mu=0.385), "xi"),
    (ModelKind.C, (2, 1), dict(delta=0.05, mu=0.3), "paper"),
]


def polynomial_zeros(kind, state, params, form):
    """The zeros of the closed form's P_n mapped to rho, from scipy's Gauss
    rules: L_n^a in x = 2 s rho, or P_n^(kappa,upsilon) in y = 1 + z =
    2 (1 - e^(-delta rho)) for model C."""
    _, n, a, b, _ = _CLOSED_FORMS[kind](state, params, form).norm
    if kind is not ModelKind.C:
        return roots_genlaguerre(n, a)[0] / (2.0 * math.sqrt(params.s_squared))
    return -np.log1p(-0.5 * (1.0 + roots_jacobi(n, a, b)[0])) / params.delta


# Parameter draws of the Gauss-rule property: the closed-form identities'
# ranges for models A and B, the oracle-verify benchmark's for model C.
AB_DRAWS = st.fixed_dictionaries({name: param_draws[name if name != "alpha_ab" else "alpha"]
                                  for name in ("e", "b0", "mu", "beta", "kz", "eta", "alpha_ab")})
C_DRAWS = st.fixed_dictionaries(dict(
    mu=st.floats(0.1, 0.5), delta=st.floats(0.02, 0.3), beta=st.floats(-5.0, 1.0),
    kz=st.floats(0.0, 1.0), alpha_ab=st.floats(-0.5, 0.5), eta=st.floats(0.5, 1.5),
))


def rounding_scale(eq, rho, level, u):
    """The largest term of (W - Et) U over rho, in units of max|U|: W and
    the residual round at about eps times it."""
    r = 1.0 / rho if eq.target == "exact" else eq.delta / -np.expm1(-eq.delta * rho)
    terms = (abs(eq.c2) * r * r + abs(eq.c1) * r + np.abs(eq.smooth(rho))
             + abs(level) * eq.mass(rho) + abs(eq.et))
    return np.max(terms * np.abs(u)) / np.max(np.abs(u))


class TestCurvature:
    """models.curvature: U from the same assembly as wavefunction, U'' exact
    from the polynomial's derivative identity and differential equation, on
    the Gauss nodes of the closed form's own polynomial. The "window" of the
    test names is the span of those nodes."""

    @pytest.mark.parametrize("kind, state, params, form", CURVATURE_CASES,
                             ids=["A", "B", "C-xi", "C-paper"])
    def test_u_is_the_wavefunction_and_u_second_its_curvature(self, kind, state, params, form):
        params, state = PhysicalParams(**params), QuantumState(*state)
        rho, u, upp = curvature(kind, state, params, form=form)
        assert np.array_equal(u, wavefunction(kind, state, params, rho, form=form, component="U"))
        # a five-point stencil of the wavefunction at the same Gauss nodes,
        # accurate to about 1e-7 of max|U''|
        h = 1e-3 * rho

        def f(r):
            return wavefunction(kind, state, params, r, form=form, component="U")

        stencil = (-f(rho - 2 * h) + 16 * f(rho - h) - 30 * u + 16 * f(rho + h)
                   - f(rho + 2 * h)) / (12 * h * h)
        assert np.max(np.abs(upp - stencil)) <= 1e-6 * np.max(np.abs(upp))

    @pytest.mark.parametrize("kind, state, params, form", CURVATURE_CASES,
                             ids=["A", "B", "C-xi", "C-paper"])
    def test_window_ends_in_the_tail(self, kind, state, params, form):
        # M = 2 n + 16 nodes whose first and last bracket every zero of P_n,
        # so U's monotone tails at both ends each hold a node
        params, state = PhysicalParams(**params), QuantumState(*state)
        rho, u, _ = curvature(kind, state, params, form=form)
        zeros = polynomial_zeros(kind, state, params, form)
        assert rho.size == 2 * state.n_rho + 16 and np.all(np.diff(rho) > 0)
        assert rho[0] < zeros[0] and zeros[-1] < rho[-1]
        assert np.all(np.isfinite(u)) and np.all(rho > 0)

    @settings(max_examples=150)
    @example(kind_form=(ModelKind.A, "paper"), n=40, m=1, m_b=0, ab=dict(beta=0.5, kz=1.0), c={})
    @example(kind_form=(ModelKind.A, "paper"), n=80, m=1, m_b=0, ab=dict(beta=0.5, kz=1.0), c={})
    @example(kind_form=(ModelKind.C, "xi"), n=80, m=1, m_b=0, ab={}, c=dict(mu=0.15, delta=0.1))
    @given(kind_form=st.sampled_from([(ModelKind.A, "paper"), (ModelKind.B, "paper"),
                                      (ModelKind.C, "paper"), (ModelKind.C, "xi")]),
           n=st.integers(0, 80), m=st.integers(-4, 4), m_b=st.integers(-85, 85),
           ab=AB_DRAWS, c=C_DRAWS)
    def test_nodes_count_n_rho_and_the_residual_is_rounding(self, kind_form, n, m, m_b, ab, c):
        # The window from rho = 0.05 read 39, 79 and 68 nodes on the three
        # examples. Model B takes |m| up to 85, so that high n_rho are bound.
        # The residual is 1e-12 plus 32 roundings of the largest term of
        # (W - Et) U: at n_rho ~ 80 the first node's W U alone rounds at up
        # to 4e-12 of max|U|, and model B's c2/rho^2 - E eta/rho^2 at large
        # |m| cancels to far less than either term.
        kind, form = kind_form
        params = PhysicalParams(**(c if kind is ModelKind.C else ab))
        assume(params.s_squared > 1e-12)  # as in the quantization identities
        state = QuantumState(n, m_b if kind is ModelKind.B else m)
        try:
            level = energy(kind, state, params)
        except (BoundStateError, DomainError):  # not bound, or no real level
            assume(False)
        rho, u, upp = curvature(kind, state, params, form=form)
        assert node_count(u) == n
        if kind is ModelKind.C and (form == "paper" or n > 30):
            return  # the paper form solves no equation; xi's residual is checked to n_rho = 30
        eq = reduced_equation(kind, state, params, "ga" if kind is ModelKind.C else "exact")
        res = residual(u, upp, eq.potential(rho, level), eq.et)
        assert res <= 1e-12 + 32 * np.finfo(float).eps * rounding_scale(eq, rho, level, u)

    def test_wide_model_b_state_stays_finite(self):
        # B (0, -65) at e = -1, mu = 2^-9 (E = 65) has its Gauss nodes at
        # rho ~ 1.9e4-6.0e4, where rho^p (p = 65.5) alone overflowed to inf
        # before e^(-s rho) and the norm (2.3e-268) brought U back into range
        state, params = QuantumState(0, -65), PhysicalParams(e=-1.0, mu=2.0**-9)
        level = energy(ModelKind.B, state, params)
        rho, u, upp = curvature(ModelKind.B, state, params)
        eq = reduced_equation(ModelKind.B, state, params)
        assert rho[0] > 1e4 and node_count(u) == 0
        assert residual(u, upp, eq.potential(rho, level), eq.et) <= 1e-12

    @pytest.mark.parametrize("delta", [0.01, 0.1, 0.5])
    def test_model_c_defaults_to_its_eigenfunction(self, delta):
        # ROADMAP item 16: form None is 'xi' for model C, the eigenfunction of
        # the 'ga' equation at its level; 'paper', the paper's printed
        # formula, stays selectable and solves neither equation
        params = PhysicalParams(mu=0.3, v0=0.2, delta=delta)
        for state in (QuantumState(0, 1), QuantumState(2, -1), QuantumState(1, 0)):
            eq = reduced_equation(ModelKind.C, state, params, "ga")
            level = energy(ModelKind.C, state, params)

            def res(form):
                rho, u, upp = curvature(ModelKind.C, state, params, form=form)
                return residual(u, upp, eq.potential(rho, level), eq.et)

            assert res(None) == res("xi") <= 1e-12
            assert res("paper") >= 1e-3
            rho = np.linspace(0.05, 30.0, 7)
            np.testing.assert_array_equal(wavefunction(ModelKind.C, state, params, rho),
                                          wavefunction(ModelKind.C, state, params, rho, form="xi"))
        # models A and B have the one form
        rho, state, params = np.linspace(0.05, 30.0, 7), QuantumState(1, 1), PhysicalParams()
        np.testing.assert_array_equal(wavefunction(ModelKind.A, state, params, rho),
                                      wavefunction(ModelKind.A, state, params, rho, form="paper"))

    def test_fast_tail_keeps_the_window_at_30(self):
        # s = 3: the 16 Gauss-Laguerre nodes in x = 2 s rho all lie below
        # rho = 30, where U is far below 1e-12 of its peak already
        params = PhysicalParams(mu=3.0)
        rho, _, _ = curvature(ModelKind.A, QuantumState(0, 0), params)
        a = _CLOSED_FORMS[ModelKind.A](QuantumState(0, 0), params, "paper").norm[2]
        np.testing.assert_allclose(rho, roots_genlaguerre(16, a)[0] / 6.0, rtol=1e-12)
        assert rho[-1] < 30.0

    def test_slow_tail_moves_the_window_out(self):
        # C (3, 3) at mu = 0.15, delta = 0.05: U decays like e^(-0.025 rho)
        # and is still 0.4 of its peak at rho = 30; the Jacobi nodes follow it
        state, params = QuantumState(3, 3), PhysicalParams(mu=0.15, delta=0.05)
        rho, u, _ = curvature(ModelKind.C, state, params, form="xi")
        assert np.count_nonzero(rho > 30.0) >= 3
        u30 = wavefunction(ModelKind.C, state, params, 30.0, form="xi", component="U")
        assert abs(u30) >= 0.3 * np.max(np.abs(u))


class TestLevelAxis:
    def test_shape_codes_and_nan_where_invalid(self):
        values = np.array([-1.0, 0.0, 0.5, np.inf, 2.0])
        levels, reasons = level_axis(
            ModelKind.A, (QuantumState(0, 1),), PhysicalParams(kz=0.0), "b0", values
        )
        assert levels.shape == reasons.shape == (1, values.size)
        levels, reasons = levels[0], reasons[0]
        assert reasons.tolist() == [
            Invalid.NEGATIVE, Invalid.NO_SCALE, Invalid.NONE, Invalid.NOT_FINITE, Invalid.NONE
        ]
        assert np.isnan(levels[reasons != 0]).all()
        for value, level in zip(values[reasons == 0], levels[reasons == 0]):
            at = PhysicalParams(kz=0.0, b0=value)
            assert level == energy(ModelKind.A, QuantumState(0, 1), at)

    def test_a_field_the_level_ignores_broadcasts(self):
        # model A does not depend on delta: one value, repeated
        levels, reasons = level_axis(
            ModelKind.A, (QuantumState(0, 0),), PhysicalParams(), "delta", [0.1, 0.2, -0.1]
        )
        assert levels[0, :2].tolist() == [1.5, 1.5]
        assert reasons[0].tolist() == [0, 0, Invalid.NEGATIVE]

    def test_models_a_and_b_mark_a_potential(self):
        for kind in (ModelKind.A, ModelKind.B):
            levels, reasons = level_axis(
                kind, (QuantumState(0, 1),), PhysicalParams(v2=0.3), "beta", [-1.0, 0.0]
            )
            assert reasons[0].tolist() == [Invalid.POTENTIAL] * 2
            assert np.isnan(levels[0]).all()

    @pytest.mark.parametrize(
        "kind, params, name, values",
        [
            (ModelKind.A, PhysicalParams(), "b0", [-1.0, 0.0, 0.5, np.inf, 2.0]),
            (ModelKind.A, PhysicalParams(v2=0.3), "beta", [-1.0, 0.0, 2.5]),
            # (0, 0) and (2, 1) are not bound at beta = 0, kz = 0.5
            (ModelKind.B, PhysicalParams(kz=0.5), "mu", [-1.0, 0.0, 0.3, 1.0, 4.0, np.nan]),
            (ModelKind.C, PhysicalParams(mu=0.15, delta=0.1, v0=0.1, v1=0.2), "delta",
             [-0.5, 0.0, 0.05, 0.1, 1.0, 1e300]),
        ],
        ids=["A", "A-potential", "B", "C"],
    )
    def test_one_call_over_states_equals_one_call_per_state(self, kind, params, name, values):
        states = (QuantumState(0, 0), QuantumState(2, 1), QuantumState(0, 1),
                  QuantumState(1, -2), QuantumState(3, 4))
        levels, reasons = level_axis(kind, states, params, name, values)
        assert levels.shape == reasons.shape == (5, len(values))
        for i, state in enumerate(states):
            level, reason = level_axis(kind, (state,), params, name, values)
            assert levels[i].tobytes() == level[0].tobytes()
            assert reasons[i].tobytes() == reason[0].tobytes()
        if kind is ModelKind.B:
            assert (reasons[0] != 0).all() and (reasons[2, 2:5] == 0).all()

    def test_quantum_numbers_are_exact_in_int64(self):
        # n_rho enters the kernels as n^2 + n, 2n + 1 and n + 1/2, m only as
        # m - alpha_ab: int64 columns give energy's floats while n^2 + n is
        # below 2^63 and m is an int64
        big_n, big_m = 3037000499, 2**63 - 1
        params = PhysicalParams(mu=0.15, delta=0.1, alpha_ab=0.3)
        states = (QuantumState(big_n, 0), QuantumState(0, 3_000_000_000),
                  QuantumState(big_n, big_m), QuantumState(big_n, -big_m - 1))
        for kind in (ModelKind.A, ModelKind.C):
            levels, reasons = level_axis(kind, states, params.replace(delta=0.0)
                                         if kind is ModelKind.A else params, "beta", [0.0, 0.5])
            for state, row in zip(states, levels):
                for beta, level in zip((0.0, 0.5), row):
                    point = params.replace(beta=beta, delta=0.0 if kind is ModelKind.A else 0.1)
                    assert level.hex() == energy(kind, state, point).hex()
            assert (reasons == 0).all()
        for state in (QuantumState(big_n + 1, 0), QuantumState(0, big_m + 1),
                      QuantumState(0, -big_m - 2)):
            with pytest.raises(DomainError, match="n_rho\\^2 \\+ n_rho below 2\\^63 and m in int64"):
                level_axis(ModelKind.C, (state,), params, "beta", [0.0])

    def test_unknown_axis_rejected(self):
        with pytest.raises(DomainError, match="cannot sweep 'eta'"):
            level_axis(ModelKind.A, (QuantumState(0, 0),), PhysicalParams(), "eta", [1.0])


class TestGreeneAldrich:
    def test_fields_and_exact_part(self):
        out = greene_aldrich(0.5, 1.0)
        assert out.exact == 2.0
        assert out.approx == pytest.approx(1.0 / (1.0 - math.exp(-0.5)), rel=1e-14)
        assert out.rel_err == pytest.approx(abs(out.approx - out.exact) * 0.5, rel=1e-14)

    def test_small_argument_error(self):
        # error ~ delta*rho/2 for small arguments
        out = greene_aldrich(0.01, 0.1)
        assert out.rel_err == pytest.approx(5e-4, rel=2e-3)
        assert greene_aldrich(1e-10, 0.1).rel_err <= 1e-9

    def test_reference_value_at_hundredth(self):
        assert greene_aldrich(0.01, 1.0).rel_err == pytest.approx(
            0.0050083333194443471, rel=1e-12
        )

    def test_large_argument_is_useless(self):
        assert greene_aldrich(10.0, 1.0).rel_err == pytest.approx(9.0, abs=0.01)

    def test_monotone_in_delta_rho(self):
        rho = np.linspace(0.01, 2.0, 400)
        rel = greene_aldrich(rho, 1.0).rel_err
        assert np.all(np.diff(rel) > 0)

    def test_overflowing_error_is_rejected(self):
        # the error grows like delta rho / 2: past the largest double it was inf
        with pytest.raises(DomainError, match="overflows"):
            greene_aldrich(np.array([0.5, 1.5]), 1.7e308)

    def test_rejects_nonpositive_inputs(self):
        for rho, delta in [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)]:
            with pytest.raises(DomainError):
                greene_aldrich(rho, delta)


class TestDispatch:
    def test_energy_and_wavefunction_route_by_kind(self, unit_params):
        state = QuantumState(0, 1)
        ell = math.sqrt(1.0 + 1.0 / 16.0)  # w = 1 at the unit parameters
        assert energy(ModelKind.A, state, unit_params) == pytest.approx(2.0 * ell - 1.0, rel=1e-15)
        assert energy(ModelKind.B, state, unit_params) == pytest.approx(1.0, rel=1e-15)
        params_c = unit_params.replace(delta=0.1, mu=0.15)
        assert energy(ModelKind.C, state, params_c) != energy(ModelKind.A, state, params_c)
        # each kind gets its own closed form and its own R factor
        rho = np.array([1.0, 2.0])
        s = math.sqrt(unit_params.s_squared)
        explicit = rho ** (ell + 0.5) * np.exp(-s * rho) * (1.0 + 2.0 * ell - 2.0 * s * rho)
        np.testing.assert_allclose(
            _CLOSED_FORMS[ModelKind.A](QuantumState(1, 1), unit_params, "paper").u(rho),
            explicit,
            rtol=1e-14,
        )
        for kind, params, factor in (
            (ModelKind.A, unit_params, 1.0 / rho),
            (ModelKind.B, unit_params, rho**-1.5),
            (ModelKind.C, params_c, np.exp(-0.05 * rho) / rho),
        ):
            u = wavefunction(kind, state, params, rho, component="U")
            r = wavefunction(kind, state, params, rho, component="R")
            np.testing.assert_allclose(r, factor * u, rtol=1e-14)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_overflow_is_a_domain_error(self, kind):
        # a square beyond the largest double (e B0 mu = 1e200 for A and C,
        # (kz w/s)^2 with w = 5e199 for B): a DomainError naming the cause,
        # never an OverflowError or an inf/nan level
        params = {
            ModelKind.A: PhysicalParams(mu=1e200),
            ModelKind.B: PhysicalParams(beta=-1e200, kz=1.0),
            ModelKind.C: PhysicalParams(mu=1e200, delta=0.1),
        }[kind]
        with pytest.raises(DomainError, match="too large for double precision"):
            energy(kind, QuantumState(0, 0), params)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(form="bad"), "form must be 'paper' or 'xi', got 'bad'"),
        (dict(component="V"), "component must be 'R' or 'U', got 'V'"),
    ], ids=["form", "component"])
    def test_wavefunction_options_name_the_condition(self, kwargs, message, unit_params):
        with pytest.raises(DomainError, match=f"^{message}$"):
            wavefunction(ModelKind.A, QuantumState(0, 1), unit_params, 1.0, **kwargs)

    @pytest.mark.parametrize("kind", [ModelKind.A, ModelKind.B])
    @pytest.mark.parametrize("v", [dict(v0=0.2), dict(v1=-0.5), dict(v2=0.1)])
    def test_models_a_and_b_reject_a_potential(self, kind, v):
        # the V = 0 models: a potential is not silently dropped
        with pytest.raises(DomainError, match=r"need v0 = v1 = v2 = 0.*use model C"):
            energy(kind, QuantumState(0, 1), PhysicalParams(**v))
        with pytest.raises(DomainError, match="need v0 = v1 = v2 = 0"):
            wavefunction(kind, QuantumState(0, 1), PhysicalParams(**v), 1.0)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_radial_number_beyond_the_size_rule_is_rejected(self, kind, unit_params):
        # the Laguerre (A, B) and Jacobi (C) recurrences take n_rho steps,
        # about 11 s and 17 s at n_rho = 10^6; the rule runs before them
        state, params = QuantumState(10**6 + 1, 0), unit_params.replace(delta=0.1)
        message = "^n_rho must be at most 1000000 for a closed-form wavefunction, got 1000001$"
        with pytest.raises(DomainError, match=message):
            wavefunction(kind, state, params, 1.0)
        with pytest.raises(DomainError, match=message):
            curvature(kind, state, params)

    def test_table_that_underflows_is_an_error(self):
        # decay rate 1e150: every value of the table is 0 in double precision
        params = PhysicalParams(mu=1e150, beta=-1.0)
        rho = np.array([0.05, 15.0, 30.0])
        with pytest.raises(DomainError, match="underflows to 0 at every rho"):
            wavefunction(ModelKind.B, QuantumState(0, 1), params, rho)
        # a single point far in the tail is a legitimate 0
        assert wavefunction(ModelKind.A, QuantumState(0, 1), PhysicalParams(), 800.0) == 0.0

    def test_paper_form_overflows_to_inf_not_an_exception(self):
        # upsilon ~ 2e100 puts delta^((1+upsilon)/2) past the largest double;
        # this was an OverflowError
        params = PhysicalParams(e=8.0, delta=2.00001, v2=1e200, beta=-3.0, eta=1.7e308)
        with np.errstate(all="ignore"):
            u = _CLOSED_FORMS[ModelKind.C](QuantumState(1, 1), params, "paper").u(
                np.array([0.05, 1.0])
            )
        assert not np.isfinite(u).any()

    def test_sigma_other_than_one_has_no_closed_form(self):
        params = PhysicalParams(sigma=0.5)
        with pytest.raises(DomainError, match="sigma"):
            energy(ModelKind.A, QuantumState(0, 0), params)
