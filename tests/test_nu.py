"""The parametric hypergeometric-type quantization.

Tests follow the NU pipeline: branch selection for k, the linear pi(xi),
the eigenvalue parameter lambda and its quantized counterpart, and the
quantization root. The bound solution and the weight are written inline
here; the library's copy of the solution is model C's 'xi' wavefunction.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from pdmag.errors import DomainError
from pdmag.models import ModelKind, model_c_coefficients, model_c_energy, wavefunction
from pdmag.nu import NUCoefficients, k_minus, lambda_n, lambda_of, nu_quantize, tau_prime
from pdmag.params import PhysicalParams, QuantumState
from pdmag.specfun import jacobi

# A draw of valid coefficients: a2t is derived so that
# u = a1t - a2t + a4t >= 0 holds by construction.
a1ts = st.floats(min_value=-0.2, max_value=3.0)
a3ts = st.floats(min_value=-10.0, max_value=10.0)
a4ts = st.floats(min_value=-1.0, max_value=3.0)
us = st.floats(min_value=0.0, max_value=4.0)


@st.composite
def coefficient_sets(draw):
    a1t = draw(a1ts)
    a4t = draw(a4ts)
    u = draw(us)
    a3t = draw(a3ts)
    a2t = a1t + a4t - u
    # rounding can push the reconstructed u a few ulp below zero
    assume(a1t - a2t + a4t >= 0.0)
    return NUCoefficients(a1t, a2t, a3t, a4t)


def pi_line(c):
    """Slope and intercept of pi(xi) = -xi/2 - [(sqrt_u + q) xi - sqrt_u]
    on the k_minus branch."""
    return -0.5 - c.sqrt_u - c.q, c.sqrt_u


def nu_solution(c, n, xi):
    """Bound solution U = xi^(kappa/2) (1-xi)^((1+upsilon)/2) P_n^(kappa,upsilon)(1-2xi)."""
    xi = np.asarray(xi, dtype=float)
    phi = np.power(xi, 0.5 * c.kappa) * np.power(1.0 - xi, 0.5 * (1.0 + c.upsilon))
    return phi * jacobi(n, c.kappa, c.upsilon, 1.0 - 2.0 * xi)


def weight(c, xi):
    """Orthogonality weight omega = xi^kappa (1-xi)^upsilon on (0, 1)."""
    return xi**c.kappa * (1.0 - xi) ** c.upsilon


def quadratic_under_root(c):
    """Coefficients (A, B, C) of the quadratic under the pi(xi) square root."""
    k = k_minus(c)
    a = 0.25 - k + c.a3t + c.a4t
    b = k - c.a3t - 2.0 * c.a4t + c.a2t
    return a, b, c.a1t - c.a2t + c.a4t


class TestKBranch:
    @pytest.mark.parametrize("a3t", [-2.0, 0.0, 0.7, 5.0])
    def test_all_zero_reduces_to_a3t(self, a3t):
        assert k_minus(NUCoefficients(0.0, 0.0, a3t, 0.0)) == a3t

    def test_direct_substitution(self):
        # -(2*0 - (-1) - 0) - sqrt((0 + 1 + 1)(0 + 1)) = -1 - sqrt(2)
        value = k_minus(NUCoefficients(0.0, -1.0, 0.0, 1.0))
        assert value == pytest.approx(-1.0 - math.sqrt(2.0), rel=1e-15)

    @given(c=coefficient_sets())
    def test_perfect_square_condition(self, c):
        a, b, const = quadratic_under_root(c)
        assert a >= 0
        assert abs(b * b - 4.0 * a * const) <= 1e-10 * max(1.0, b * b)


class TestPi:
    # lambda = k_minus + pi', so the slope of pi is lambda_of - k_minus
    def test_all_zero(self):
        c = NUCoefficients(0.0, 0.0, 0.0, 0.0)
        assert lambda_of(c) - k_minus(c) == -1.0
        assert pi_line(c) == (-1.0, 0.0)

    def test_unit_u(self):
        # u = 1, q = 1/2: slope -1/2 - 1 - 1/2, intercept sqrt(u)
        c = NUCoefficients(0.0, -1.0, 0.0, 0.0)
        assert lambda_of(c) - k_minus(c) == pytest.approx(-2.0, rel=1e-15)
        assert c.sqrt_u == pytest.approx(1.0, rel=1e-15)

    @given(c=coefficient_sets())
    def test_squared_linear_factor_matches_quadratic(self, c):
        # (pi + xi/2)^2 must reproduce the quadratic under the root
        # pointwise; the principal square root only fixes |pi + xi/2|.
        slope, intercept = pi_line(c)
        a, b, const = quadratic_under_root(c)
        xi = np.linspace(0.0, 1.0, 21)
        lhs = (slope * xi + intercept + xi / 2.0) ** 2
        rhs = a * xi**2 + b * xi + const
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    @given(c=coefficient_sets())
    def test_slope_is_lambda_minus_k(self, c):
        slope, _ = pi_line(c)
        k = k_minus(c)
        assert abs(lambda_of(c) - k - slope) <= 1e-14 * max(1.0, abs(k), abs(slope))

    @given(c=coefficient_sets())
    def test_tau_prime_negative(self, c):
        assert tau_prime(c) < 0
        slope, _ = pi_line(c)
        assert tau_prime(c) == pytest.approx(2.0 * slope - 1.0, rel=1e-15)


class TestLambda:
    def test_all_zero(self):
        assert lambda_of(NUCoefficients(0.0, 0.0, 0.0, 0.0)) == -1.0

    def test_quantized_values(self):
        zero = NUCoefficients(0.0, 0.0, 0.0, 0.0)
        assert lambda_n(zero, 0) == 0.0
        assert lambda_n(zero, 1) == 3.0
        assert lambda_n(NUCoefficients(0.0, -1.0, 0.0, 0.0), 2) == 12.0

    @given(c=coefficient_sets())
    def test_linear_in_a3t_with_unit_slope(self, c):
        shifted = NUCoefficients(c.a1t, c.a2t, c.a3t + 1.0, c.a4t)
        assert lambda_of(shifted) - lambda_of(c) == pytest.approx(1.0, rel=1e-12)

    @given(a1t=a1ts, a4t=a4ts, u=us, n=st.integers(0, 5))
    def test_quantize_round_trip(self, a1t, a4t, u, n):
        a2t = a1t + a4t - u
        assume(a1t - a2t + a4t >= 0.0)
        a3t = nu_quantize(a1t, a2t, a4t, n)
        c = NUCoefficients(a1t, a2t, a3t, a4t)
        lam = lambda_of(c)
        assert abs(lam - lambda_n(c, n)) <= 1e-10 * max(1.0, abs(lam))

    def test_quantize_simplest_case(self):
        # lambda(a3t) = a3t - 1 at all-zero coefficients, so lambda_0 = 0
        # pins a3t = 1.
        assert nu_quantize(0.0, 0.0, 0.0, 0) == pytest.approx(1.0, rel=1e-12)

    @given(a1t=a1ts, a4t=a4ts, u=us)
    def test_quantize_increases_with_n(self, a1t, a4t, u):
        a2t = a1t + a4t - u
        assume(a1t - a2t + a4t >= 0.0)
        values = [nu_quantize(a1t, a2t, a4t, n) for n in range(6)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_off_quantization_misses(self):
        a3t = nu_quantize(0.5, 0.0, 0.5, 2)
        c = NUCoefficients(0.5, 0.0, a3t + 1.0, 0.5)
        assert abs(lambda_of(c) - lambda_n(c, 2)) > 0.5


class TestEigenfunction:
    @given(c=coefficient_sets(), n=st.integers(0, 5))
    def test_boundary_zeros(self, c, n):
        if c.kappa > 0:
            assert nu_solution(c, n, 0.0) == 0.0
        assert nu_solution(c, n, 1.0) == 0.0

    def test_kappa_zero_endpoint_is_finite(self):
        c = NUCoefficients(0.5, 1.0, 0.0, 0.5)  # u = 0 exactly
        assert c.kappa == 0.0
        value = nu_solution(c, 0, 0.0)
        assert math.isfinite(value) and value == 1.0

    @given(c=coefficient_sets())
    def test_first_excited_has_one_interior_zero(self, c):
        xi = np.linspace(1e-6, 1.0 - 1e-6, 2001)
        u = nu_solution(c, 1, xi)
        signs = np.sign(u[np.abs(u) > 1e-12 * np.max(np.abs(u))])
        assert int(np.count_nonzero(signs[1:] != signs[:-1])) == 1

    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize("delta", [0.05, 0.2])
    def test_model_c_xi_form_is_the_nu_solution(self, n, delta):
        # U(rho) of model C's 'xi' form is the NU solution at its own
        # coefficients, xi = e^(-delta rho); it vanishes at both ends
        state, params = QuantumState(n, 1), PhysicalParams(mu=0.15, delta=delta)
        c = model_c_coefficients(state, params, model_c_energy(state, params)).nu_coefficients()
        rho = np.array([1e-300, 0.3, 2.0, 9.0, 40.0, 1e5])
        u = wavefunction(ModelKind.C, state, params, rho, form="xi", component="U", normalized=False)
        expected = nu_solution(c, n, np.exp(-delta * rho[1:-1]))
        assert np.allclose(u[1:-1], expected, rtol=1e-12, atol=0.0)
        assert abs(u[0]) < 1e-140 and u[-1] == 0.0

    @pytest.mark.parametrize("n", range(6))
    def test_hypergeometric_equation_residual(self, n):
        # sigma chi'' + tau chi' + lambda_n chi = 0 for the polynomial part,
        # with derivatives from five-point central stencils (exact through
        # degree five, so only rounding is left).
        rng = np.random.default_rng(11)
        for _ in range(20):
            a1t, a4t, u = rng.uniform(0.0, 2.0, size=3)
            c = NUCoefficients(a1t, a1t + a4t - u, 0.0, a4t)
            xi = np.linspace(0.01, 0.99, 197)
            h = 1e-3
            chi = [jacobi(n, c.kappa, c.upsilon, 1.0 - 2.0 * (xi + k * h)) for k in (-2, -1, 0, 1, 2)]
            d1 = (chi[0] - 8 * chi[1] + 8 * chi[3] - chi[4]) / (12 * h)
            d2 = (-chi[0] + 16 * chi[1] - 30 * chi[2] + 16 * chi[3] - chi[4]) / (12 * h * h)
            sigma = xi * (1.0 - xi)
            tau = (1.0 + c.kappa) - (2.0 + c.kappa + c.upsilon) * xi
            res = sigma * d2 + tau * d1 + lambda_n(c, n) * chi[2]
            assert np.max(np.abs(res)) <= 1e-7 * max(1.0, np.max(np.abs(chi[2])))


class TestWeight:
    def test_half_point(self):
        assert weight(NUCoefficients(0.0, 0.0, 0.0, 0.0), 0.5) == 0.5

    @given(c=coefficient_sets(), xi=st.floats(min_value=0.05, max_value=0.95))
    def test_nonnegative(self, c, xi):
        assert weight(c, xi) >= 0.0

    @given(c=coefficient_sets(), xi=st.floats(min_value=0.1, max_value=0.9))
    def test_pearson_relation(self, c, xi):
        # (sigma omega)' = tau omega, checked by central differences
        h = 1e-5

        def sw(z):
            return z * (1.0 - z) * weight(c, z)

        lhs = (sw(xi + h) - sw(xi - h)) / (2.0 * h)
        tau = (1.0 + c.kappa) - (2.0 + c.kappa + c.upsilon) * xi
        rhs = tau * weight(c, xi)
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


class TestInvariants:
    def test_imaginary_upsilon_rejected(self):
        with pytest.raises(DomainError, match="upsilon"):
            NUCoefficients(-0.5, 0.0, 0.0, 0.0)

    def test_imaginary_kappa_rejected(self):
        with pytest.raises(DomainError, match="kappa"):
            NUCoefficients(0.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, index, value):
        args = [0.0] * 4
        args[index] = value
        with pytest.raises(DomainError, match=f"a{index + 1}t must be finite"):
            NUCoefficients(*args)

    def test_quantize_rejects_non_finite_input(self):
        # both returned nan without an error before the finiteness check
        with pytest.raises(DomainError, match="a1t must be finite"):
            nu_quantize(math.nan, 0.0, 0.0, 0)
        with pytest.raises(DomainError, match="a4t must be finite"):
            nu_quantize(0.0, 0.0, math.inf, 0)
