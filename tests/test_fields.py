"""Field generating function S, the field itself, and the vector potential.

The one identity everything hangs on: S(rho) + (rho/2) S'(rho) = mu/rho^sigma,
checked here by finite differences since S' is never implemented in closed
form anywhere in the package.
"""

import math

import numpy as np
import pytest

from nu_reference import verify_curl
from pdmag.errors import DomainError
from pdmag.fields import (
    field_table,
    magnetic_field,
    shape_function,
    vector_potential,
)
from pdmag.params import PhysicalParams


@pytest.mark.parametrize(
    "rho, kwargs, expected",
    [
        (5.0, dict(mu=1.0, sigma=0.0, beta=0.0), 1.0),
        (2.0, dict(mu=1.0, sigma=1.0, beta=0.0), 1.0),
        (1.0, dict(mu=1.0, sigma=1.0, beta=3.0), 5.0),
    ],
)
def test_shape_function_values(rho, kwargs, expected):
    assert shape_function(rho, PhysicalParams(**kwargs)) == pytest.approx(expected, rel=1e-15)


def test_shape_function_undefined_at_sigma_two():
    with pytest.raises(DomainError, match="sigma=2"):
        shape_function(1.0, PhysicalParams(sigma=2.0))


@pytest.mark.parametrize("rho", [0.0, -1.0])
def test_nonpositive_rho_rejected(rho):
    params = PhysicalParams()
    for fn in (shape_function, magnetic_field, vector_potential):
        with pytest.raises(DomainError):
            fn(rho, params)


@pytest.mark.parametrize(
    "rho, kwargs, expected",
    [
        (0.5, dict(b0=1.0, mu=1.0, sigma=1.0), 2.0),
        (7.0, dict(b0=3.0, mu=1.0, sigma=0.0), 3.0),
        # the field itself is fine at sigma=2; only S is excluded there
        (2.0, dict(b0=1.0, mu=4.0, sigma=2.0), 1.0),
    ],
)
def test_magnetic_field_values(rho, kwargs, expected):
    assert magnetic_field(rho, PhysicalParams(**kwargs)) == pytest.approx(expected, rel=1e-15)


def test_field_is_beta_independent():
    rhos = np.linspace(0.2, 8.0, 25)
    a = magnetic_field(rhos, PhysicalParams(beta=0.0))
    b = magnetic_field(rhos, PhysicalParams(beta=7.5))
    np.testing.assert_array_equal(a, b)


def test_sigma_zero_gives_constant_field():
    params = PhysicalParams(b0=2.5, mu=1.0, beta=0.0, sigma=0.0)
    for rho in (0.1, 1.0, 3.0, 50.0):
        assert magnetic_field(rho, params) == pytest.approx(2.5, rel=1e-15)


@pytest.mark.parametrize(
    "rho, kwargs, expected",
    [
        (1.0, dict(b0=0.0, alpha_ab=0.0), 0.0),
        (1.0, dict(b0=2.0, mu=1.0, sigma=1.0, beta=0.0, alpha_ab=0.0, e=1.0), 2.0),
        (2.0, dict(b0=0.0, alpha_ab=1.0, e=1.0), 0.5),
    ],
)
def test_vector_potential_values(rho, kwargs, expected):
    assert vector_potential(rho, PhysicalParams(**kwargs)) == pytest.approx(expected, abs=1e-15)


def test_flux_without_charge_rejected():
    with pytest.raises(DomainError, match="charge"):
        vector_potential(1.0, PhysicalParams(e=0.0, alpha_ab=0.5))


class TestShapeIdentity:
    """S + (rho/2) S' = mu / rho^sigma for every sigma except 2."""

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("beta", [0.0, -1.5])
    def test_identity_by_finite_differences(self, sigma, beta):
        params = PhysicalParams(mu=1.3, beta=beta, sigma=sigma)
        for rho in (0.3, 1.0, 2.7, 10.0):
            h = 1e-5 * rho
            ds = (shape_function(rho + h, params) - shape_function(rho - h, params)) / (2 * h)
            lhs = shape_function(rho, params) + 0.5 * rho * ds
            rhs = params.mu / rho**sigma
            assert lhs == pytest.approx(rhs, rel=1e-6)


class TestCurlCheck:
    def test_constant_field(self):
        residual = verify_curl(1.0, PhysicalParams(sigma=0.0), h=1e-4)
        assert residual <= 1e-6

    def test_inverse_linear_field(self):
        residual = verify_curl(2.0, PhysicalParams(sigma=1.0, beta=0.5), h=1e-4)
        assert residual <= 1e-6

    def test_field_off(self):
        assert verify_curl(1.0, PhysicalParams(b0=0.0), h=1e-4) <= 1e-12

    def test_default_step_is_relative(self):
        # the default h = 1e-4*rho must behave at large rho too
        assert verify_curl(200.0, PhysicalParams(sigma=0.5)) <= 1e-6

    @pytest.mark.parametrize("h", [1.5, 2.0])
    def test_step_that_leaves_the_half_line_is_rejected(self, h):
        with pytest.raises(DomainError, match=f"^need rho - h > 0, got rho=1.5, h={h}$"):
            verify_curl(1.5, PhysicalParams(), h=h)

    def test_second_order_in_h(self):
        # sigma=3 makes rho*A1 genuinely curved, so the h^2 error is visible
        params = PhysicalParams(sigma=3.0)
        r4 = verify_curl(1.5, params, h=1e-2)
        r8 = verify_curl(1.5, params, h=5e-3)
        assert r4 / r8 == pytest.approx(4.0, rel=0.05)


def test_field_table_matches_pointwise():
    # the table's array evaluation is bit for bit the scalar one, which
    # keeps `pdmag field` output unchanged
    rhos = np.geomspace(1e-3, 1e3, 401)
    for sigma in (-1.0, 0.0, 0.5, 1.0, 1.5, 3.0):
        params = PhysicalParams(b0=1.2, mu=0.7, beta=0.4, sigma=sigma, alpha_ab=0.3)
        s, b_z, a_phi = field_table(rhos, params)
        assert s.tolist() == [shape_function(float(r), params) for r in rhos]
        assert b_z.tolist() == [magnetic_field(float(r), params) for r in rhos]
        assert a_phi.tolist() == [vector_potential(float(r), params) for r in rhos]


def test_array_evaluation_matches_scalars():
    params = PhysicalParams(beta=0.2, sigma=0.5)
    rhos = np.array([0.5, 1.0, 2.0])
    np.testing.assert_allclose(
        shape_function(rhos, params),
        [shape_function(r, params) for r in rhos],
        rtol=1e-15,
    )
    assert isinstance(shape_function(1.0, params), float)
