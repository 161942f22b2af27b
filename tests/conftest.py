import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from pdmag.params import PhysicalParams

# One shared profile: property tests here are numeric and occasionally slow
# per example (eigensolves), so the wall-clock deadline is disabled. The
# draws are derandomized (which also turns off the example database), so
# every run of the suite checks the same examples.
settings.register_profile(
    "pdmag", deadline=None, suppress_health_check=[HealthCheck.too_slow], derandomize=True
)
settings.load_profile("pdmag")


@pytest.fixture
def unit_params():
    """e = b0 = mu = eta = 1, everything else off (sigma = 1)."""
    return PhysicalParams()


@pytest.fixture
def weak_field_params():
    """Weak field amplitude (mu = 0.15), no flux, kz = 0.

    The screened-mass model is exercised at these values because its
    closed form is a small-rho approximation: a weak field keeps the
    wavefunction wide but the approximation error still visible.
    """
    return PhysicalParams(mu=0.15)


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
