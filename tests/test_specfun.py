"""Polynomial recurrences against explicit expansions, Rodrigues forms,
classical orthogonality, and the exact norms of the closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import roots_genlaguerre

from pdmag import specfun
from pdmag.errors import DomainError, NormalizationError
from pdmag.models import ModelKind, wavefunction
from pdmag.params import PhysicalParams, QuantumState
from pdmag.specfun import jacobi, laguerre, normalize

params_gt_minus_one = st.floats(min_value=-0.9, max_value=4.0)
xs = st.floats(min_value=-25.0, max_value=25.0)


# ---------------------------------------------------------------------------
# Laguerre
# ---------------------------------------------------------------------------


@given(a=params_gt_minus_one, x=xs)
def test_laguerre_degree_zero_and_one(a, x):
    assert laguerre(0, a, x) == 1.0
    assert laguerre(1, a, x) == pytest.approx(1.0 + a - x, rel=1e-13, abs=1e-13)


def test_laguerre_2_1_at_2():
    # brute-force oracle: the explicit quadratic (a+1)(a+2)/2 - (a+2)x + x^2/2
    a, x = 1.0, 2.0
    explicit = (a + 1) * (a + 2) / 2 - (a + 2) * x + x * x / 2
    assert explicit == -1.0
    assert laguerre(2, a, x) == pytest.approx(-1.0, abs=1e-14)


@given(a=params_gt_minus_one, x=xs)
def test_laguerre_explicit_low_degrees(a, x):
    l2 = (a + 1) * (a + 2) / 2 - (a + 2) * x + x * x / 2
    l3 = (
        (a + 1) * (a + 2) * (a + 3) / 6
        - (a + 2) * (a + 3) * x / 2
        + (a + 3) * x * x / 2
        - x**3 / 6
    )
    scale = max(1.0, abs(l2))
    assert abs(laguerre(2, a, x) - l2) <= 1e-13 * scale
    scale = max(1.0, abs(l3))
    assert abs(laguerre(3, a, x) - l3) <= 1e-13 * scale


@pytest.mark.parametrize("a", [0.0, 0.5, 2.0])
def test_laguerre_orthogonality(a):
    # Gauss-Laguerre quadrature with weight x^a e^-x is exact here
    nodes, weights = roots_genlaguerre(12, a)
    for m in range(6):
        norm_m = math.gamma(m + a + 1) / math.factorial(m)
        for n in range(m + 1, 6):
            inner = np.sum(weights * laguerre(m, a, nodes) * laguerre(n, a, nodes))
            assert abs(inner) <= 1e-10 * norm_m


@given(
    n=st.integers(0, 12),
    a=params_gt_minus_one,
    x=st.floats(min_value=0.0, max_value=40.0),
)
def test_laguerre_matches_scipy(n, a, x):
    from scipy.special import eval_genlaguerre

    ours = laguerre(n, a, x)
    ref = eval_genlaguerre(n, a, x)
    assert ours == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_laguerre_rejects_bad_degree():
    for bad in (-1, 1.5, True):
        with pytest.raises(DomainError):
            laguerre(bad, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Jacobi
# ---------------------------------------------------------------------------


@given(kappa=params_gt_minus_one, upsilon=params_gt_minus_one)
def test_jacobi_endpoint_value(kappa, upsilon):
    assert jacobi(0, kappa, upsilon, 0.3) == 1.0
    assert jacobi(1, kappa, upsilon, 1.0) == pytest.approx(kappa + 1.0, rel=1e-13, abs=1e-13)


def test_jacobi_symmetry():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 1.0, size=50)
    for n in range(11):
        for kappa, upsilon in [(0.0, 0.0), (0.5, 1.25), (2.0, 0.3)]:
            left = jacobi(n, kappa, upsilon, x)
            right = (-1.0) ** n * jacobi(n, upsilon, kappa, -x)
            np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-12)


def _iterated_diff(n, a, b, x, h):
    pts = x - n * h / 2 + h * np.arange(n + 1)
    g = (1 - pts) ** (a + n) * (1 + pts) ** (b + n)
    d = np.diff(g, n=n) / h**n if n else g
    return (
        (-1) ** n
        / (2**n * math.factorial(n))
        * (1 - x) ** (-a)
        * (1 + x) ** (-b)
        * d[0]
    )


def _rodrigues_fd(n, a, b, x, h=1e-2):
    """n-th derivative of (1-x)^(a+n) (1+x)^(b+n) by iterated differencing.

    The centered n-fold difference is second order in h; one halving step
    of Richardson extrapolation removes that term, which is needed to stay
    ahead of rounding at degree 4.
    """
    d1 = _iterated_diff(n, a, b, x, h)
    d2 = _iterated_diff(n, a, b, x, h / 2)
    return (4 * d2 - d1) / 3


@pytest.mark.parametrize("kappa, upsilon", [(0.0, 0.5), (0.5, 1.25), (1.0, 2.0)])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_jacobi_matches_rodrigues_form(n, kappa, upsilon):
    for x in (-0.4, 0.1, 0.55):
        ref = _rodrigues_fd(n, kappa, upsilon, x)
        assert jacobi(n, kappa, upsilon, x) == pytest.approx(ref, rel=1e-4, abs=1e-4)


@given(
    n=st.integers(1, 8),
    kappa=st.floats(min_value=-0.5, max_value=3.0),
    upsilon=st.floats(min_value=-0.5, max_value=3.0),
)
def test_jacobi_zero_count(n, kappa, upsilon):
    x = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 4001)
    values = jacobi(n, kappa, upsilon, x)
    signs = np.sign(values[np.abs(values) > 1e-13 * np.max(np.abs(values))])
    changes = int(np.count_nonzero(signs[1:] != signs[:-1]))
    assert changes == n


def test_jacobi_rejects_out_of_range():
    with pytest.raises(DomainError, match="> -1"):
        jacobi(2, -1.0, 0.0, 0.5)
    with pytest.raises(DomainError, match=r"\[-1, 1\]"):
        jacobi(2, 0.0, 0.0, 1.5)


def test_polynomial_point_values():
    assert laguerre(2, 1.0, 2.0) == pytest.approx(-1.0)
    assert jacobi(1, 0.5, 0.5, 1.0) == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# normalize: exact norms of the closed forms
# ---------------------------------------------------------------------------


def _integrand(form, n, a, b):
    """The unit-scale U^2 whose integral normalize(form, n, a, b) inverts."""
    if form == "laguerre":
        return lambda x: x ** (a + 1.0) * math.exp(-x) * laguerre(n, a, x) ** 2

    def p2(x):
        return jacobi(n, a, b, 1.0 - 2.0 * math.exp(-x)) ** 2

    if form == "xi":
        return lambda x: math.exp(-a * x) * (-math.expm1(-x)) ** (1.0 + b) * p2(x)
    return lambda x: x ** (1.0 + b) * math.exp(-a * x) * p2(x)


def _quad(f):
    return quad(f, 0.0, math.inf, limit=500, epsabs=0.0, epsrel=1e-13)[0]


def test_normalize_exponential():
    # n = 0: int rho e^(-2 rho) drho = 1/4 (model A shape with s = 1, a = 0),
    # int x^(1+b) e^(-a x) dx = Gamma(2+b)/a^(2+b) and
    # int e^(-a x) (1-e^(-x))^(1+b) dx = B(a, 2+b)
    n_exp = normalize("laguerre", 0, 0.0, log_scale=-2.0 * math.log(2.0))
    assert n_exp == pytest.approx(2.0, rel=1e-14)
    a, b = 2.5, 1.5
    gamma = math.gamma(2.0 + b) / a ** (2.0 + b)
    assert normalize("paper", 0, a, b) == pytest.approx(gamma**-0.5, rel=1e-13)
    beta = math.gamma(a) * math.gamma(2.0 + b) / math.gamma(a + 2.0 + b)
    assert normalize("xi", 0, a, b) == pytest.approx(beta**-0.5, rel=1e-13)


def test_normalize_round_trip():
    # n = 0 and a length scale: (N U)^2 with U(rho) = u(x), x = 3 rho,
    # integrates to 1
    for form in ("laguerre", "xi", "paper"):
        f = _integrand(form, 0, 1.5, 0.75)
        scale = normalize(form, 0, 1.5, 0.75, log_scale=-math.log(3.0))
        check = _quad(lambda rho: scale**2 * f(3.0 * rho))
        assert check == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("n", range(11))
@pytest.mark.parametrize("a", [0.0, 1.3, 9.0])
def test_laguerre_norm_matches_quad(n, a):
    integral = normalize("laguerre", n, a) ** -2
    assert integral == pytest.approx(_quad(_integrand("laguerre", n, a, 0.0)), rel=1e-10)


@pytest.mark.parametrize("n", [0, 1, 4, 9, 15])
@pytest.mark.parametrize("kappa", [0.5, 5.0, 30.0])
def test_xi_norm_matches_quad(n, kappa):
    integral = normalize("xi", n, kappa, 2.0) ** -2
    assert integral == pytest.approx(_quad(_integrand("xi", n, kappa, 2.0)), rel=1e-10)


@pytest.mark.parametrize("n", range(11))
@pytest.mark.parametrize("kappa", [0.5, 5.0, 60.0])
def test_paper_norm_matches_quad(n, kappa):
    for upsilon in (0.3, 2.0):
        integral = normalize("paper", n, kappa, upsilon) ** -2
        expected = _quad(_integrand("paper", n, kappa, upsilon))
        assert integral == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("m", [5, 20, 100])
@pytest.mark.parametrize("alpha", [0.3, 1.7, 8.5])
def test_gauss_laguerre_matches_scipy(m, alpha):
    nodes, weights = specfun._gauss_laguerre(m, alpha)
    ref_nodes, ref_weights = roots_genlaguerre(m, alpha)
    np.testing.assert_allclose(nodes, ref_nodes, rtol=1e-12)
    np.testing.assert_allclose(weights * math.gamma(alpha + 1.0), ref_weights, rtol=1e-11)


def test_normalize_stable_under_node_doubling():
    # a plain rule in y = kappa x gives the same integral at 256 and at 512
    # nodes, and the paper norm (another scale, its own stopping rule)
    # agrees with it
    n, kappa, upsilon = 3, 5.0, 2.0

    def rule(m):
        y, w = specfun._gauss_laguerre(m, 1.0 + upsilon)
        f = jacobi(n, kappa, upsilon, 1.0 - 2.0 * np.exp(-y / kappa)) ** 2
        return float(np.dot(w, f)) * math.gamma(2.0 + upsilon) / kappa ** (2.0 + upsilon)

    assert abs(rule(256) - rule(512)) <= 1e-13 * rule(512)
    assert normalize("paper", n, kappa, upsilon) ** -2 == pytest.approx(rule(512), rel=1e-13)


def test_normalize_rejects_divergent_tail():
    for form in ("xi", "paper"):
        with pytest.raises(NormalizationError, match="does not decay"):
            normalize(form, 0, 0.0, 1.0)
    # a model C state with kappa = 0 exactly: b0 = 0, kz = 1/2, V1 = 1/2 and
    # delta = 1 give a1t - a2t + a4t = -3/16 + 3/8 - 1/2 + 1/4 + 1/16 = 0
    params = PhysicalParams(b0=0.0, kz=0.5, v1=0.5, delta=1.0)
    for form in ("xi", "paper"):
        with pytest.raises(NormalizationError, match="does not decay"):
            wavefunction(ModelKind.C, QuantumState(0, 0), params, 1.0, form=form)


def test_normalize_rejects_a_norm_out_of_double_range():
    # was a math domain error (log of a ratio that underflows to 0) and an
    # OverflowError (N = e^1000)
    with pytest.raises(NormalizationError, match="double-precision range"):
        normalize("xi", 1, 1e308, 0.0)
    with pytest.raises(NormalizationError, match="double-precision range"):
        normalize("laguerre", 0, 0.0, 0.0, -2000.0)


def test_normalize_rejects_coarse_grid(monkeypatch):
    # a node budget too small for two rules to agree is rejected, not
    # answered with the coarse rule (kappa = 0.5, n = 10 needs about 200
    # nodes; the last two rules here have 32 and 64)
    monkeypatch.setattr(specfun, "_MAX_NODES", 64)
    with pytest.raises(NormalizationError, match="did not converge"):
        normalize("paper", 10, 0.5, 2.0)


def _record_rule_sizes(monkeypatch):
    sizes = []
    rule = specfun._gauss_laguerre

    def recording(m, alpha):
        sizes.append(m)
        return rule(m, alpha)

    monkeypatch.setattr(specfun, "_gauss_laguerre", recording)
    return sizes


@pytest.mark.parametrize("n, kappa, upsilon", [(0, 2.0, 1.0), (3, 0.7, 2.5), (10, 0.5, 2.0)])
def test_converged_paper_norm_doubles_from_2n_plus_32(monkeypatch, n, kappa, upsilon):
    sizes = _record_rule_sizes(monkeypatch)
    normalize("paper", n, kappa, upsilon)
    assert sizes == [(2 * n + 32) * 2**k for k in range(len(sizes))]


def test_unconverged_paper_norm_reaches_the_budget_and_reports_both_rules(monkeypatch):
    # was: rules of 34 .. 544 nodes, then a stop short of the 1024-node
    # budget, and the last total printed twice
    sizes = _record_rule_sizes(monkeypatch)
    params = PhysicalParams(
        e=8.019819179537492, eta=1.7e308, delta=2.00001, v2=1e200, beta=-3.0375640604951073
    )
    with pytest.raises(NormalizationError, match="within 1024 nodes") as err:
        wavefunction(ModelKind.C, QuantumState(1, 1), params, [0.5, 1.0])
    assert sizes == [34, 68, 136, 272, 544, 1024]
    last, total = str(err.value).rsplit("gave ", 1)[1].split(" and ")
    assert float(last) != float(total)


def test_paper_norm_of_a_high_degree_is_rejected_not_a_crash():
    # from n = 497 on, 2n + 32 passed the budget before any rule ran, and
    # the error message read an unbound total
    with pytest.raises(NormalizationError, match="within 1024 nodes"):
        normalize("paper", 500, 18.0, 2.0)
