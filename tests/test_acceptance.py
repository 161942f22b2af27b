"""Release gate: the nine headline checks, one test per criterion.

Each test prints a CRITERION line (visible under pytest -s); under
pytest -v the per-test PASSED/FAILED status gives the same one-line
verdict. The tests go through public entry points only and re-derive
every expected value on the spot.
"""

import json
import math
import time

import numpy as np
import pytest

from nu_reference import (
    NUCoefficients,
    k_minus,
    lambda_n,
    lambda_of,
    model_c_coefficients,
    nu_quantize,
    tau_prime,
    verify_curl,
)
from pdmag.cli import run as cli_run
from pdmag.errors import DomainError
from pdmag.fields import magnetic_field, shape_function
from pdmag.models import (
    ModelKind,
    curvature,
    energy,
    greene_aldrich,
    reduced_equation,
)
from pdmag.oracle import node_count, oracle_energy, residual
from pdmag.params import PhysicalParams, QuantumState
from pdmag.specfun import jacobi
from pdmag.sweeps import find_crossings

SEED = 735301

FIG9_LIKE = PhysicalParams(mu=0.15)

PROTOCOL_STATES = [QuantumState(n, m) for n in range(4) for m in range(-3, 4)]

PROTOCOL_PARAMS = [
    PhysicalParams(beta=beta, kz=kz, alpha_ab=alpha)
    for beta in (0.0, 0.5)
    for kz in (0.0, 1.0)
    for alpha in (0.0, 0.3)
]


def oracle_matches(kind, state, params, closed, rel_tol, target="exact"):
    got = oracle_energy(kind, state, params, target=target).energy
    return abs(got - closed) <= rel_tol * max(1.0, abs(closed))


def draw_params(rng):
    """One random parameter set with a usable radial decay scale."""
    while True:
        params = PhysicalParams(
            e=rng.uniform(-2.0, 2.0),
            b0=rng.uniform(0.0, 2.0),
            mu=rng.uniform(-2.0, 2.0),
            beta=rng.uniform(-2.0, 2.0),
            kz=rng.uniform(0.0, 2.0),
            eta=rng.uniform(0.2, 4.0),
            alpha_ab=rng.uniform(-1.0, 1.0),
        )
        if params.s_squared > 1e-12:
            return params


def draw_coefficients(rng):
    """One random coefficient set with both root arguments nonnegative."""
    while True:
        a1t = rng.uniform(-0.2, 3.0)
        a4t = rng.uniform(-1.0, 3.0)
        u = rng.uniform(0.0, 4.0)
        a2t = a1t + a4t - u
        a3t = rng.uniform(-10.0, 10.0)
        if a1t - a2t + a4t >= 0.0:
            return NUCoefficients(a1t, a2t, a3t, a4t)


def test_criterion_1_model_a_closed_form_vs_oracle():
    t0 = time.perf_counter()
    anchor = energy(ModelKind.A, QuantumState(0, 0), PhysicalParams())
    assert anchor == pytest.approx(1.5, rel=1e-12)
    for params in PROTOCOL_PARAMS:
        for state in PROTOCOL_STATES:
            closed = energy(ModelKind.A, state, params)
            assert oracle_matches(ModelKind.A, state, params, closed, 1e-5), (state, params)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"CRITERION 1: PASS ({len(PROTOCOL_PARAMS) * len(PROTOCOL_STATES)} states, {elapsed:.1f}s)")


def test_criterion_2_model_b_closed_form_vs_oracle():
    t0 = time.perf_counter()
    anchor = energy(ModelKind.B, QuantumState(0, 1), PhysicalParams())
    assert anchor == pytest.approx(1.0, rel=1e-12)
    checked = 0
    for params in PROTOCOL_PARAMS:
        for state in PROTOCOL_STATES:
            try:
                closed = energy(ModelKind.B, state, params)
            except DomainError:
                continue  # outside the bound-state region for these parameters
            assert oracle_matches(ModelKind.B, state, params, closed, 1e-5), (state, params)
            checked += 1
    assert checked > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"CRITERION 2: PASS ({checked} bound states, {elapsed:.1f}s)")


def test_criterion_3_screened_model_round_trip_and_oracle():
    t0 = time.perf_counter()
    for delta in (0.05, 0.1, 0.2):
        params = FIG9_LIKE.replace(delta=delta)
        for n, m in ((0, 1), (1, 1), (0, 2), (1, 0), (2, 1)):
            state = QuantumState(n, m)
            closed = energy(ModelKind.C, state, params)
            c = model_c_coefficients(state, params, closed)
            quantized = nu_quantize(c.a1t, c.a2t, c.a4t, n)
            assert abs(quantized - c.a3t) <= 1e-9 * max(1.0, abs(c.a3t)), (state, delta)
            assert oracle_matches(ModelKind.C, state, params, closed, 1e-4, target="ga"), (
                state,
                delta,
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s"
    print(f"CRITERION 3: PASS (15 states, {elapsed:.1f}s)")


def test_criterion_4_reduction_identity():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for i in range(1000):
        params = draw_params(rng)
        if i % 4 == 0 and (params.e * params.b0 * params.mu) ** 2 > 1e-12:
            params = params.replace(kz=0.0)  # where the field terms cancel as |m| grows
        # |m| up to 4, then log-uniform up to 10^15
        big = int(rng.choice([-1, 1]) * 10 ** rng.uniform(0, 15))
        m = int(rng.integers(-4, 5)) if i % 2 else big
        state = QuantumState(int(rng.integers(0, 5)), m)
        ea = energy(ModelKind.A, state, params)
        ec = energy(ModelKind.C, state, params)  # delta = 0, V0 = V1 = V2 = 0
        assert abs(ec - ea) <= 1e-12 * max(1.0, abs(ea)), (state, params)
        worst = max(worst, abs(ec - ea))
    assert worst == 0.0  # model A's kernel is model C's at delta = 0
    print(f"CRITERION 4: PASS (1000 draws, |m| up to 1e15, largest gap {worst})")


def test_criterion_5_nu_internal_identities():
    rng = np.random.default_rng(SEED + 1)
    xi = np.linspace(0.01, 0.99, 97)
    y = 2.0 - 2.0 * xi  # jacobi's argument y = 1 + z, z = 1 - 2 xi
    for i in range(1000):
        c = draw_coefficients(rng)
        # the quadratic under the square root is a perfect square at k = k_minus
        k = k_minus(c)
        a_minus = 0.25 - k + c.a3t + c.a4t
        b_minus = k - c.a3t - 2.0 * c.a4t + c.a2t
        disc = b_minus**2 - 4.0 * a_minus * c.sqrt_u**2
        assert abs(disc) <= 1e-10 * max(1.0, b_minus**2)
        assert tau_prime(c) < 0.0
        n_quant = i % 6
        quantized = NUCoefficients(
            c.a1t, c.a2t, nu_quantize(c.a1t, c.a2t, c.a4t, n_quant), c.a4t
        )
        lam = lambda_of(quantized)
        lam_n = lambda_n(quantized, n_quant)
        assert abs(lam - lam_n) <= 1e-10 * max(1.0, abs(lam_n))
        # polynomial part chi(xi) = P_n^(kappa,upsilon)(1 - 2 xi) solves
        # sigma chi'' + tau chi' + lambda_n chi = 0 for every n; its
        # derivatives in z = 1 - 2 xi (or y) are d^j/dz^j P_n = c_j P_(n-j)^(kappa+j,upsilon+j),
        # c_j the product of (n + kappa + upsilon + i)/2 over i = 1..j (DLMF 18.9.15)
        for n in range(6):
            half = 0.5 * (n + c.kappa + c.upsilon + 1.0)
            chi, dz, dzz = (
                jacobi(n - j, c.kappa + j, c.upsilon + j, y) if j <= n else 0.0 for j in range(3)
            )
            d1 = -2.0 * half * dz
            d2 = 4.0 * half * (half + 0.5) * dzz
            tau = (1.0 + c.kappa) - (2.0 + c.kappa + c.upsilon) * xi
            res = xi * (1.0 - xi) * d2 + tau * d1 + lambda_n(c, n) * chi
            assert np.max(np.abs(res)) <= 1e-7 * max(1.0, np.max(np.abs(chi)))
    print("CRITERION 5: PASS (1000 draws, n <= 5 each)")


def test_criterion_6_wavefunction_residuals_and_nodes():
    cases = (
        (ModelKind.A, PhysicalParams(), 1, "exact", {}),
        (ModelKind.B, PhysicalParams(), 6, "exact", {}),
        (ModelKind.C, FIG9_LIKE.replace(delta=0.1), 1, "ga", {"form": "xi"}),
    )
    for kind, params, m, target, extra in cases:
        for n in range(6):
            state = QuantumState(n, m)
            # U and its exact U'' on the Gauss nodes of the closed form's own polynomial
            rho, u, upp = curvature(kind, state, params, **extra)
            closed = energy(kind, state, params)
            # W and Et from one reduced-equation record
            eq = reduced_equation(kind, state, params, target)
            res = residual(u, upp, eq.potential(rho, closed), eq.et)
            assert res <= 1e-6, (kind, n, res)
            assert node_count(u) == n, (kind, n)
    print("CRITERION 6: PASS (3 models x n_rho 0..5)")


def test_criterion_7_level_crossings_all_sweepable_parameters():
    cases = (
        # (kind, s1, s2, param, range, base params)
        (ModelKind.A, (2, 1), (1, 0), "beta", (-3.0, 3.0), PhysicalParams()),
        (ModelKind.A, (1, 0), (0, 2), "b0", (0.0, 2.0), PhysicalParams(kz=1.0)),
        (ModelKind.A, (2, 1), (1, 0), "alpha_ab", (-1.0, 1.5), PhysicalParams()),
        (ModelKind.A, (1, 0), (0, 2), "mu", (0.1, 1.0), PhysicalParams(kz=1.0)),
        (ModelKind.C, (0, 1), (1, 0), "delta", (0.01, 0.5), FIG9_LIKE),
    )
    allowed = {(0, 1), (1, 0), (2, 1), (0, 2)}
    for kind, s1, s2, name, prange, base in cases:
        assert s1 in allowed and s2 in allowed
        state1, state2 = QuantumState(*s1), QuantumState(*s2)
        found = find_crossings(kind, state1, state2, name, prange, base)
        assert found, f"no {name} crossing for {s1} vs {s2}"
        for point in found:
            at = base.replace(**{name: point.param_value})
            gap = energy(kind, state1, at) - energy(kind, state2, at)
            assert abs(gap) <= 1e-9, (name, point.param_value, gap)
    print("CRITERION 7: PASS (beta, b0, alpha_ab, mu, delta)")


def test_criterion_8_field_identities():
    for sigma in (0.0, 0.5, 1.0, 3.0):
        for beta in (0.0, -1.5):
            params = PhysicalParams(mu=1.3, beta=beta, sigma=sigma)
            for rho in (0.3, 1.0, 2.7, 10.0):
                h = 1e-5 * rho
                s_prime = (shape_function(rho + h, params) - shape_function(rho - h, params)) / (2 * h)
                lhs = shape_function(rho, params) + 0.5 * rho * s_prime
                rhs = params.mu / rho**sigma
                assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs)), (sigma, beta, rho)
                assert verify_curl(rho, params) <= 1e-6 * max(
                    1.0, abs(magnetic_field(rho, params))
                ), (sigma, beta, rho)
    print("CRITERION 8: PASS (sigma in {0, 0.5, 1, 3})")


def test_criterion_9_greene_aldrich_validity_table(capsys):
    out = greene_aldrich(0.01, 1.0)
    assert out.rel_err <= 1e-2
    rhos = np.linspace(0.005, 2.0, 400)
    rel = greene_aldrich(rhos, 1.0).rel_err
    assert np.all(np.diff(rel) > 0)
    # the documented table comes out of the CLI
    assert cli_run(["greene-aldrich", "--delta", "1.0"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert lines[0] == "rho,exact,approx,rel_err"
    table_rel = [float(row.split(",")[3]) for row in lines[1:]]
    assert len(table_rel) == 200
    assert table_rel[0] <= 1e-2
    assert all(b > a for a, b in zip(table_rel, table_rel[1:]))
    print("CRITERION 9: PASS (CLI table, 200 rows)")
