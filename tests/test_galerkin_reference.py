"""The Laguerre-Galerkin reference (tests/galerkin_reference.py) against the
closed forms of models A, B and C, where the finite-volume oracle cannot
check them, on the acceptance criteria's level sets, and README's
target-'exact' numbers against the reference."""

import math
import re

import numpy as np
import pytest

import galerkin_reference as reference
import readme_doc
from pdmag.models import ModelKind, energy, reduced_equation
from pdmag.params import PhysicalParams, QuantumState
from test_oracle import criterion_levels

A, B, C = ModelKind.A, ModelKind.B, ModelKind.C

# README's third "Known limits" command, A (3, 3) of seed 6's oracle-verify
# level 57, whose finite-volume level the cut at 25 decay lengths limits
LEVEL_57 = PhysicalParams(mu=1.1931743419986636, beta=-4.328794129194238, kz=0.9421934146537781,
                          alpha_ab=-0.17133264335371523, eta=0.7923173567035384)
# README's slow-tail command: model C at target 'ga', n_rho = 0..3, m = 0
SLOW_TAIL = PhysicalParams(mu=0.15, delta=0.1, v0=0.1, v1=0.2)
# Model B's edge: B (1, 0) at beta = -6, kz = 1 is bound for mu above
# 1/sqrt(3), where its ell_acute vanishes
EDGE = [PhysicalParams(beta=-6.0, kz=1.0, mu=1.0 / math.sqrt(3.0) + above)
        for above in (1e-3, 3e-4, 3e-5, 1e-5, 1e-6)]
SCALES = pytest.mark.parametrize("scale", [None, 0.7, 1.5], ids=["kappa", "0.7kappa", "1.5kappa"])


def _rel_err(kind, state, params, scale=None, target="exact"):
    """The reference's level against the closed form, relative to max(1, |E|),
    at the default scale or at scale times kappa."""
    lam = None if scale is None else scale * math.sqrt(
        reduced_equation(kind, state, params, target).tail)
    closed = energy(kind, state, params)
    found = reference.level(kind, state, params, target, lam=lam)
    return abs(found.energy - closed) / max(1.0, abs(closed))


@SCALES
def test_model_a_high_m_and_high_n_rho(scale):
    # A (0, M) for M <= 40, where the FV oracle reads 3.52 for 1.00625 at
    # M = 10 and exits 1 at M = 40, and A (n_rho, 1) for n_rho <= 30, at
    # the default scale lam = kappa and off it
    states = [QuantumState(0, m) for m in range(41)] + [QuantumState(n, 1) for n in range(31)]
    for state in states:
        assert _rel_err(A, state, PhysicalParams(), scale) <= 1e-12, state


def test_cut_limited_level_is_within_the_reference_estimate():
    # the FV oracle reads abs_err 2.9e-4 against its oracle_err 6.6e-7 here
    state = QuantumState(3, 3)
    closed = energy(A, state, LEVEL_57)
    found = reference.level(A, state, LEVEL_57)
    assert abs(found.energy - closed) <= min(1e-12 * abs(closed), found.error), found


@pytest.mark.parametrize("n_rho", range(4))
def test_slow_tail_levels(n_rho):
    # the FV oracle is off by 6.7e-9 to 3.2e-4 on these four levels; the
    # n_rho = 0 level is negative, so the inverted solve shifts to sigma = -1
    state = QuantumState(n_rho, 0)
    closed = energy(C, state, SLOW_TAIL)
    found = reference.level(C, state, SLOW_TAIL, "ga")
    assert abs(found.energy - closed) <= min(1e-12 * max(1.0, abs(closed)), found.error), found


@SCALES
def test_criterion_2_model_b_levels(scale):
    # criterion 2's 35 bound levels read <= 4.4e-15 here; model B's fixed
    # point on p takes a median of 4 and at most 10 solves a level
    cases = [(state, params) for kind, state, params, _ in criterion_levels() if kind is B]
    assert len(cases) == 35
    for state, params in cases:
        assert _rel_err(B, state, params, scale) <= 1e-12, (state, params)


@SCALES
def test_model_b_edge(scale):
    # B (1, 0) down to 1e-6 above its edge, where the FV oracle raises
    # BoundStateError from 3e-5 above it: <= 5.8e-16 in 14-22 solves
    for params in EDGE:
        assert _rel_err(B, QuantumState(1, 0), params, scale) <= 1e-12, params.mu


def test_criteria_1_and_3_level_sets():
    # criterion 1's 224 model A levels read <= 2.0e-14 here (the FV oracle
    # 2.4e-7), and criterion 3's 15 model C levels at target 'ga' <= 1.3e-15
    # (the FV oracle 1.1e-5)
    for kind, state, params, target in criterion_levels():
        if kind is not B:
            assert _rel_err(kind, state, params, target=target) <= 1e-12, (kind, state, params)


@pytest.mark.parametrize("mu", [0.1, 0.1015625])
def test_weightless_ga_level_is_within_the_reference_estimate(mu):
    # C (0, 1) with a tail far slower than its mass weight, where the FV
    # oracle raises: at lam = 3 kappa and N = 80 the errors read 8.8e-15
    # and 5.0e-8 against estimates of 7.7e-13 and 8.6e-7
    state = QuantumState(0, 1)
    params = PhysicalParams(mu=mu, delta=0.109375, v1=0.03125, v2=0.03125)
    lam = 3.0 * math.sqrt(reduced_equation(C, state, params, "ga").tail)
    found = reference.level(C, state, params, "ga", lam=lam, size=80)
    assert abs(found.energy - energy(C, state, params)) <= found.error, found


@pytest.mark.parametrize("state", [QuantumState(0, 1), QuantumState(0, 5), QuantumState(3, -2)])
def test_model_a_pencil_is_sturmian_at_kappa(state):
    # on this basis G (mass eta/rho) is diagonal and K tridiagonal at any
    # scale; at lam = kappa K is diagonal too, the Coulomb-Sturmian
    # structure (E. J. Heller and H. A. Yamani, Phys. Rev. A 9 (1974)
    # 1201): each basis function solves the equation at E = K_kk/G_kk. No
    # closed form is consulted
    eq = reduced_equation(A, state, PhysicalParams())
    band = np.abs(np.subtract.outer(np.arange(40), np.arange(40)))

    def off(matrix, width):
        return np.max(np.abs(matrix[band > width])) / np.max(np.abs(matrix))

    for scale in (0.7, 1.0, 1.5):
        K, G = reference.pencil(eq, scale * math.sqrt(eq.tail), 40)
        assert off(G, 0) <= 1e-12 and off(K, 1) <= 1e-12
        assert (off(K, 0) <= 1e-12) == (scale == 1.0), scale


def test_readme_exact_target_numbers_match_the_reference():
    # README's target-'exact' numbers of model C at mu = 0.15: the
    # reference's gap E(0,1) - E(1,0) to its printed digits, each oracle gap
    # within its summed oracle_err of it, and the surrogate's level error
    # |E_ga - E_exact| / max(1, |E|) of C (0, 1) to its printed digits
    rows = {row["delta"]: row
            for row in readme_doc.tables(readme_doc.section("Documented crossing ranges"))[1]}
    deltas = list(rows["gap, reference"])[1:]
    assert deltas == ["0.01", "0.1325", "0.43875", "0.5"]
    for delta in deltas:
        params = PhysicalParams(mu=0.15, delta=float(delta))
        one, two = (reference.level(C, state, params, size=60)
                    for state in (QuantumState(0, 1), QuantumState(1, 0)))
        gap = one.energy - two.energy
        assert one.error + two.error <= 1e-12, delta
        assert readme_doc.agrees(gap, rows["gap, reference"][delta]), (delta, gap)
        oracle_gap, oracle_err = (float(rows[name][delta])
                                  for name in ("gap, oracle", "summed `oracle_err`"))
        assert abs(oracle_gap - gap) <= oracle_err, delta

    found = re.search(r"abs_err / max\(1, \|E\|\) reads (\S+) at delta = (\S+) and (\S+) at (\S+)$",
                      readme_doc.TEXT, re.M)
    for printed, delta in ((found[1], found[2]), (found[3], found[4])):
        state, params = QuantumState(0, 1), PhysicalParams(mu=0.15, delta=float(delta))
        closed = energy(C, state, params)
        exact = reference.level(C, state, params)
        assert exact.error <= 1e-12, delta
        assert readme_doc.agrees(abs(closed - exact.energy) / max(1.0, abs(closed)), printed), delta
