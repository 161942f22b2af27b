"""The Laguerre-Galerkin reference (tests/galerkin_reference.py) against the
closed forms of models A and C, where the finite-volume oracle cannot
check them, and README's target-'exact' numbers against the reference."""

import math
import re

import numpy as np
import pytest

import galerkin_reference as reference
import readme_doc
from pdmag.models import ModelKind, energy, reduced_equation
from pdmag.params import PhysicalParams, QuantumState

A, C = ModelKind.A, ModelKind.C

# README's third "Known limits" command, A (3, 3) of seed 6's oracle-verify
# level 57, whose finite-volume level the cut at 25 decay lengths limits
LEVEL_57 = PhysicalParams(mu=1.1931743419986636, beta=-4.328794129194238, kz=0.9421934146537781,
                          alpha_ab=-0.17133264335371523, eta=0.7923173567035384)
# README's slow-tail command: model C at target 'ga', n_rho = 0..3, m = 0
SLOW_TAIL = PhysicalParams(mu=0.15, delta=0.1, v0=0.1, v1=0.2)


@pytest.mark.parametrize("scale", [None, 0.7, 1.5], ids=["kappa", "0.7kappa", "1.5kappa"])
def test_model_a_high_m_and_high_n_rho(scale):
    # A (0, M) for M <= 40, where the FV oracle reads 3.52 for 1.00625 at
    # M = 10 and exits 1 at M = 40, and A (n_rho, 1) for n_rho <= 30, at
    # the default scale lam = kappa and off it
    states = [QuantumState(0, m) for m in range(41)] + [QuantumState(n, 1) for n in range(31)]
    for state in states:
        lam = None if scale is None else scale * math.sqrt(
            reduced_equation(A, state, PhysicalParams()).tail)
        closed = energy(A, state, PhysicalParams())
        found = reference.level(A, state, PhysicalParams(), lam=lam)
        assert abs(found.energy - closed) <= 1e-12 * abs(closed), (state, found, closed)


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
