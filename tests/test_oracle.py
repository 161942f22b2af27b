"""The finite-volume oracle and the closed-form cross checks.

Reference problems with known spectra: the half-line oscillator
W = rho^2 with a Dirichlet wall at the origin (levels 3, 7, 11) and the
attractive-Coulomb reduced equation W = -2/rho, whose implied effective
angular momentum is 1/2, so the levels are -1/(n+1)^2. Read as a pencil
in the Coulomb strength, -U'' - (Z/rho) U = -U/4 has the charges
Z = n + 1.
"""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from nu_reference import model_c_coefficients
from pdmag import models
from pdmag.errors import BoundStateError, DomainError
from pdmag.fields import shape_function
from pdmag.models import (
    ModelKind,
    curvature,
    energy,
    reduced_equation,
    wavefunction,
)
from pdmag.oracle import (
    _CERT_TOL,
    _EIG_TOL,
    _rung,
    _sturm_counts,
    eigh_tridiagonal,
    node_count,
    oracle_energy,
    residual,
    verify_states,
)
from pdmag.params import PhysicalParams, QuantumState, m_tilde


def oscillator(rho):
    return rho * rho


def fv_levels(c1, rho_max, n_points, count, smooth=None, p=1.0):
    """Lowest levels of -U'' + [p(p-1)/rho^2 + c1/rho + smooth] U = Et U: the
    rung's pencil at et = 0 with g = 1, whose weight is M."""
    return np.array([_rung(n_points, p, rho_max, c1, smooth, np.ones_like, 1, 0.0, k)[0]
                     for k in range(count)])


def coulomb_charges(n_points, count):
    """Lowest charges Z of -U'' + U/4 = Z U/rho on (0, 60] (p = 1): the rung's
    pencil at et = -1/4 with g = 1/rho."""
    return np.array([_rung(n_points, 1.0, 60.0, 0.0, None, np.reciprocal, 1, -0.25, k)[0]
                     for k in range(count)])


def powint(a, b, q):
    """The integral of s^q from a to b, cell by cell."""
    if abs(q + 1.0) < 1e-14:
        return np.log(b / a)
    return (b ** (q + 1.0) - a ** (q + 1.0)) / (q + 1.0)


def per_cell_pencil(p, rho_max, n_points, c1=0.0, et=0.0, power=1, mass=np.reciprocal):
    """(diag, off, weight) of the rung's pencil, cell by cell from the scheme:
    the flux rho^(2p) integrated inverse between nodes, c1 times the cell
    integral of rho^(2p-1), -et times that of rho^(2p), and the weight of
    g = mass, the cell integral of rho^(2p - power) times rho^power g at its
    centroid. Cell integrals are in units of h, scaled by h^(-2p)."""
    h = rho_max / n_points
    i = np.arange(1, n_points + 1, dtype=float)
    lo, hi = np.where(i == 1.0, 0.0, i - 0.5), i + 0.5
    coul, cell = powint(lo, hi, 2.0 * p - 1.0), powint(lo, hi, 2.0 * p) * h
    flux = 1.0 / powint(np.arange(1.0, n_points + 1), np.arange(2.0, n_points + 2), -2.0 * p)
    diag = (np.concatenate(([0.0], flux[:-1])) + flux) / h + c1 * coul
    lower, upper = coul, cell
    if power == 2:
        lower, upper = powint(lo, hi, 2.0 * p - 2.0) / h, coul
    rho = upper / lower
    return diag - et * cell, -flux[:-1] / h, lower * rho**power * mass(rho)


def rung_matrix(monkeypatch, *args, integrals=None):
    """The symmetric tridiagonal (a, b) the rung hands to eigh_tridiagonal."""
    import pdmag.oracle

    seen = []
    solve = pdmag.oracle.eigh_tridiagonal
    monkeypatch.setattr(pdmag.oracle, "eigh_tridiagonal",
                        lambda a, b, *rest: seen.append((a, b)) or solve(a, b, *rest))
    _rung(*args, 0, integrals=integrals)
    monkeypatch.undo()
    return seen[0]


class TestFdEigenvalues:
    """The finite-volume inner solver on problems with known spectra."""

    def test_half_line_oscillator_levels(self):
        vals = fv_levels(0.0, 12.0, 16000, 3, smooth=oscillator)
        np.testing.assert_allclose(vals, [3.0, 7.0, 11.0], atol=1e-5)

    def test_coulomb_levels(self):
        vals = fv_levels(-2.0, 60.0, 8000, 3)
        exact = [-1.0, -0.25, -1.0 / 9.0]
        np.testing.assert_allclose(vals, exact, rtol=1e-4)

    def test_coulomb_charges_as_pencil_eigenvalues(self):
        np.testing.assert_allclose(coulomb_charges(8000, 3), [1.0, 2.0, 3.0], rtol=1e-4)

    def test_second_order_convergence(self):
        exact = 3.0
        errs = [abs(fv_levels(0.0, 12.0, n, 1, smooth=oscillator)[0] - exact) for n in (1000, 2000)]
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.2)

    def test_coarse_grid_reports_a_large_error(self, unit_params):
        level = oracle_energy(ModelKind.A, QuantumState(0, 0), unit_params, n_points=150)
        assert level.error > 1e-8

    def test_fine_grid_reports_a_small_error(self, unit_params):
        level = oracle_energy(ModelKind.A, QuantumState(0, 0), unit_params, n_points=16000)
        assert level.error < 1e-3
        assert abs(level.energy - 1.5) <= level.error

    def test_pencil_eigenvalues_are_the_dense_generalized_ones(self):
        # the weight^(-1/2) scaling must keep the pencil's spectrum: compare
        # with the dense generalized problem T v = Z diag(weight) v
        from scipy.linalg import eigh

        diag, off, weight = per_cell_pencil(1.0, 60.0, 300, et=-0.25)
        dense = eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1), np.diag(weight),
                     eigvals_only=True)
        np.testing.assert_allclose(coulomb_charges(300, 2), dense[:2], rtol=1e-10)

    def test_count_validation(self, unit_params):
        state = QuantumState(0, 0)
        with pytest.raises(DomainError, match="positive integer"):
            oracle_energy(ModelKind.A, state, unit_params, n_points=0)
        with pytest.raises(DomainError, match="positive integer"):
            oracle_energy(ModelKind.A, state, unit_params, n_points=True)
        with pytest.raises(DomainError, match="exceeds"):
            oracle_energy(ModelKind.A, QuantumState(200, 0), unit_params, n_points=200)
        # the coarsest grid, n_points // 4 cells, must hold the level
        with pytest.raises(DomainError, match=r"n_rho = 2 exceeds n_points // 4 - 1 = 1"):
            oracle_energy(ModelKind.A, QuantumState(2, 0), unit_params, n_points=11)
        with pytest.raises(DomainError, match="exceeds"):
            oracle_energy(ModelKind.A, state, unit_params, n_points=3)
        assert math.isfinite(oracle_energy(ModelKind.A, QuantumState(1, 0), unit_params,
                                           n_points=11).energy)

    def test_eigensolve_that_does_not_converge_is_a_domain_error(self, monkeypatch):
        import pdmag.oracle

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("stebz (eigh_tridiagonal) did not converge")

        monkeypatch.setattr(pdmag.oracle, "eigh_tridiagonal", fail)
        with pytest.raises(DomainError, match="eigensolve did not converge"):
            coulomb_charges(100, 1)

    def test_nonfinite_potential_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            fv_levels(0.0, 10.0, 500, 1, smooth=lambda r: np.where(r < 5.0, 0.0, np.inf))


class TestFVGrid:
    @pytest.mark.parametrize("p", [0.5, 0.75, 1.0, 1.3, 2.7])
    def test_cell_integrals_match_the_per_cell_formula(self, p, monkeypatch):
        # _powint takes each power once per edge; the scaled pencil the rung
        # solves must equal the one built from the per-cell formula. At
        # p = 1/2 the flux and the inverse-square integrals take the log branch
        def scaled(diag, off, weight):
            d = np.sqrt(weight)
            return diag / weight, off / (d[:-1] * d[1:])

        # models A and C (g ~ 1/rho): coul times rho g at the centroid of
        # rho^(2p-1), bit for bit
        eq_c = reduced_equation(ModelKind.C, QuantumState(0, 1), PhysicalParams(delta=0.2))
        a, b = rung_matrix(monkeypatch, 4000, p, 40.0, 0.7, None, eq_c.mass, 1, -0.3)
        a_ref, b_ref = scaled(*per_cell_pencil(p, 40.0, 4000, 0.7, -0.3, 1, eq_c.mass))
        assert np.array_equal(a, a_ref) and np.array_equal(b, b_ref)
        # model B's weight g = eta/rho^2 is eta times the cell integral of
        # rho^(2p-2), up to the rounding of rho-bar^2 g(rho-bar)
        eq_b = reduced_equation(ModelKind.B, QuantumState(0, 1), PhysicalParams(eta=1.3))
        if p == 0.5:  # the origin cell's integral is infinite and its rho-bar is 0
            with np.errstate(divide="ignore", invalid="ignore"), \
                    pytest.raises(DomainError, match="must be finite on the grid"):
                _rung(4000, p, 40.0, 0.7, None, eq_b.mass, 2, -0.3, 0)
            return
        a, b = rung_matrix(monkeypatch, 4000, p, 40.0, 0.7, None, eq_b.mass, 2, -0.3)
        i = np.arange(1, 4001, dtype=float)
        weight = 1.3 * powint(np.where(i == 1.0, 0.0, i - 0.5), i + 0.5, 2.0 * p - 2.0) / 0.01
        a_ref, b_ref = scaled(*per_cell_pencil(p, 40.0, 4000, 0.7, -0.3)[:2], weight)
        assert np.max(np.abs(a / a_ref - 1.0)) <= 1e-14
        assert np.max(np.abs(b / b_ref - 1.0)) <= 1e-14

    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("p", [0.5, 0.75, 1.0, 1.6, 3.0])
    def test_shared_cell_integrals_are_each_rungs_own(self, p, power, monkeypatch):
        # a level computes its cell integrals once, on the finest grid's 8000
        # cells; the leading entries of each are the rung's own _powint, bit
        # for bit (p = 1/2 runs the log branch of the flux integral, and of
        # model B's s^(2p-2), whose origin cell is then infinite)
        from pdmag.oracle import _cell_integrals, _powint

        with np.errstate(divide="ignore"):
            shared = _cell_integrals(8000, p, power)
            for n in (1000, 2000, 4000, 8000):
                edges = np.concatenate(([0.0], np.arange(1, n + 1, dtype=float) + 0.5))
                own = [_powint(edges, 2.0 * p - 1.0), _powint(edges, 2.0 * p),
                       1.0 / _powint(np.arange(1.0, n + 2), -2.0 * p),
                       _powint(edges, 2.0 * p - 2.0) if power == 2 else None]
                for whole, part in zip(shared, own):
                    assert (whole is part is None) or np.array_equal(whole[:n], part), (n, p)
        if p == 0.5 and power == 2:  # the pencil is not finite (test_cell_integrals_...)
            return
        # so the rung's matrix is the same with the shared integrals as without
        args = (1000, p, 25.0, 0.7, None, np.reciprocal, power, -0.3)
        a, b = rung_matrix(monkeypatch, *args)
        a_shared, b_shared = rung_matrix(monkeypatch, *args, integrals=shared)
        assert np.array_equal(a, a_shared) and np.array_equal(b, b_shared)


@st.composite
def jacobi_problems(draw):
    """A random Jacobi matrix (negative off-diagonal), an eigenvalue index
    and a fraction in (0, 1) for placing guesses.

    Off-diagonals of at least 0.1 keep the norm at or above 0.1, well above
    the absolute tolerance 1e-14 of the bisection.
    """
    n = draw(st.integers(min_value=2, max_value=400))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    spread = draw(st.sampled_from([1e-3, 1.0, 5.0]))
    d = rng.uniform(-spread, spread, n)
    e = -rng.uniform(0.1, 5.0, n - 1)
    return d, e, draw(st.integers(min_value=0, max_value=n - 1)), draw(st.floats(0.01, 0.99))


def guess_for(case, d, e, index, f):
    from scipy.linalg import eigvalsh_tridiagonal

    lam = eigvalsh_tridiagonal(d, e)
    n = len(lam)
    gap_lo = lam[index] - lam[index - 1] if index > 0 else 1.0
    gap_hi = lam[index + 1] - lam[index] if index < n - 1 else 1.0
    radius = np.abs(np.append(e, 0.0)) + np.abs(np.append(0.0, e))
    lo, hi = float(np.min(d - radius)), float(np.max(d + radius))  # Gershgorin
    return {
        "near": lam[index] + (f - 0.5) * min(gap_lo, gap_hi),
        "above": lam[(index + 1) % n],  # the next one up, the lowest from the top
        "below": lam[index - 1],  # the next one down, the highest from the bottom
        "several": lam[(index + 1 + int(f * (n - 1))) % n],  # any of the others
        "outside": lo - 1.0 - f if f < 0.5 else hi + 1.0 + f,
        "nan": math.nan,
    }[case]


class TestGuessedEigensolve:
    """A guess changes the cost of eigh_tridiagonal, never which eigenvalue
    it returns: a result from the guess is certified to within
    h = _CERT_TOL max(1, |result|), any other one is the full bisection's."""

    @staticmethod
    def bisection(d, e, index):
        from scipy.linalg import eigh_tridiagonal as solve

        return solve(d, e, eigvals_only=True, select="i", select_range=(index, index),
                     tol=_EIG_TOL)[0]

    @given(problem=jacobi_problems())
    def test_guess_near_the_eigenvalue_is_certified(self, problem):
        from scipy.linalg import eigh_tridiagonal as solve

        d, e, index, f = problem
        got, _ = eigh_tridiagonal(d, e, index, guess_for("near", d, e, index, f))
        h = _CERT_TOL * max(1.0, abs(got))

        def count(t):  # Sturm count: eigenvalues at or below t
            return len(solve(d, e, eigvals_only=True, select="v", select_range=(-np.inf, t),
                             tol=np.inf))

        assert (count(got - h), count(got + h)) == (index, index + 1)
        assert abs(got - self.bisection(d, e, index)) <= h + _EIG_TOL

    @pytest.mark.parametrize("case", ["above", "below", "several", "outside", "nan"])
    @given(problem=jacobi_problems())
    def test_other_guesses_give_the_bisection(self, case, problem):
        d, e, index, f = problem
        got, _ = eigh_tridiagonal(d, e, index, guess_for(case, d, e, index, f))
        assert abs(got - self.bisection(d, e, index)) <= _EIG_TOL

    @given(problem=jacobi_problems())
    def test_no_guess_gives_the_bisection_to_the_certificate(self, problem):
        # the leading half's eigenvalue `index` is the guess; where it is
        # far off, or index is past the half, the full bisection answers
        d, e, index, _ = problem
        got, vector = eigh_tridiagonal(d, e, index)
        bisected = self.bisection(d, e, index)
        tol = _EIG_TOL if vector is None else _CERT_TOL * max(1.0, abs(got)) + _EIG_TOL
        assert abs(got - bisected) <= tol

    @pytest.mark.parametrize("start", ["own", "neighbour", "random"])
    @given(problem=jacobi_problems())
    def test_a_start_vector_changes_no_eigenvalue(self, start, problem):
        # Rayleigh-quotient iteration from another eigenvector settles on
        # that one's eigenvalue, which the certificate rejects; a vector
        # returned is a unit eigenvector of the value
        from scipy.linalg import eigh_tridiagonal as solve

        d, e, index, f = problem
        _, vectors = solve(d, e)
        x = {"own": vectors[:, index], "neighbour": vectors[:, (index + 1) % len(d)],
             "random": np.random.default_rng(len(d)).uniform(-1.0, 1.0, len(d))}[start]
        got, vector = eigh_tridiagonal(d, e, index, guess_for("near", d, e, index, f), x)
        h = _CERT_TOL * max(1.0, abs(got))
        assert abs(got - self.bisection(d, e, index)) <= h + _EIG_TOL
        if vector is not None:
            tv = d * vector + np.append(e * vector[1:], 0.0) + np.append(0.0, e * vector[:-1])
            scale = np.max(np.abs(d)) + 2.0 * np.max(np.abs(e))
            assert np.linalg.norm(vector) == pytest.approx(1.0, rel=1e-12)
            assert np.linalg.norm(tv - got * vector) <= 1e-8 * scale

    def test_oracle_guesses_hit(self, monkeypatch):
        # a level's first solve guesses from one coarse bisection of the
        # leading half of its matrix, every later one from the level it
        # expects; a result that is not certified falls back to the full
        # bisection (dstebz to _EIG_TOL) and keeps the result but not the speed
        from pdmag.oracle import _HALF_TOL, _linalg_extension

        tolerances = []
        flapack = _linalg_extension("_flapack")  # the module eigh_tridiagonal calls
        stebz = flapack.dstebz
        monkeypatch.setattr(
            flapack, "dstebz", lambda d, e, *a: tolerances.append(a[-2]) or stebz(d, e, *a)
        )
        for kind, state, params, target in criterion_levels():
            tolerances.clear()
            oracle_energy(kind, state, params, target=target)
            # one of model B's later iterates may miss
            full = tolerances.count(_EIG_TOL)
            assert tolerances.count(_HALF_TOL) == 1 and full <= (kind is ModelKind.B), \
                (kind, state, params)

    @pytest.mark.parametrize("kind, state, params, target", [
        (ModelKind.A, QuantumState(1, 1), PhysicalParams(), "exact"),
        (ModelKind.B, QuantumState(0, 2), PhysicalParams(kz=1.0), "exact"),
        (ModelKind.C, QuantumState(1, 1), PhysicalParams(mu=0.15, delta=0.1), "ga"),
    ], ids=["A", "B", "C"])
    @pytest.mark.parametrize("miss", ["neighbour", "nan"])
    def test_a_first_guess_that_is_not_certified_falls_back_to_the_bisection(
            self, monkeypatch, kind, state, params, target, miss):
        # Rayleigh-quotient iteration from the leading-half guess settles on
        # the next eigenvalue up, or not at all: the certificate rejects it
        # and the full bisection gives the first rung, so the level is the
        # one of the warm chain to the tolerance of the two solves
        import pdmag.oracle
        from pdmag.oracle import _HALF_TOL, _linalg_extension

        warm = oracle_energy(kind, state, params, target=target)
        flapack = _linalg_extension("_flapack")
        rayleigh_quotient, stebz = pdmag.oracle._rayleigh_quotient, flapack.dstebz
        tolerances, first = [], []

        def missed(lapack, d, e, guess, start=None):
            if first:  # a later solve
                return rayleigh_quotient(lapack, d, e, guess, start)
            first.append(guess)
            if miss == "nan":
                return math.nan, None
            k = state.n_rho + 2  # the next eigenvalue up, 1-based
            return float(stebz(d, e, 2, 0.0, 0.0, k, k, _EIG_TOL, "E")[1][0]), np.ones(len(d))

        monkeypatch.setattr(pdmag.oracle, "_rayleigh_quotient", missed)
        monkeypatch.setattr(flapack, "dstebz",
                            lambda d, e, *a: tolerances.append(a[-2]) or stebz(d, e, *a))
        level = oracle_energy(kind, state, params, target=target)
        # the leading-half guess, then the fallback; every later solve is certified
        assert tolerances == [_HALF_TOL, _EIG_TOL]
        assert abs(level.energy - warm.energy) <= 2e-11 * max(1.0, abs(warm.energy))
        assert level.error == pytest.approx(warm.error, rel=1e-3)

    def test_guess_path_moves_no_protocol_level(self, monkeypatch):
        # the certificate bounds the guessed eigenvalues by _CERT_TOL, not
        # by _EIG_TOL; solve every rung of the levels of acceptance criteria
        # 1-3 (criterion 1's 224 among them) once warm and once with every
        # rung's solve forced to the full bisection
        assert_warm_ladder_is_the_bisected_one(monkeypatch, criterion_levels())

    def test_guess_path_moves_no_stream_level(self, monkeypatch):
        # the same on the first 90 levels of the benchmark's seed-1 stream
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from inputs import oracle_levels

        kinds = {"A": ModelKind.A, "B": ModelKind.B, "C": ModelKind.C}
        levels = [(kinds[kind], QuantumState(*state), PhysicalParams(**params),
                   "ga" if kind == "C" else "exact")
                  for kind, state, params in itertools.islice(oracle_levels(1), 90)]
        assert_warm_ladder_is_the_bisected_one(monkeypatch, levels)


def assert_warm_ladder_is_the_bisected_one(monkeypatch, levels):
    """Each level's rungs, solved warm and once more with no guess ever
    certified (_RQ_SOLVES = 0: every solve is the full bisection): the same
    grids, the same eigenvalue index on each (their values agree far inside
    the level gaps) and a level within 2e-11 max(1, |E|)."""
    import pdmag.oracle

    solve = pdmag.oracle.eigh_tridiagonal

    def ladder(kind, state, params, target):
        rungs = []

        def record(d, e, index, guess=None, start=None):
            value, vector = solve(d, e, index, guess, start)
            rungs.append((len(d), value))
            return value, vector

        monkeypatch.setattr(pdmag.oracle, "eigh_tridiagonal", record)
        try:
            return oracle_energy(kind, state, params, target=target), rungs
        except DomainError as err:  # a known defect of the stream fails both ways
            return str(err), rungs

    for level in levels:
        monkeypatch.setattr(pdmag.oracle, "_RQ_SOLVES", 5)
        warm, warm_rungs = ladder(*level)
        monkeypatch.setattr(pdmag.oracle, "_RQ_SOLVES", 0)
        bisected, bisected_rungs = ladder(*level)
        if isinstance(bisected, str):
            assert warm == bisected, level
            continue
        assert [n for n, _ in warm_rungs] == [n for n, _ in bisected_rungs], level
        for (n, w), (_, b) in zip(warm_rungs, bisected_rungs):
            assert abs(w - b) <= 2e-11 * max(1.0, abs(b)), (level, n)
        assert abs(warm.energy - bisected.energy) <= 2e-11 * max(1.0, abs(bisected.energy)), level


@st.composite
def count_problems(draw):
    """A random Jacobi matrix, plain or graded (entries from 1e-12 to 1e15
    in size), and two points lo <= hi, each an eigenvalue, one ulp below or
    above one, or halfway to the next."""
    from scipy.linalg import eigvalsh_tridiagonal

    n = draw(st.integers(min_value=2, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        d = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-12.0, 15.0, n)
        e = -(10.0 ** rng.uniform(-12.0, 15.0, n - 1))
    else:
        d = rng.uniform(-5.0, 5.0, n)
        e = -rng.uniform(0.1, 5.0, n - 1)
    lam = eigvalsh_tridiagonal(d, e)  # ascending

    def point():
        k = draw(st.integers(min_value=0, max_value=n - 1))
        where = draw(st.sampled_from(["at", "ulp_below", "ulp_above", "halfway"]))
        if where == "halfway":
            return 0.5 * (lam[k] + lam[k + 1]) if k + 1 < n else lam[k] + 1.0
        return {"at": lam[k], "ulp_below": np.nextafter(lam[k], -np.inf),
                "ulp_above": np.nextafter(lam[k], np.inf)}[where]

    lo, hi = sorted((point(), point()))
    return d, e, lam, lo, hi


def stebz_count(d, e, t):
    """dstebz's Sturm count over (-inf, t], the count the certificate used before."""
    from scipy.linalg import lapack

    m, *_, info = lapack.dstebz(d, e, 1, -np.inf, t, 0, 0, np.inf, "E")
    assert info == 0
    return m


def zero_pivots(d, e, t):
    """How many pivots of dlarrc's recurrence (d_i - t) - e_(i-1)^2/p_(i-1)
    are exactly +0; each one counts an eigenvalue twice."""
    zeros, p = 0, np.float64(d[0]) - t
    with np.errstate(divide="ignore"):
        for i in range(len(d)):
            if i:
                p = (np.float64(d[i]) - t) - np.float64(e[i - 1]) ** 2 / p
            zeros += p == 0
    return zeros


class TestSturmCounts:
    """_sturm_counts, the one dlarrc pass behind the certificate, against
    dstebz's counts."""

    @given(problem=count_problems())
    def test_counts_equal_dstebz_outside_the_rounding_band(self, problem):
        # Away from every eigenvalue by more than the rounding band delta,
        # both counts are exact, so they are equal. Within the band the count
        # depends on the order of the operations: dlarrc's lies between the
        # exact counts at t -/+ delta, plus one for each pivot of exactly +0.
        d, e, lam, lo, hi = problem
        counts = _sturm_counts(d, e, lo, hi)
        for t, count in zip((lo, hi), counts):
            delta = 8.0 * np.finfo(float).eps * (np.max(np.abs(d)) + 2.0 * np.max(np.abs(e)) + abs(t))
            below, within = np.sum(lam <= t - delta), np.sum(lam <= t + delta)
            if below == within:
                assert count == stebz_count(d, e, t) == below
            else:
                assert below <= count <= within + zero_pivots(d, e, t)

    def test_short_off_diagonal_is_rejected(self):
        # dlarrc would read past the end of e
        with pytest.raises(ValueError, match="off-diagonal"):
            _sturm_counts(np.ones(4), -np.ones(2), 0.0, 1.0)

    def test_counts_on_the_oracles_pencils(self, monkeypatch):
        # every eigenproblem the oracle solves for three levels of each model,
        # on grids of 1000 to 8000 cells, counted at its certificate points
        problems = oracle_pencils(monkeypatch)
        assert {len(d) for d, _, _ in problems} >= {1000, 2000, 4000, 8000}
        for d, e, sigma in problems:
            h = _CERT_TOL * max(1.0, abs(sigma))
            assert _sturm_counts(d, e, sigma - h, sigma + h) == (
                stebz_count(d, e, sigma - h), stebz_count(d, e, sigma + h))

    def test_oracles_couplings_are_far_above_the_ulp_of_their_diagonal(self, monkeypatch):
        # dlarrc's +0 pivot comes from a point t at a diagonal entry whose
        # couplings are below its ulp (TestSturmCounts' graded matrices); on
        # the oracle's pencils every coupling exceeds 2^20 ulp of both of its
        # diagonal entries (5e13 ulp at least over the levels of acceptance
        # criteria 1-3 and 200 random levels), so that cannot arise
        problems = oracle_pencils(monkeypatch)
        assert {len(d) for d, _, _ in problems} >= {1000, 2000, 4000, 8000}
        for d, e, _ in problems:
            ulp = np.spacing(np.abs(d))
            assert np.all(np.abs(e) >= 2.0**20 * np.maximum(ulp[:-1], ulp[1:])), len(d)


def oracle_pencils(monkeypatch):
    """(d, e, sigma) of every eigenproblem the oracle solves for three levels
    of each model, with 4000 and 8000 as the finest settled grid."""
    import pdmag.oracle

    problems = []
    solve = pdmag.oracle.eigh_tridiagonal

    def record(d, e, index, guess=None, start=None):
        sigma, vector = solve(d, e, index, guess, start)
        problems.append((d, e, sigma))
        return sigma, vector

    monkeypatch.setattr(pdmag.oracle, "eigh_tridiagonal", record)
    for n_points in (4000, 8000):
        oracle_energy(ModelKind.A, QuantumState(1, 1), PhysicalParams(), n_points=n_points)
        oracle_energy(ModelKind.B, QuantumState(0, 2), PhysicalParams(kz=1.0), n_points=n_points)
        oracle_energy(ModelKind.C, QuantumState(1, 1), PhysicalParams(mu=0.15, delta=0.1),
                      n_points=n_points, target="ga")
    return problems


def criterion_levels():
    """(kind, state, params, target) of the oracle levels that acceptance
    criteria 1-3 check: models A and B over the protocol grid (B where it
    is bound) and model C against the Greene-Aldrich form."""
    from test_acceptance import FIG9_LIKE, PROTOCOL_PARAMS, PROTOCOL_STATES

    levels = [(ModelKind.A, s, p, "exact") for p in PROTOCOL_PARAMS for s in PROTOCOL_STATES]
    levels += [
        (ModelKind.B, s, p, "exact")
        for p in PROTOCOL_PARAMS
        for s in PROTOCOL_STATES
        if model_b_bound(s, p)
    ]
    levels += [
        (ModelKind.C, QuantumState(n, m), FIG9_LIKE.replace(delta=delta), "ga")
        for delta in (0.05, 0.1, 0.2)
        for n, m in ((0, 1), (1, 1), (0, 2), (1, 0), (2, 1))
    ]
    return levels


def grid_sizes(monkeypatch):
    """Cell counts of the oracle's eigensolves, in call order, from here on."""
    import pdmag.oracle

    sizes = []
    solve = pdmag.oracle.eigh_tridiagonal
    monkeypatch.setattr(
        pdmag.oracle, "eigh_tridiagonal", lambda *a, **k: sizes.append(len(a[0])) or solve(*a, **k)
    )
    return sizes


def model_b_bound(state, params):
    try:
        energy(ModelKind.B, state, params)
    except DomainError:
        return False
    return True


def general_sigma_equation(kind, state, params, E):
    """(W(rho), Et) of the reduced equation at any sigma, without the field
    coefficients of reduced_equation: the field-free record (B0 = 0, so
    Et = -kz^2) plus the field terms of fields.shape_function, which owns
    rho > 0. At sigma = 1 its W keeps e^2 B0^2 mu^2, which reduced_equation
    moves into Et."""
    field_free = reduced_equation(kind, state, params.replace(b0=0.0, sigma=1.0))
    mt, e, b0 = m_tilde(state, params), params.e, params.b0

    def w(rho):
        s = shape_function(rho, params)
        return field_free.potential(rho, E) - e * mt * b0 * s + (e**2 * b0**2 / 4.0) * rho**2 * s**2

    return w, field_free.et


class TestSpectralTarget:
    def test_matches_e_tilde_for_coulomb_shape(self):
        # at sigma = 1 the target is the Et of every reduced_equation record
        params = PhysicalParams(kz=1.0)
        et = reduced_equation(ModelKind.A, QuantumState(0, 0), params).et
        assert et == -params.s_squared == -2.0

    def test_general_shape_keeps_only_kz(self):
        params = PhysicalParams(sigma=0.5, kz=1.0)
        assert general_sigma_equation(ModelKind.A, QuantumState(0, 0), params, 0.0)[1] == -1.0


class TestRadialPotential:
    def test_non_positive_rho_is_a_domain_error(self):
        # the 'ga' form divided by zero at rho = 0 with a RuntimeWarning
        params = PhysicalParams(delta=0.1)
        for kind, target in ((ModelKind.A, "exact"), (ModelKind.C, "ga")):
            eq = reduced_equation(kind, QuantumState(0, 1), params, target)
            with pytest.raises(DomainError, match="rho must be positive"):
                eq.potential(np.array([1.0, 0.0]), 0.3)
            # the closed-form wavefunction takes its rho through the same check
            with pytest.raises(DomainError, match="rho must be positive"):
                wavefunction(kind, QuantumState(0, 1), params, np.array([-1.0, 1.0]))

    def test_sigma_limit_shifts_by_the_absorbed_constant(self):
        # the generic-sigma assembly keeps e^2 B0^2 mu^2 in the potential,
        # the sigma=1 record moves it into the spectral target; the two
        # conventions must agree about W - Et, which checks the record's
        # field coefficients against fields.shape_function
        base = PhysicalParams(mu=1.3, kz=0.5, beta=0.2)
        near = base.replace(sigma=1.0 - 1e-12)
        state = QuantumState(0, 1)
        exact = reduced_equation(ModelKind.A, state, base)
        w_general, et_general = general_sigma_equation(ModelKind.A, state, near, 0.4)
        shift = et_general - exact.et
        for rho in (0.5, 1.0, 3.0, 10.0):
            assert w_general(rho) - exact.potential(rho, 0.4) == pytest.approx(shift, rel=1e-9)

    def test_generic_sigma_spectrum_is_finite_and_ordered(self):
        params = PhysicalParams(sigma=0.5, kz=1.0)
        state = QuantumState(0, 1)
        w, _ = general_sigma_equation(ModelKind.A, state, params, 0.0)
        # m_tilde = 1 puts 3/4 rho^-2 in W, i.e. p = 3/2; the rest is smooth
        vals = fv_levels(0.0, 30.0, 4000, 3, smooth=lambda r: w(r) - 0.75 / r**2, p=1.5)
        assert np.all(np.isfinite(vals))
        assert np.all(np.diff(vals) > 0)

    def test_ga_target_guards(self):
        # reduced_equation owns the target's rules
        params = PhysicalParams(delta=0.1)
        state = QuantumState(0, 1)
        with pytest.raises(DomainError, match="^Greene-Aldrich target applies to model C only$"):
            reduced_equation(ModelKind.A, state, params, target="ga")
        with pytest.raises(DomainError, match="^Greene-Aldrich target requires delta > 0$"):
            reduced_equation(ModelKind.C, state, PhysicalParams(), target="ga")
        with pytest.raises(DomainError, match="^target must be 'exact' or 'ga', got 'bogus'$"):
            reduced_equation(ModelKind.C, state, params, target="bogus")
        assert reduced_equation(ModelKind.C, state, params, "ga").target == "ga"
        assert reduced_equation(ModelKind.C, state, params).target == "exact"

    def test_ga_approaches_exact_at_small_delta_rho(self):
        params = PhysicalParams(mu=0.15, delta=0.05)
        state = QuantumState(0, 1)
        E = energy(ModelKind.C, state, params)
        w_ga = reduced_equation(ModelKind.C, state, params, "ga").potential
        w_ex = reduced_equation(ModelKind.C, state, params, "exact").potential
        gaps = [abs(w_ga(rho, E) - w_ex(rho, E)) for rho in (0.05, 0.5, 2.0)]
        assert gaps[0] < 0.02 * abs(w_ex(0.05, E))


class TestSplit:
    """The oracle integrates W as c2/rho^2 + c1/rho + smooth - E g, all read
    from the record of models.reduced_equation (its split and mass);
    reassembled, that is the record's potential."""

    PARAMS = PhysicalParams(mu=0.4, beta=-0.7, kz=0.3, alpha_ab=0.2, eta=1.3, delta=0.15,
                            v0=0.3, v1=0.2, v2=0.1)

    @pytest.mark.parametrize(
        "kind, target",
        [(ModelKind.A, "exact"), (ModelKind.B, "exact"), (ModelKind.C, "exact"),
         (ModelKind.C, "ga")],
    )
    def test_assembled_potential_is_radial_potential(self, kind, target):
        state, E = QuantumState(1, 2), 0.37
        eq = reduced_equation(kind, state, self.PARAMS, target)
        c2, c1, smooth = eq.split()
        rho = np.geomspace(1e-3, 80.0, 60)
        assembled = c2 / rho**2 + c1 / rho + smooth(rho) - E * eq.mass(rho)
        expected = eq.potential(rho, E)
        scale = np.abs(c2) / rho**2 + np.abs(c1) / rho + 1.0
        assert np.max(np.abs(assembled - expected) / scale) <= 1e-13

    @pytest.mark.parametrize(
        "kind, target",
        [(ModelKind.A, "exact"), (ModelKind.B, "exact"), (ModelKind.C, "exact"),
         (ModelKind.C, "ga")],
    )
    def test_tail_is_the_potential_far_out(self, kind, target):
        # W(inf) - Et: at rho = 1e9 the mass term and every 1/rho have gone,
        # or 1/rho has become delta for 'ga'
        state = QuantumState(1, 2)
        eq = reduced_equation(kind, state, self.PARAMS, target)
        far = eq.potential(np.array([1e9]), 1.7)[0] - eq.et
        assert eq.tail == pytest.approx(far, rel=1e-12, abs=1e-8)
        assert eq.et == -self.PARAMS.s_squared
        if target == "ga":  # the closed form's radicand
            assert eq.tail == pytest.approx(ga_radicand(state, self.PARAMS), rel=1e-13)
        elif kind is ModelKind.C:  # a4 = a4t delta^2, bit for bit s^2 + b0
            a4t = model_c_coefficients(state, self.PARAMS, 1.7).a4t
            assert a4t == (self.PARAMS.s_squared + eq.b0) / eq.delta**2

    def test_no_smooth_part_without_a_yukawa_term(self):
        # models A and B with b0 = v0 = 0 build the pencil without a smooth term
        params = self.PARAMS.replace(v0=0.0)
        for kind in (ModelKind.A, ModelKind.B):
            eq = reduced_equation(kind, QuantumState(1, 2), params)
            assert eq.split() == (eq.c2, eq.c1, None)
        assert reduced_equation(ModelKind.C, QuantumState(1, 2), params).split()[2] is not None

    @pytest.mark.parametrize("nodes", ["delta_rho_1e-8_to_50", "h_1e-6"])
    def test_ga_smooth_part_is_the_expanded_surrogate(self, nodes):
        # reference: delta/(1 - e^(-delta rho)) = 1/rho + delta t(delta rho)
        # expanded by hand; the smooth part subtracted from the reduced
        # equation's potential must equal that expansion to rounding
        def t_hat(x):  # 1/(1 - e^(-x)) - 1/x, a series below x = 1e-3
            small = x < 1e-3
            xs = np.where(small, 1.0, x)
            direct = (xs + np.expm1(-xs)) / (xs * (-np.expm1(-xs)))
            series = 0.5 + x / 12.0 - x**3 / 720.0 + x**5 / 30240.0
            return np.where(small, series, direct)

        eq = reduced_equation(ModelKind.C, QuantumState(1, 2), self.PARAMS, "ga")
        c2, c1, smooth = eq.split()
        d = eq.delta
        if nodes == "h_1e-6":  # the nodes of a rung of 4000 cells on (0, 4e-3]
            seen = []
            _rung(4000, 1.0, 4e-3, c1, lambda r: seen.append(r) or smooth(r), eq.mass, 1, eq.et, 0)
            (rho,) = seen
        else:
            rho = np.geomspace(1e-8, 50.0, 400) / d
        t = t_hat(d * rho)
        expanded = eq.c2 * (2.0 * d * (t - 0.5) / rho + (d * t) ** 2) + eq.c1 * d * t
        expanded = expanded + eq.smooth(rho)
        assert (c2, c1) == (eq.c2, eq.c1 + d * eq.c2)
        scale = np.abs(c2) / rho**2 + np.abs(c1) / rho + 1.0
        assert np.max(np.abs(smooth(rho) - expanded) / scale) <= 1e-12

    def test_model_a_with_a_potential_is_model_c_at_zero_delta(self):
        # at delta = 0 the two profiles coincide, V included; the oracle used
        # to drop V for model A
        params = PhysicalParams(v0=0.3, v1=0.2, v2=0.1, beta=0.3, kz=0.5)
        for state in (QuantumState(0, 1), QuantumState(2, -1)):
            level_a = oracle_energy(ModelKind.A, state, params)
            level_c = oracle_energy(ModelKind.C, state, params, target="exact")
            closed = energy(ModelKind.C, state, params)
            assert level_a.energy == pytest.approx(level_c.energy, rel=1e-12)
            assert abs(level_a.energy - closed) <= level_a.error
            assert abs(level_c.energy - closed) <= level_c.error

    def test_model_a_oracle_keeps_the_potential(self):
        level = oracle_energy(ModelKind.A, QuantumState(1, 1), PhysicalParams(v1=0.5))
        assert level.energy == pytest.approx(2.5615528128088303, rel=1e-6)

    def test_model_b_oracle_keeps_the_potential(self):
        # at delta = 0, V shifts the Coulomb strength by v0 + v1 and w^2 by
        # v2, so the model B formula with those shifts is exact
        params = PhysicalParams(mu=1.5, beta=-1.0, kz=0.4, v0=0.2, v1=0.3, v2=0.25)
        state = QuantumState(1, 2)
        s = math.sqrt(params.s_squared)
        coulomb = 2.0 * 2 * 1.5 - 1.5 * -1.0 + 0.2 + 0.3
        ell = coulomb / (2.0 * s) - 1.5
        w_sq = (2.0 + 0.5) ** 2 + 0.25
        expected = (w_sq + 0.25 - ell**2) / params.eta
        level = oracle_energy(ModelKind.B, state, params)
        assert abs(level.energy - expected) <= max(level.error, 1e-6 * abs(expected))


@st.composite
def ga_levels(draw):
    """A model C state with a Greene-Aldrich potential, over the benchmark's
    draw space widened by the Yukawa-plus-Kratzer terms; v1 up to 1 makes
    the radicand r0 negative on about one draw in six."""
    state = QuantumState(draw(st.integers(0, 3)), draw(st.integers(-3, 3)))
    params = PhysicalParams(
        mu=draw(st.floats(0.1, 0.5)), delta=draw(st.floats(0.02, 0.3)), beta=draw(st.floats(-5.0, 1.0)),
        kz=draw(st.floats(0.0, 0.5)), alpha_ab=draw(st.floats(-0.5, 0.5)), eta=draw(st.floats(0.5, 1.5)),
        v0=draw(st.floats(0.0, 0.5)), v1=draw(st.floats(0.0, 1.0)), v2=draw(st.floats(0.0, 0.5)),
    )
    return state, params


def ga_radicand(state, params):
    """The closed form's r0 = delta^2 (w^2 + V2) + delta^2/4 - 2 e B0 mu w delta
    - delta V1 + kz^2 + (e B0 mu)^2, written out from the paper's level formula."""
    e, b0, mu, d = params.e, params.b0, params.mu, params.delta
    w = state.m - params.alpha_ab - e * b0 * params.beta / 2.0
    return (d * d * (w * w + params.v2) + d * d / 4.0 - 2.0 * e * b0 * mu * w * d - d * params.v1
            + params.kz**2 + (e * b0 * mu) ** 2)


class TestOracleEnergy:
    def test_model_a_anchor(self, unit_params):
        e = oracle_energy(ModelKind.A, QuantumState(0, 0), unit_params).energy
        assert e == pytest.approx(1.5, rel=1e-5)

    def test_model_b_anchor(self, unit_params):
        e = oracle_energy(ModelKind.B, QuantumState(0, 1), unit_params).energy
        assert e == pytest.approx(1.0, rel=1e-5)

    def test_model_c_greene_aldrich_matches_closed_form(self, weak_field_params):
        params = weak_field_params.replace(delta=0.1)
        state = QuantumState(0, 1)
        closed = energy(ModelKind.C, state, params)
        e = oracle_energy(ModelKind.C, state, params, target="ga").energy
        assert e == pytest.approx(closed, rel=1e-6)

    @pytest.mark.parametrize(
        "kind, state, params",
        [
            (ModelKind.A, QuantumState(1, -1), PhysicalParams(beta=0.5, kz=0.7)),
            (ModelKind.A, QuantumState(2, 0), PhysicalParams(alpha_ab=0.3)),
            (ModelKind.B, QuantumState(1, 3), PhysicalParams(mu=1.2)),
        ],
    )
    def test_spot_checks_against_closed_forms(self, kind, state, params):
        closed = energy(kind, state, params)
        e = oracle_energy(kind, state, params).energy
        assert e == pytest.approx(closed, rel=1e-5)

    def test_error_estimate_bounds_the_error(self, unit_params):
        for kind, state in ((ModelKind.A, QuantumState(1, 1)), (ModelKind.B, QuantumState(0, 2))):
            level = oracle_energy(kind, state, unit_params)
            closed = energy(kind, state, unit_params)
            assert 0.0 < level.error < 1e-4
            assert abs(level.energy - closed) <= level.error

    @pytest.mark.parametrize(
        "kind, state, params, target",
        [
            (ModelKind.A, QuantumState(1, 1), PhysicalParams(), "exact"),
            (ModelKind.B, QuantumState(0, 2), PhysicalParams(kz=1.0), "exact"),
            (ModelKind.C, QuantumState(1, 0), PhysicalParams(mu=0.15, delta=0.1, v0=0.2), "ga"),
        ],
        ids=["A", "B", "C"],
    )
    @pytest.mark.parametrize("eta", [1e-12, 1e-3, 0.7, 1e3, 1e12])
    def test_level_and_estimate_scale_as_one_over_eta(self, kind, state, params, target, eta):
        # the mass is eta f(rho) e^(-delta rho), so eta only rescales a level:
        # the pencil the oracle solves does not depend on it
        base = oracle_energy(kind, state, params, target=target)
        level = oracle_energy(kind, state, params.replace(eta=eta), target=target)
        assert level.energy * eta == pytest.approx(base.energy, rel=1e-13)
        assert level.error * eta == pytest.approx(base.error, rel=1e-13)

    @pytest.mark.parametrize("n_rho", [0, 1])
    def test_weak_field_level_is_within_the_oracle_estimate(self, n_rho):
        # at mu = 1e-12 the decay rate is 1e-12; in fixed units the level
        # read 3.4e-3 and 3.9e-4 off, against estimates of 1.1e-4 and 1.5e-4
        state, params = QuantumState(n_rho, 1), PhysicalParams(mu=1e-12)
        closed = energy(ModelKind.A, state, params)
        level = oracle_energy(ModelKind.A, state, params)
        assert level.energy == pytest.approx(closed, rel=1e-7)
        assert abs(level.energy - closed) <= level.error

    def test_criterion_1_worst_level(self):
        # A (3, 0) at the default parameters, acceptance criterion 1's worst
        # level: its fit is not settled on 4000 cells, and the fit on 2000,
        # 4000 and 8000 cells gives 2.4e-7 where one Richardson step gave 4.2e-6
        closed = energy(ModelKind.A, QuantumState(3, 0), PhysicalParams())
        e = oracle_energy(ModelKind.A, QuantumState(3, 0), PhysicalParams()).energy
        assert abs(e - closed) <= 3e-7 * abs(closed)

    def test_unbound_model_b_state_has_no_level(self, unit_params):
        # the closed form rejects (1, 1) at unit parameters; the oracle finds
        # no level above the fall-to-center threshold on its own
        with pytest.raises(BoundStateError, match="no level n_rho = 1"):
            oracle_energy(ModelKind.B, QuantumState(1, 1), unit_params)

    @pytest.mark.parametrize("kind, params", [(ModelKind.A, PhysicalParams(v2=-1.0)),
                                              (ModelKind.C, PhysicalParams(v2=-1.0, delta=0.1))],
                             ids=["A", "C"])
    def test_fall_to_center_has_no_level(self, kind, params):
        # c2 = m_tilde^2 + 1/16 - 1/4 + v2 below -1/4: without model B's E in
        # c2 no grid power p = 1/2 + sqrt(c2 + 1/4) exists
        message = "fall to center: centrifugal strength c2 = -1.1875 is below -1/4, no lowest level"
        with pytest.raises(BoundStateError, match=f"^{message}$"):
            oracle_energy(kind, QuantumState(0, 0), params)

    def test_one_cell_grid_is_its_diagonal_entry(self, unit_params, monkeypatch):
        # n_points = 4 starts the ladder on one cell, which eigh_tridiagonal
        # answers without LAPACK; the coarse level's error estimate still
        # bounds its error
        value, vector = eigh_tridiagonal(np.array([2.5]), np.array([]), 0)
        assert value == 2.5 and np.array_equal(vector, [1.0])
        sizes = grid_sizes(monkeypatch)
        (row,), _ = verify_states(ModelKind.A, [QuantumState(0, 0)], unit_params, n_points=4)
        assert sizes == [1, 2, 4, 8]
        assert row.e_closed == 1.5 and row.e_oracle == pytest.approx(2.3435, abs=1e-4)
        assert row.abs_err <= row.oracle_err == pytest.approx(0.8747, abs=1e-4)

    def test_eigensolves_per_level(self, unit_params, weak_field_params, monkeypatch):
        # the ladder solves 1000, 2000 and 4000 cells and stops when its
        # three-grid fit is settled, else it goes on to 8000
        import pdmag.oracle

        sizes = grid_sizes(monkeypatch)
        oracle_energy(ModelKind.A, QuantumState(2, 1), unit_params)
        assert sizes == [1000, 2000, 4000]
        sizes.clear()
        # n_points rounds down to a multiple of 4: 4002 climbs the ladder of 4000
        level = oracle_energy(ModelKind.A, QuantumState(2, 1), unit_params, n_points=4002)
        assert sizes == [1000, 2000, 4000]
        assert level == oracle_energy(ModelKind.A, QuantumState(2, 1), unit_params)
        sizes.clear()
        oracle_energy(ModelKind.C, QuantumState(1, 0), weak_field_params.replace(delta=0.1), target="ga")
        assert sizes == [1000, 2000, 4000, 8000]
        sizes.clear()
        # model B's fixed point runs on the coarsest grid alone
        level = oracle_energy(ModelKind.B, QuantumState(1, 3), PhysicalParams(mu=1.2))
        assert level.error <= pdmag.oracle._LADDER_TOL * abs(level.energy)
        assert sizes[-2:] == [2000, 4000]
        assert set(sizes[:-2]) == {1000}
        assert len(sizes) <= 8

    def test_each_solve_starts_from_the_last_eigenvector(self, unit_params, monkeypatch):
        # (cells, the guess, the start vector's length) of each solve: the
        # first one guesses from the leading half and starts from ones, a
        # finer rung starts from the last vector prolonged, model B's fixed
        # point from the last vector as it is, and n_points = 4002 climbs
        # the ladder of 4000
        import pdmag.oracle

        solves = []
        solve = pdmag.oracle.eigh_tridiagonal

        def record(d, e, index, guess=None, start=None):
            solves.append((len(d), guess, None if start is None else len(start)))
            return solve(d, e, index, guess, start)

        monkeypatch.setattr(pdmag.oracle, "eigh_tridiagonal", record)
        oracle_energy(ModelKind.A, QuantumState(2, 1), unit_params)
        assert [(n, guess is None, start) for n, guess, start in solves] == [
            (1000, True, None), (2000, False, 2000), (4000, False, 4000)]
        solves.clear()
        oracle_energy(ModelKind.B, QuantumState(1, 3), PhysicalParams(mu=1.2))
        fixed_point = [(n, guess, start) for n, guess, start in solves if n == 1000]
        assert fixed_point[0] == (1000, None, None) and len(fixed_point) >= 3
        assert all(step == (1000, 0.0, 1000) for step in fixed_point[1:])
        solves.clear()
        state = QuantumState(2, 1)
        level = oracle_energy(ModelKind.A, state, unit_params, n_points=4002)
        assert [(n, start) for n, _, start in solves] == [(1000, None), (2000, 2000), (4000, 4000)]
        assert level.energy == pytest.approx(energy(ModelKind.A, state, unit_params), rel=1e-7)
        assert abs(level.energy - energy(ModelKind.A, state, unit_params)) <= level.error

    def test_model_b_without_a_level_on_the_coarsest_grid_starts_one_finer(self, monkeypatch):
        # the fixed point finds no level on 1000 cells and one on 2000; the
        # ladder goes on from there to 4000 and 8000 cells
        sizes = grid_sizes(monkeypatch)
        state = QuantumState(3, 3)
        params = PhysicalParams(mu=1.4793383804344895, beta=-1.8709133328376488,
                                kz=0.40346526501395374, alpha_ab=0.30149235941985886,
                                eta=1.3942226920130838)
        assert energy(ModelKind.B, state, params) == pytest.approx(9.651013223195335, rel=1e-14)
        e = oracle_energy(ModelKind.B, state, params).energy
        assert e == pytest.approx(9.651013223195335, abs=1e-5)
        assert 1000 in sizes and sizes[-2:] == [4000, 8000]

    @pytest.mark.parametrize(
        "state, params",
        [
            # two levels of the benchmark stream (seeds 7 and 8)
            (QuantumState(3, 3), PhysicalParams(
                beta=-3.3751688983812915, kz=0.037376114739062105, alpha_ab=-0.04526065134694124,
                eta=0.5370021706239231, mu=0.27402308878897974, delta=0.05612716898234739)),
            (QuantumState(3, 3), PhysicalParams(
                beta=-3.8410352723180847, kz=0.04315628574666408, alpha_ab=-0.46131829505543787,
                eta=1.3733005540624676, mu=0.4343432419851676, delta=0.15117176336492152)),
            # two more whose fit on 2000, 4000 and 8000 cells is still 4e-3
            # and 1e-2 off: the pair value must win there
            (QuantumState(2, 3), PhysicalParams(
                beta=-3.96163447768569, kz=0.05054744927449857, alpha_ab=-0.494894320451846,
                eta=1.2962273903844266, mu=0.3731959034358705, delta=0.06808002435258807)),
            (QuantumState(2, 3), PhysicalParams(
                beta=-4.363214001872648, kz=0.01960535582523684, alpha_ab=-0.11040471570117794,
                eta=0.8660390572621383, mu=0.2570442364166393, delta=0.051696366620370734)),
        ],
    )
    def test_unsettled_three_grid_fit_goes_on_to_twice_the_cells(self, state, params, monkeypatch):
        # high-p model C levels are far off on 1000 cells, so the three-grid
        # fit misses the gate; the stop rule sees that and solves 8000 cells
        import pdmag.oracle

        closed = energy(ModelKind.C, state, params)
        sizes = grid_sizes(monkeypatch)
        e = oracle_energy(ModelKind.C, state, params, target="ga").energy
        assert sizes[-1] == 8000
        assert e == pytest.approx(closed, abs=1e-4)
        monkeypatch.setattr(pdmag.oracle, "_LADDER_TOL", math.inf)
        forced = oracle_energy(ModelKind.C, state, params, target="ga").energy
        assert abs(forced - closed) > 1e-3

    def test_ladder_fit_cancels_both_error_terms(self):
        # below the last rung (settled or not) and on it, where the fit's
        # error is below the pair's
        from pdmag.oracle import _extrapolate

        q = 3.4
        levels = [2.5 + 3e3 / n**2 - 7e5 / n**q for n in (1000, 2000, 4000)]
        fit = _extrapolate(levels, q, last=True)
        assert fit.energy == pytest.approx(2.5, abs=1e-14)
        e1, e2, e3 = levels
        r12, r23 = (4 * e2 - e1) / 3, (4 * e3 - e2) / 3
        assert fit.error == pytest.approx(abs(r23 - r12), rel=1e-12)
        assert abs(r23 - e3) > fit.error  # so the last rung keeps the fit
        assert _extrapolate(levels, q, last=False) is None  # not settled
        assert _extrapolate(levels[:2], q, last=True) is None
        # h^2 alone: settled at once, below the last rung too
        levels = [2.5 + 3e3 / n**2 for n in (1000, 2000, 4000)]
        assert _extrapolate(levels, q, last=False).energy == pytest.approx(2.5, abs=1e-14)
        # q = 2 (p = 1/2, reached by model C with v2 = -w^2 - 1/16): h^q is h^2,
        # the fit cannot tell the two apart, and E* must stay finite
        assert _extrapolate(levels, 2.0, last=True).energy == pytest.approx(2.5, abs=1e-14)

    def test_last_rung_keeps_the_pair_value_when_the_fit_is_worse(self):
        # a level far from its asymptotic range: the fit's two Richardson
        # values disagree by more than the last pair's step
        from pdmag.oracle import OracleLevel, _extrapolate

        level = _extrapolate([1.0, 1.1, 1.0999], 3.4, last=True)
        r23 = (4 * 1.0999 - 1.1) / 3
        assert level == OracleLevel(r23, abs(r23 - 1.0999))
        assert _extrapolate([1.0, 1.1, 1.0999], 3.4, last=False) is None

    def test_three_grid_fit_takes_its_order_from_the_origin_exponent(self, monkeypatch):
        # p = 0.8 here, so the second error term is h^2.6; a fit at order 2
        # instead misses by 5e-7
        import pdmag.oracle

        monkeypatch.setattr(pdmag.oracle, "_LADDER_TOL", math.inf)
        params = PhysicalParams(alpha_ab=0.3)
        closed = energy(ModelKind.A, QuantumState(0, 0), params)
        e = oracle_energy(ModelKind.A, QuantumState(0, 0), params).energy
        assert e == pytest.approx(closed, rel=5e-8)

    def test_model_b_that_does_not_settle_is_a_domain_error(self, unit_params, monkeypatch):
        # no step of the fixed-point iteration is below a negative tolerance;
        # a positive one, however small, can be met by a step of exactly 0
        import pdmag.oracle

        monkeypatch.setattr(pdmag.oracle, "_FIXED_POINT_TOL", -1e-300)
        with pytest.raises(DomainError, match="did not settle to tol = -1e-300 in 100 solves"):
            oracle_energy(ModelKind.B, QuantumState(0, 1), unit_params, n_points=200)

    def test_validation(self, unit_params):
        state = QuantumState(0, 0)
        with pytest.raises(BoundStateError, match="no bound spectrum"):
            oracle_energy(ModelKind.A, state, PhysicalParams(b0=0.0))
        with pytest.raises(DomainError, match="sigma = 1, got 2.0"):
            oracle_energy(ModelKind.A, state, PhysicalParams(sigma=2.0))
        with pytest.raises(DomainError, match="model C only"):
            oracle_energy(ModelKind.A, state, unit_params, target="ga")
        with pytest.raises(DomainError, match="^Greene-Aldrich target requires delta > 0$"):
            oracle_energy(ModelKind.C, state, unit_params, target="ga")
        with pytest.raises(DomainError, match="^target must be 'exact' or 'ga', got 'bogus'$"):
            oracle_energy(ModelKind.C, state, unit_params, target="bogus")
        with pytest.raises(TypeError):
            oracle_energy(ModelKind.A, state, unit_params, (1.0, 2.0))
        # the finest grid has 2 n_points cells; 10^12 was a numpy _ArrayMemoryError
        with pytest.raises(DomainError, match=r"^n_points must be at most 500000 \(2 n_points"):
            oracle_energy(ModelKind.A, state, unit_params, n_points=10**12)
        assert oracle_energy(ModelKind.A, state, unit_params, n_points=400).error > 0

    @pytest.mark.parametrize("delta", [0.1, 0.2])
    def test_ga_equation_without_a_decaying_tail_has_no_level(self, delta):
        # W(inf) - Et of the Greene-Aldrich equation is the closed form's r0.
        # Where it is negative the closed form rejects the state, and the
        # oracle, whose truncated grid once held box states there (for
        # instance (0, 1) at -136 800 and (2, 1) at -179.3 for delta = 0.2),
        # must reject it too
        params = PhysicalParams(mu=0.3, v0=0.2, v1=0.3, v2=0.1, delta=delta)
        rejected = 0
        for state in (QuantumState(n, m) for n in range(4) for m in range(-3, 4)):
            try:
                energy(ModelKind.C, state, params)
            except DomainError as err:
                assert "radicand r0" in str(err)
                with pytest.raises(BoundStateError, match=r"no bound spectrum: W\(inf\) - Et = -"):
                    oracle_energy(ModelKind.C, state, params, target="ga")
                rejected += 1
        assert rejected == 8  # m = 2, 3 at delta = 0.1; m = 1, 2 at delta = 0.2

    @given(case=ga_levels())
    def test_ga_level_exists_exactly_where_the_radicand_is_positive(self, case):
        state, params = case
        r0 = ga_radicand(state, params)
        assume(abs(r0) > 1e-9)  # the rounding band of r0 and of W(inf) - Et
        if r0 > 0:
            energy(ModelKind.C, state, params)
            level = oracle_energy(ModelKind.C, state, params, n_points=400, target="ga")
            assert math.isfinite(level.energy) and math.isfinite(level.error)
        else:
            with pytest.raises(BoundStateError, match=r"W\(inf\) - Et"):
                oracle_energy(ModelKind.C, state, params, n_points=400, target="ga")

    @pytest.mark.xfail(
        strict=True, raises=DomainError,
        reason="ROADMAP item 3: the FV domain 25/sqrt(W(inf) - Et) reaches delta rho ~ 465 and "
        "990, where the mass weight e^(-delta rho) is ~1e-202 or underflows to 0",
    )
    @pytest.mark.parametrize("mu", [0.1, 0.1015625])
    def test_weightless_ga_level_is_within_the_oracle_estimate(self, mu):
        # C (0, 1) with a tail far slower than its mass weight (W(inf) - Et is
        # 3.4e-5 and 7.6e-6): the closed forms read 0.18157 and 0.16883, and
        # the oracle raises "did not converge" and "must be finite on the grid"
        state = QuantumState(0, 1)
        params = PhysicalParams(mu=mu, delta=0.109375, v1=0.03125, v2=0.03125)
        closed = energy(ModelKind.C, state, params)
        level = oracle_energy(ModelKind.C, state, params, target="ga")
        assert abs(level.energy - closed) <= level.error

    def test_model_c_exact_at_zero_delta_with_a_yukawa_term_has_a_level(self, weak_field_params):
        # the record's W(inf) is b0 here, never W evaluated at rho = inf,
        # where v0 (1 - e^(-delta rho))/rho is 0 * inf at delta = 0
        params = weak_field_params.replace(v0=0.3)
        closed = energy(ModelKind.C, QuantumState(0, 1), params)
        level = oracle_energy(ModelKind.C, QuantumState(0, 1), params, target="exact")
        assert math.isfinite(level.energy) and 0.0 < level.error < 1e-6
        assert level.energy == pytest.approx(closed, rel=1e-6)

    def test_slow_tail_model_c_level_is_within_its_estimate(self, weak_field_params):
        # C (3, 3) at delta = 0.05, a known defect of the benchmark stream:
        # its tail decays at sqrt(r0) = 0.025, so a domain of 25/sqrt(-Et)
        # held 4.2 decay lengths and the level was 3.2e-3 off
        params = weak_field_params.replace(delta=0.05)
        closed = energy(ModelKind.C, QuantumState(3, 3), params)
        level = oracle_energy(ModelKind.C, QuantumState(3, 3), params, target="ga")
        assert abs(level.energy - closed) <= 1e-4 * max(1.0, abs(closed))
        assert abs(level.energy - closed) <= level.error

    def test_exact_vs_ga_gap_grows_with_delta(self, weak_field_params):
        # the substituted form and the true exponential-mass equation drift
        # apart as the screening gets stronger (in the small-delta regime;
        # the gap levels off once delta*rho is order one over the orbit)
        state = QuantumState(0, 1)
        gaps = []
        for delta in (0.01, 0.05, 0.1):
            params = weak_field_params.replace(delta=delta)
            e_ga = oracle_energy(ModelKind.C, state, params, target="ga").energy
            e_exact = oracle_energy(ModelKind.C, state, params, target="exact").energy
            gaps.append(abs(e_ga - e_exact))
        assert gaps[0] < gaps[1] < gaps[2]

    @pytest.mark.parametrize(
        "state, params",
        [
            # weight exp(-delta rho) down to ~1e-12 at rho_max; with LAPACK's
            # default eigensolve tolerance the second level came out as 1.3e7
            (QuantumState(0, -1), dict(beta=-4.282096315048737, kz=0.004628488781760809,
                                       alpha_ab=-0.3879500076998107, eta=0.8441716106960454,
                                       mu=0.2057208093981136, delta=0.23463880883740817)),
            (QuantumState(1, 0), dict(beta=-2.4948840449098264, kz=0.02681866446745862,
                                      alpha_ab=0.423836115586133, eta=1.30261021362774,
                                      mu=0.14907695756112258, delta=0.273105891014101)),
        ],
    )
    def test_model_c_graded_weight(self, state, params):
        params = PhysicalParams(**params)
        closed = energy(ModelKind.C, state, params)
        e = oracle_energy(ModelKind.C, state, params, target="ga").energy
        assert e == pytest.approx(closed, rel=1e-5)

    @pytest.mark.parametrize(
        "state, params",
        [
            # p = 1/2 + |ell_acute| is 0.528 and 0.519: just above the
            # fall-to-center threshold, where dF/dE diverges
            (QuantumState(2, 3), dict(beta=-0.5418126039238071, kz=0.2919970223731425,
                                      alpha_ab=0.3972202640963146, eta=0.5781749423641799,
                                      mu=0.5400672091221896)),
            (QuantumState(1, 0), dict(beta=-4.7150269240412195, kz=0.669257781070847,
                                      alpha_ab=0.4519517260825777, eta=0.8551963135347265,
                                      mu=0.8832844348322915)),
        ],
    )
    def test_model_b_near_fall_to_center(self, state, params):
        params = PhysicalParams(**params)
        closed = energy(ModelKind.B, state, params)
        level = oracle_energy(ModelKind.B, state, params)
        assert math.isfinite(level.error)
        assert level.energy == pytest.approx(closed, rel=1e-5)


# The sets of acceptance criterion 6: (kind, params, m, target, form).
CRITERION_6_SETS = (
    (ModelKind.A, PhysicalParams(), 1, "exact", "paper"),
    (ModelKind.B, PhysicalParams(), 6, "exact", "paper"),
    (ModelKind.C, PhysicalParams(mu=0.15, delta=0.1), 1, "ga", "xi"),
)


def closed_form_residual(kind, state, params, target="exact", form="paper", shift=0.0):
    """residual of the closed form on its own Gauss nodes, against Et + shift,
    with W and Et from one reduced_equation record."""
    rho, u, upp = curvature(kind, state, params, form=form)
    eq = reduced_equation(kind, state, params, target)
    return residual(u, upp, eq.potential(rho, energy(kind, state, params)), eq.et + shift)


def power_moved(build, eps):
    """The closed-form builder `build` with the power of U at the origin,
    rho^p (models A and B) or (1 - xi)^p (model C), moved to p + eps. U''
    stays exact for the moved U."""

    def moved(state, params, form):
        closed, d = build(state, params, form), params.delta

        def lift(rho):  # the extra factor f, (ln f)' and (ln f)''
            if not d:
                return rho**eps, eps / rho, -eps / rho**2
            q = 1.0 / np.expm1(d * rho)
            return (-np.expm1(-d * rho)) ** eps, eps * d * q, -eps * d * d * q * (1.0 + q)

        def factor(rho):
            a, z = closed.factor(rho)
            return a * lift(rho)[0], z

        def slopes(rho):
            g, dg, dz, ddz = closed.slopes(rho)
            _, lg, ldg = lift(rho)
            return g + lg, dg + ldg, dz, ddz

        return closed._replace(factor=factor, slopes=slopes)

    return moved


class TestResidual:
    def test_closed_form_curvature_route(self, unit_params):
        # U and U'' from models.curvature, W and Et from reduced_equation
        assert closed_form_residual(ModelKind.A, QuantumState(1, 1), unit_params) <= 1e-12

    def test_shifted_target_shows_up_linearly(self, unit_params):
        # with the exact U and U'', replacing Et by Et + 0.1 leaves exactly
        # -0.1 U, so the scaled max-norm residual is 0.1 up to rounding
        state = QuantumState(0, 1)
        res = closed_form_residual(ModelKind.A, state, unit_params, shift=0.1)
        assert res == pytest.approx(0.1, rel=1e-12)

    @pytest.mark.parametrize("kind, params, m, target, form", CRITERION_6_SETS,
                             ids=["A", "B", "C"])
    def test_a_moved_exponent_shows_up(self, monkeypatch, kind, params, m, target, form):
        # correct closed forms read rounding; one exponent moved by 1e-8
        # reads at least 1e-9, below the 1e-8 floor of a five-point stencil
        states = [QuantumState(n, m) for n in range(6)]
        exact = [closed_form_residual(kind, s, params, target, form) for s in states]
        assert max(exact) <= 1e-12, exact
        monkeypatch.setitem(models._CLOSED_FORMS, kind, power_moved(models._CLOSED_FORMS[kind], 1e-8))
        moved = [closed_form_residual(kind, s, params, target, form) for s in states]
        assert min(moved) >= 1e-9, moved


class TestNodeCount:
    def test_closed_form_nodes(self, unit_params):
        rho = np.linspace(0.05, 30.0, 4000)
        for n in (0, 1, 3):
            u = wavefunction(ModelKind.A, QuantumState(n, 1), unit_params, rho, component="U")
            assert node_count(u) == n

    def test_plain_oscillation(self):
        x = np.linspace(0.1, 16.0, 2000)
        assert node_count(np.sin(x)) == 5

    @pytest.mark.parametrize("n, m", [(76, 21), (39, 54)])
    def test_paper_form_lobes_far_below_the_peak_count(self, n, m):
        # the paper form's lobes span 18-26 decades on its Gauss nodes; a
        # count that dropped entries below 1e-12 max|U| read 67 and 21
        params = PhysicalParams(mu=0.3, delta=0.286)
        _, u, _ = curvature(ModelKind.C, QuantumState(n, m), params, form="paper")
        assert np.min(np.abs(u)) < 1e-17 * np.max(np.abs(u))
        assert node_count(u) == n

    def test_radial_function_input(self):
        # sampled radial functions (pencil eigenvectors) go in as plain arrays
        from scipy.linalg import eigh_tridiagonal as solve

        diag, off, weight = per_cell_pencil(1.0, 60.0, 2000, et=-0.25)
        d = np.sqrt(weight)
        _, vecs = solve(diag / weight, off / (d[:-1] * d[1:]), select="i", select_range=(0, 2))
        assert [node_count(vecs[:, k]) for k in range(3)] == [0, 1, 2]


class TestVerifyStates:
    def test_model_a_rows(self, unit_params):
        states = [QuantumState(0, 0), QuantumState(0, 1), QuantumState(1, 0)]
        rows, skipped = verify_states(ModelKind.A, states, unit_params)
        assert skipped == []
        assert [r.state for r in rows] == states
        for row in rows:
            assert row.abs_err <= 1e-5 * max(1.0, abs(row.e_closed))
            assert row.residual <= 1e-6
            assert row.nodes == row.state.n_rho
            assert 0.0 < row.oracle_err <= 1e-5 * max(1.0, abs(row.e_closed))

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 3: the FV domain ends at 25/kappa = 25 while A (0, 10) peaks near "
        "rho = 10.5, and at larger |m| the rho^(2p) cell integrals break the scheme",
    )
    def test_high_m_level_is_within_the_oracle_estimate(self):
        # A (0, 10) at default parameters: E_oracle 3.523 against E_closed 1.00625
        (row,), _ = verify_states(ModelKind.A, [QuantumState(0, 10)], PhysicalParams())
        assert row.abs_err <= 1e-5 * abs(row.e_closed)
        assert row.abs_err <= row.oracle_err

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 3: the FV domain ends at 25 decay lengths, which keeps this "
        "level's abs_err at 2.9e-4 on every grid while its oracle_err falls",
    )
    def test_cut_limited_level_is_within_the_oracle_estimate(self):
        # seed 6's oracle-verify level 57, A (3, 3): abs_err 2.88e-4 against
        # an oracle_err of 6.6e-7
        params = PhysicalParams(mu=1.1931743419986636, beta=-4.328794129194238,
                                kz=0.9421934146537781, alpha_ab=-0.17133264335371523,
                                eta=0.7923173567035384)
        (row,), _ = verify_states(ModelKind.A, [QuantumState(3, 3)], params)
        assert row.abs_err <= row.oracle_err

    def test_model_b_skips_unbound_states(self, unit_params):
        states = [QuantumState(0, 1), QuantumState(1, 1)]
        rows, skipped = verify_states(ModelKind.B, states, unit_params)
        assert len(rows) == 1 and rows[0].e_closed == pytest.approx(1.0)
        assert len(skipped) == 1
        assert skipped[0][0] == QuantumState(1, 1)
        assert "not bound" in skipped[0][1]

    def test_model_c_defaults_to_ga_target(self, weak_field_params):
        params = weak_field_params.replace(delta=0.1)
        rows, skipped = verify_states(ModelKind.C, [QuantumState(0, 1)], params)
        assert skipped == []
        assert rows[0].abs_err <= 1e-6 * max(1.0, abs(rows[0].e_closed))
        assert rows[0].residual <= 1e-6

    @pytest.mark.parametrize(
        "params",
        [
            # seed-1 draw 191 of the oracle-verify benchmark: U(30) was its peak
            PhysicalParams(beta=-1.1293547249167117, kz=0.10070386292335232,
                           alpha_ab=-0.134068386080607, eta=0.8832372891803324,
                           mu=0.14506865785204917, delta=0.02719169624799432),
            # the C defect: its energy is still off, from the oracle's domain
            PhysicalParams(mu=0.15, delta=0.05),
        ],
        ids=["draw_191", "c_defect"],
    )
    def test_check_window_holds_the_whole_state(self, params):
        # the fixed window [0.05, 30] cut these slow tails off and read
        # 2 nodes; the Gauss nodes of the closed form's own polynomial
        # (the "check window" now) read all 3, the last of them beyond rho = 100
        rows, _ = verify_states(ModelKind.C, [QuantumState(3, 3)], params)
        assert rows[0].nodes == 3
        assert rows[0].residual <= 1e-12

    @pytest.mark.parametrize("n_points, message", [
        (0, "^n_points must be a positive integer, got 0$"),
        (True, "^n_points must be a positive integer, got True$"),
        (10**12, r"^n_points must be at most 500000 \(2 n_points"),
    ])
    def test_n_points_is_checked_when_every_state_is_skipped(self, n_points, message):
        # B (0, -3) is not bound at the default parameters, so no state
        # reaches oracle_energy; the run still rejects its n_points
        assert not model_b_bound(QuantumState(0, -3), PhysicalParams())
        with pytest.raises(DomainError, match=message):
            verify_states(ModelKind.B, [QuantumState(0, -3)], PhysicalParams(), n_points=n_points)

    @pytest.mark.parametrize("target", [None, "exact"])
    def test_model_c_at_zero_delta_names_model_a(self, unit_params, target):
        # the default 'ga' target used to fail with "requires delta > 0" and
        # 'exact' with the wavefunction's error; both now name the condition
        with pytest.raises(DomainError, match="model C at delta = 0 is model A's equation"):
            verify_states(ModelKind.C, [QuantumState(0, 0)], unit_params, target=target)
