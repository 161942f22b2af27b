"""Parameter sweeps and level-crossing detection."""

import dataclasses
import gc
import importlib
import itertools
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import pdmag.sweeps
import readme_doc
from pdmag.errors import BoundStateError, BracketingError, DomainError
from pdmag.models import Invalid, ModelKind, energy, level_axis, reason_text
from pdmag.oracle import oracle_energy
from pdmag.params import PhysicalParams, QuantumState
from pdmag.sweeps import SWEEPABLE, CrossingPoint, SweepRow, SweepSpec, find_crossings, sweep


# README's documented crossing ranges, (kind, s1, s2, param, range, base
# params) each; the benchmark's perfbench/inputs.ATLAS copies them
ATLAS = (
    (ModelKind.A, QuantumState(2, 1), QuantumState(1, 0), "beta", (-3.0, 3.0), PhysicalParams()),
    (ModelKind.A, QuantumState(1, 0), QuantumState(0, 2), "b0", (0.0, 2.0), PhysicalParams(kz=1.0)),
    (ModelKind.A, QuantumState(2, 1), QuantumState(1, 0), "alpha_ab", (-1.0, 1.5), PhysicalParams()),
    (ModelKind.A, QuantumState(1, 0), QuantumState(0, 2), "mu", (0.1, 1.0), PhysicalParams(kz=1.0)),
    (ModelKind.B, QuantumState(0, 1), QuantumState(1, 0), "beta", (-6.0, -3.5),
     PhysicalParams(mu=2.0, kz=1.0)),
    (ModelKind.B, QuantumState(0, 1), QuantumState(1, 0), "b0", (1.8, 4.0),
     PhysicalParams(beta=-2.0, kz=1.0)),
    (ModelKind.B, QuantumState(0, 1), QuantumState(1, 0), "alpha_ab", (-2.5, -0.8),
     PhysicalParams(b0=2.0, beta=-1.0, kz=1.0)),
    (ModelKind.B, QuantumState(0, 1), QuantumState(1, 0), "mu", (0.8, 2.5),
     PhysicalParams(beta=-6.0, kz=1.0)),
    (ModelKind.C, QuantumState(0, 1), QuantumState(1, 0), "delta", (0.01, 0.5), PhysicalParams(mu=0.15)),
)


def _reason_of(message):
    """The sweep-row reason of an error a single point raises: a rule's
    message is "<text>, got <value>", and a row carries the text."""
    text, got, _ = message.partition(", got ")
    assert got, message
    return text


# Base parameters and ranges per model that reach every invalid reason of
# that model somewhere on some sweepable axis. The last two of each model
# have no field scale: e = 0, or e b0 mu underflowing to 0 on every axis
# but b0's.
SWEEP_CASES = {
    ModelKind.A: (
        (PhysicalParams(), (-3.0, 3.0)),
        (PhysicalParams(kz=0.0, beta=-1.3, alpha_ab=0.2), (-1.0, 1.0)),
        (PhysicalParams(kz=0.4, eta=0.7), (1e150, 1e160)),
        (PhysicalParams(kz=0.0, v1=0.5), (-1.0, 1.0)),
        (PhysicalParams(e=0.0, beta=-1.3), (-1.0, 1.0)),
        (PhysicalParams(b0=1e-200, beta=-1.3), (0.5, 2.0)),
    ),
    ModelKind.B: (
        (PhysicalParams(beta=-6.0, kz=1.0), (-3.0, 3.0)),
        (PhysicalParams(kz=0.0, beta=-2.5, alpha_ab=-0.3), (-1.0, 1.0)),
        (PhysicalParams(beta=-3.0, kz=0.2), (1e150, 1e160)),
        (PhysicalParams(beta=-3.0, v0=-0.2, v2=0.1), (-1.0, 1.0)),
        (PhysicalParams(e=0.0, beta=-3.0), (-1.0, 1.0)),
        (PhysicalParams(b0=1e-200, beta=-3.0), (0.5, 2.0)),
    ),
    ModelKind.C: (
        (PhysicalParams(mu=0.15, delta=0.1), (-0.5, 0.5)),
        (PhysicalParams(mu=0.4, delta=0.3, v1=6.0, alpha_ab=0.4), (-2.0, 2.0)),
        (PhysicalParams(mu=0.4, delta=0.3, v2=-0.5, alpha_ab=0.4), (-2.0, 2.0)),
        (PhysicalParams(mu=0.2, delta=0.2, v0=0.3), (1e150, 1e160)),
        (PhysicalParams(e=0.0, delta=0.2), (-1.0, 1.0)),
        (PhysicalParams(b0=1e-200), (0.5, 2.0)),
    ),
}


# For each Invalid code, a single point that fails its rule, as (model,
# state, params, the value its message quotes); PhysicalParams itself
# rejects the first two.
SINGLE_POINT_FAILURES = {
    "NOT_FINITE": (ModelKind.A, (0, 1), {"beta": math.inf}, math.inf),
    "NEGATIVE": (ModelKind.A, (0, 1), {"b0": -0.5}, -0.5),
    "SIGMA": (ModelKind.A, (0, 1), {"sigma": 2.0}, 2.0),
    "NO_SCALE": (ModelKind.B, (0, 1), {"e": 0.0}, 0.0),
    "NOT_BOUND": (ModelKind.B, (0, 0), {}, -0.5),
    # w = 0, so r0 = delta (delta (v2 + 1/4) - v1) + (e B0 mu)^2 and G^2 = v2 + 1/16
    "R0_NEGATIVE": (ModelKind.C, (0, 0), {"delta": 0.5, "v1": 4.0, "mu": 0.0}, -1.9375),
    "G_NEGATIVE": (ModelKind.C, (0, 0), {"delta": 0.5, "v2": -0.5}, -0.4375),
    "NOT_FINITE_LEVEL": (ModelKind.B, (0, 1), {"b0": 1e200}, math.inf),
    "POTENTIAL": (ModelKind.A, (0, 1), {"v1": 0.5}, (0.0, 0.5, 0.0)),
}


def _direct(kind, state, params, name, value):
    """(E, None) or (None, error message) straight from models.energy."""
    try:
        return energy(kind, state, dataclasses.replace(params, **{name: value})), None
    except DomainError as err:
        return None, str(err)


class TestSweepSpec:
    def test_validation(self):
        states = (QuantumState(0, 1),)
        with pytest.raises(DomainError, match="lo < hi"):
            SweepSpec(ModelKind.A, states, "beta", 2.0, -2.0, 11)
        with pytest.raises(DomainError, match="steps"):
            SweepSpec(ModelKind.A, states, "beta", -2.0, 2.0, 1)
        with pytest.raises(DomainError, match="at least one state"):
            SweepSpec(ModelKind.A, (), "beta", -2.0, 2.0, 11)
        with pytest.raises(DomainError, match="cannot sweep"):
            SweepSpec(ModelKind.A, states, "eta", -2.0, 2.0, 11)
        with pytest.raises(DomainError, match="bound lo must be finite"):
            SweepSpec(ModelKind.A, states, "beta", -math.inf, 0.0, 3)
        with pytest.raises(DomainError, match="bound hi must be finite"):
            SweepSpec(ModelKind.A, states, "beta", 0.0, math.inf, 3)
        with pytest.raises(DomainError, match="hi - lo must be finite"):
            SweepSpec(ModelKind.A, states, "beta", -1e308, 1e308, 3)
        for steps in (2.5, True):
            with pytest.raises(DomainError, match=rf"steps must be an integer >= 2, got {steps}"):
                SweepSpec(ModelKind.A, states, "beta", -2.0, 2.0, steps)
        assert len(SweepSpec(ModelKind.A, states, "beta", -2.0, 2.0, np.int64(3)).values) == 3

    def test_grid_size_is_checked_before_anything_is_allocated(self):
        # 10^12 points would not fit in memory: the spec refuses them itself
        one, two = (QuantumState(0, 1),), (QuantumState(0, 1), QuantumState(1, 0))
        for steps in (10**12, np.int64(10**12)):
            with pytest.raises(DomainError, match="steps must be at most 1000000 points, got 1000000000000"):
                SweepSpec(ModelKind.A, one, "mu", 0.5, 1.0, steps)
        with pytest.raises(DomainError, match="steps x 2 states must be at most 1000000 points, got 500001"):
            SweepSpec(ModelKind.A, two, "mu", 0.5, 1.0, 500_001)
        assert SweepSpec(ModelKind.A, two, "mu", 0.5, 1.0, 500_000).steps == 500_000

    def test_repeated_state(self):
        states = (QuantumState(0, 1), QuantumState(1, 0), QuantumState(0, 1))
        with pytest.raises(DomainError, match=r"state \(0, 1\) is given more than once"):
            SweepSpec(ModelKind.A, states, "beta", -1.0, 1.0, 3)

    def test_delta_only_matters_for_the_screened_model(self):
        states = (QuantumState(0, 1),)
        with pytest.raises(DomainError, match="do not depend"):
            SweepSpec(ModelKind.A, states, "delta", 0.01, 0.5, 11)
        spec = SweepSpec(ModelKind.C, states, "delta", 0.01, 0.5, 11)
        assert spec.values[0] == 0.01

    def test_grid(self):
        spec = SweepSpec(ModelKind.A, (QuantumState(0, 0),), "beta", -1.0, 1.0, 5)
        np.testing.assert_allclose(spec.values, [-1.0, -0.5, 0.0, 0.5, 1.0])


class TestSweep:
    def test_all_valid_model_a(self, unit_params):
        spec = SweepSpec(
            ModelKind.A, (QuantumState(0, 1), QuantumState(1, 0)), "beta", -2.0, 2.0, 41
        )
        rows = sweep(spec, unit_params)
        assert len(rows) == 82
        assert all(r.valid for r in rows)

    def test_rows_match_direct_evaluation(self, unit_params):
        spec = SweepSpec(ModelKind.A, (QuantumState(1, 1),), "b0", 0.5, 2.0, 7)
        for row in sweep(spec, unit_params):
            direct = energy(ModelKind.A, row.state, unit_params.replace(b0=row.value))
            assert row.energy == direct

    def test_deterministic_ordering(self, unit_params):
        # (value, state) lexicographic regardless of the states' input order
        spec = SweepSpec(
            ModelKind.A, (QuantumState(1, 0), QuantumState(0, 1)), "beta", 0.0, 1.0, 3
        )
        rows = sweep(spec, unit_params)
        keys = [(r.value, r.state) for r in rows]
        assert keys == sorted(keys)

    def test_unbound_points_marked_invalid(self):
        # model B at beta = -25 pushes beta_acute negative over part of the
        # mu range, so some rows lose their bound state
        params = PhysicalParams(beta=-25.0, kz=1.0)
        spec = SweepSpec(ModelKind.B, (QuantumState(1, 1),), "mu", 0.01, 0.4, 21)
        rows = sweep(spec, params)
        flags = [r.valid for r in rows]
        assert any(flags) and not all(flags)
        assert all(r.energy is None for r in rows if not r.valid)

    def test_rows_are_tuples(self, unit_params):
        # a row unpacks and compares like the plain tuple of its fields
        spec = SweepSpec(ModelKind.A, (QuantumState(0, 0),), "b0", -0.5, 0.5, 3)
        rows = sweep(spec, unit_params)
        name, value, state, e, reason = rows[2]
        assert (name, value, state, reason) == ("b0", 0.5, QuantumState(0, 0), None)
        assert rows[2] == ("b0", 0.5, QuantumState(0, 0), e, None)
        assert rows[2].valid and e == energy(ModelKind.A, state, unit_params.replace(b0=0.5))
        assert rows[0] == ("b0", -0.5, QuantumState(0, 0), None, "b0 must be >= 0")
        assert not rows[0].valid
        assert SweepRow("beta", 1.0, QuantumState(0, 0), 2.0) == ("beta", 1.0, QuantumState(0, 0), 2.0, None)

    def test_sweeping_into_invalid_parameter_values(self, unit_params):
        # eta stays fixed, but a b0 sweep may cross b0 < 0 which the
        # parameter type itself rejects; those rows must come back invalid
        spec = SweepSpec(ModelKind.A, (QuantumState(0, 0),), "b0", -0.5, 0.5, 11)
        rows = sweep(spec, unit_params)
        assert not rows[0].valid
        assert rows[-1].valid


class TestSweepMatchesSinglePoints:
    """A mirror of the benchmark's sweep check: every row equals
    models.energy at its point bit for bit, and every invalid row carries
    the reason that goes with the error energy raises there."""

    @pytest.mark.parametrize(
        "kind, name",
        [(k, n) for k in ModelKind for n in SWEEPABLE if n != "delta" or k is ModelKind.C],
    )
    def test_rows_equal_energy_and_reasons_match(self, kind, name):
        states = (QuantumState(0, 0), QuantumState(1, -1), QuantumState(2, 3))
        for params, (lo, hi) in SWEEP_CASES[kind]:
            for row in sweep(SweepSpec(kind, states, name, lo, hi, 101), params):
                want, message = _direct(kind, row.state, params, name, row.value)
                assert row.energy == want, (params, row)
                assert row.reason == (message and _reason_of(message)), (message, row)

    @pytest.mark.parametrize("code", [k for k, v in vars(Invalid).items() if k.isupper() and v])
    def test_a_single_point_raises_the_rows_reason_and_its_value(self, code):
        kind, state, params, value = SINGLE_POINT_FAILURES[code]
        name = next(iter(params), "beta")
        with pytest.raises(DomainError) as info:
            energy(kind, QuantumState(*state), PhysicalParams(**params))
        assert str(info.value) == reason_text(getattr(Invalid, code), name) + ", got " + str(value)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_every_reason_of_the_model_shows_up(self, kind):
        expected = {
            ModelKind.A: {"b0 must be >= 0", "no bound spectrum", "level not finite",
                          "need v0 = v1 = v2 = 0"},
            ModelKind.B: {"b0 must be >= 0", "no bound spectrum", "state not bound",
                          "level not finite", "need v0 = v1 = v2 = 0"},
            ModelKind.C: {"b0 must be >= 0", "delta must be >= 0", "radicand r0",
                          "radicand w^2", "level not finite"},
        }[kind]
        seen = set()
        states = (QuantumState(0, 0), QuantumState(1, -1), QuantumState(2, 3))
        for name in SWEEPABLE:
            if name == "delta" and kind is not ModelKind.C:
                continue
            for params, (lo, hi) in SWEEP_CASES[kind]:
                rows = sweep(SweepSpec(kind, states, name, lo, hi, 101), params)
                seen |= {r.reason for r in rows if r.reason is not None}
        assert all(any(key in reason for reason in seen) for key in expected), seen

    def test_sigma_other_than_one_marks_every_row(self):
        spec = SweepSpec(ModelKind.A, (QuantumState(0, 0),), "beta", -1.0, 1.0, 5)
        rows = sweep(spec, PhysicalParams(sigma=2.0))
        assert {(r.energy, r.reason) for r in rows} == {
            (None, "closed-form models require sigma = 1")
        }


# Base parameters and a range per model. A drawn sweep runs from below the
# range's midpoint to above it, so a b0 or delta sweep over a range centred
# on 0 starts below 0, and model B's mu and beta sweeps often cross where a
# state stops being bound.
PROPERTY_CASES = {
    ModelKind.A: (
        (PhysicalParams(), (-3.0, 3.0)),
        (PhysicalParams(kz=0.0, beta=-1.3, alpha_ab=0.2), (-1.0, 1.0)),
    ),
    ModelKind.B: (
        (PhysicalParams(beta=-6.0, kz=1.0), (-3.0, 3.0)),
        (PhysicalParams(beta=-25.0, kz=1.0), (0.01, 0.4)),
        (PhysicalParams(kz=0.0, beta=-2.5, alpha_ab=-0.3), (-1.0, 1.0)),
    ),
    ModelKind.C: (
        (PhysicalParams(mu=0.15, delta=0.1), (-0.5, 0.5)),
        (PhysicalParams(mu=0.4, delta=0.3, v1=6.0, alpha_ab=0.4), (-2.0, 2.0)),
    ),
}
STATES = (QuantumState(0, 0), QuantumState(1, -1), QuantumState(2, 3), QuantumState(0, 1))


@st.composite
def sweeps_over_invalid_regions(draw):
    """(spec, params): a sweep whose lo lies below its case's midpoint and
    whose hi lies above it."""
    kind = draw(st.sampled_from(list(ModelKind)))
    name = draw(st.sampled_from([n for n in SWEEPABLE if n != "delta" or kind is ModelKind.C]))
    params, (a, b) = draw(st.sampled_from(PROPERTY_CASES[kind]))
    mid = 0.5 * a + 0.5 * b
    lo = draw(st.floats(a, mid, exclude_max=True))
    hi = draw(st.floats(mid, b, exclude_min=True))
    states = draw(st.lists(st.sampled_from(STATES), min_size=1, max_size=3, unique=True))
    steps = draw(st.integers(2, 60))
    return SweepSpec(kind, tuple(states), name, lo, hi, steps), params


def _reference(kind, state, params, name, value):
    """(E, None) from models.energy at the point, or (None, the reason that
    goes with the error it raises)."""
    try:
        return energy(kind, state, params.replace(**{name: value})), None
    except DomainError as err:
        return None, _reason_of(str(err))


class TestSweepRowsEqualSinglePoints:
    """Every row, built in one pass over the whole grid, is the row a single
    point gives: the same float bit for bit, or None and the same reason."""

    @given(sweeps_over_invalid_regions())
    @example((SweepSpec(ModelKind.B, (QuantumState(0, 0),), "mu", 0.01, 0.4, 21),
              PhysicalParams(beta=-25.0, kz=1.0)))
    @example((SweepSpec(ModelKind.B, (QuantumState(0, 0), QuantumState(2, 3)), "beta", -3.0, 0.0, 31),
              PhysicalParams(beta=-6.0, kz=1.0)))
    @example((SweepSpec(ModelKind.C, (QuantumState(1, -1),), "delta", -0.5, 0.5, 11),
              PhysicalParams(mu=0.15, delta=0.1)))
    @example((SweepSpec(ModelKind.A, (QuantumState(0, 1),), "b0", -3.0, 3.0, 7), PhysicalParams()))
    def test_rows_equal_energy_at_each_point(self, case):
        spec, params = case
        rows = sweep(spec, params)
        grid = itertools.product(spec.values.tolist(), sorted(spec.states))
        assert [(r.param_name, r.value, r.state) for r in rows] == [
            (spec.param_name, value, state) for value, state in grid
        ]
        for row in rows:
            assert type(row) is SweepRow
            want, reason = _reference(spec.kind, row.state, params, spec.param_name, row.value)
            if reason is None:
                assert type(row.energy) is float and row.energy.hex() == want.hex(), row
                assert row.reason is None, row
            else:
                assert row.energy is None and row.reason == reason, row


def _counted(fn, *args):
    """(fn(*args), the Python-level calls it made)."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call"

    saved, enabled = sys.getprofile(), gc.isenabled()
    gc.disable()  # a collection could run Python finalizers mid-call
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(saved)
        if enabled:
            gc.enable()
    return result, count


class TestSweepCallCount:
    """Neither a sweep nor reading all its rows makes a Python-level call per
    row: each makes as many calls at 4001 steps as at 41."""

    @pytest.mark.parametrize(
        "kind, params, name, lo, hi",
        [
            (ModelKind.A, PhysicalParams(), "b0", -1.0, 1.0),
            (ModelKind.B, PhysicalParams(beta=-25.0, kz=1.0), "mu", 0.01, 0.4),
            (ModelKind.C, PhysicalParams(mu=0.15, delta=0.1), "delta", -0.5, 0.5),
        ],
        ids=["A", "B", "C"],
    )
    def test_calls_do_not_grow_with_the_grid(self, kind, params, name, lo, hi):
        states = (QuantumState(0, 1), QuantumState(2, -1))

        def calls(steps):
            result, in_sweep = _counted(sweep, SweepSpec(kind, states, name, lo, hi, steps), params)
            rows, in_rows = _counted(list, result)
            assert len(rows) == 2 * steps
            assert {r.energy is None for r in rows} == {True, False}
            return in_sweep, in_rows

        calls(41)  # warm any first-call caches
        assert calls(41) == calls(4001)

    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_one_level_axis_call_per_sweep(self, monkeypatch, count):
        calls = []
        level_axis = pdmag.sweeps.level_axis
        monkeypatch.setattr(
            pdmag.sweeps, "level_axis", lambda *a: calls.append(a) or level_axis(*a)
        )
        states = (QuantumState(0, 1), QuantumState(2, -1), QuantumState(1, 0),
                  QuantumState(0, -3), QuantumState(4, 2))[:count]
        rows = sweep(SweepSpec(ModelKind.A, states, "beta", -2.0, 2.0, 41), PhysicalParams())
        assert len(calls) == 1 and len(calls[0][1]) == count
        assert len(rows) == 41 * count


class TestSweepArrays:
    """A sweep keeps level_axis's arrays, and its rows are a view of them."""

    CASES = [
        (SweepSpec(ModelKind.B, (QuantumState(1, 1), QuantumState(0, 0)), "mu", 0.01, 0.4, 21),
         PhysicalParams(beta=-25.0, kz=1.0)),
        (SweepSpec(ModelKind.A, (QuantumState(0, 1), QuantumState(2, -1), QuantumState(0, 0)),
                   "b0", -1.0, 1.0, 9), PhysicalParams()),
        (SweepSpec(ModelKind.C, (QuantumState(1, -1),), "delta", -0.5, 0.5, 11),
         PhysicalParams(mu=0.15, delta=0.1)),
    ]

    @pytest.mark.parametrize("spec, params", CASES, ids=["B", "A", "C"])
    def test_indexing_builds_the_rows_that_iteration_does(self, spec, params):
        s = sweep(spec, params)
        rows = list(s)
        assert len(s) == len(rows) == spec.steps * len(spec.states)
        assert [s[i] for i in range(len(s))] == rows
        assert [s[i] for i in range(-len(s), 0)] == rows
        assert all(type(s[i]) is SweepRow for i in (0, -1))
        assert s[-1] == rows[-1] and s[np.int64(1)] == rows[1]
        assert s[:-1] == rows[:-1] and s[3:1:-1] == rows[3:1:-1] and s[::5] == rows[::5]
        assert type(s[:2]) is list
        for index in (len(s), -len(s) - 1):
            with pytest.raises(IndexError):
                s[index]
        with pytest.raises(TypeError):
            s[1.0]
        assert list(reversed(s)) == rows[::-1] and rows[-1] in s

    @pytest.mark.parametrize("spec, params", CASES, ids=["B", "A", "C"])
    def test_energies_are_nan_exactly_where_a_code_is_set(self, spec, params):
        s = sweep(spec, params)
        assert s.energies.shape == s.codes.shape == (len(spec.states), spec.steps)
        assert np.array_equal(np.isnan(s.energies), s.codes != Invalid.NONE)
        assert 0 < np.count_nonzero(s.codes) < s.codes.size

    @pytest.mark.parametrize("spec, params", CASES, ids=["B", "A", "C"])
    def test_the_arrays_are_level_axis(self, spec, params):
        s = sweep(spec, params)
        assert (s.param_name, s.states) == (spec.param_name, tuple(sorted(spec.states)))
        assert s.values.tobytes() == spec.values.tobytes()
        energies, codes = level_axis(spec.kind, s.states, params, spec.param_name, spec.values)
        assert s.energies.tobytes() == energies.tobytes()
        assert s.codes.dtype == codes.dtype and np.array_equal(s.codes, codes)
        for row in s:
            i, j = s.states.index(row.state), s.values.tolist().index(row.value)
            code = codes.item(i, j)
            assert row.reason == reason_text(code, spec.param_name)
            assert row.energy == (None if code else energies.item(i, j))

    def test_the_repeated_state_check_is_one_pass(self):
        # a check that compares each state with all the earlier ones makes
        # n^2 / 2 QuantumState.__eq__ calls; one set pass makes O(n) calls
        def calls(n):
            states = tuple(QuantumState(k // 10, k % 10) for k in range(n))
            spec, count = _counted(SweepSpec, ModelKind.A, states, "beta", 0.0, 1.0, 2)
            assert spec.states == states
            return count

        calls(10)  # warm any first-call caches
        assert calls(2000) - calls(1000) <= 4 * 1000
        states = tuple(QuantumState(n, m) for n in range(1000) for m in range(100))
        assert len(SweepSpec(ModelKind.A, states, "beta", 0.0, 1.0, 2).states) == 10**5
        with pytest.raises(DomainError, match=r"state \(999, 99\) is given more than once"):
            SweepSpec(ModelKind.A, states + states[-1:] + states[:1], "beta", 0.0, 1.0, 2)


class TestFindCrossings:
    def test_flux_sweep_crossing_location(self, unit_params):
        # the (2,1)/(1,0) pair meets exactly at beta = 1: the level gap
        # 2[sqrt((1-b/2)^2 + 1/16) - sqrt((b/2)^2 + 1/16)] vanishes iff
        # the two square roots see the same argument
        found = find_crossings(
            ModelKind.A, QuantumState(2, 1), QuantumState(1, 0), "beta", (-3.0, 3.0), unit_params
        )
        assert len(found) == 1
        cp = found[0]
        assert isinstance(cp, CrossingPoint)
        assert cp.param_value == pytest.approx(1.0, abs=1e-9)
        assert cp.energy == pytest.approx(4.0 + 2.0 * math.sqrt(0.3125), rel=1e-9)
        assert cp.state_pair == (QuantumState(2, 1), QuantumState(1, 0))
        assert cp.bracket_width <= 1e-9

    def test_reported_crossing_reevaluates_to_degeneracy(self, unit_params):
        for cp in find_crossings(
            ModelKind.A, QuantumState(2, 1), QuantumState(1, 0), "beta", (-3.0, 3.0), unit_params
        ):
            p = unit_params.replace(beta=cp.param_value)
            e1, e2 = (energy(ModelKind.A, s, p) for s in (QuantumState(2, 1), QuantumState(1, 0)))
            gap = e1 - e2
            assert abs(gap) <= 1e-9 * max(1.0, abs(cp.energy))

    def test_screened_model_delta_crossing(self, weak_field_params):
        found = find_crossings(
            ModelKind.C,
            QuantumState(0, 1),
            QuantumState(1, 0),
            "delta",
            (0.01, 0.5),
            weak_field_params,
        )
        assert len(found) >= 1
        for cp in found:
            p = weak_field_params.replace(delta=cp.param_value)
            e1, e2 = (energy(ModelKind.C, s, p) for s in (QuantumState(0, 1), QuantumState(1, 0)))
            gap = e1 - e2
            assert abs(gap) <= 1e-9 * max(1.0, abs(cp.energy))

    def test_same_m_levels_never_cross(self, unit_params):
        # for fixed m the model A spectrum is strictly ordered in n_rho at
        # every parameter value, so no crossing can show up
        found = find_crossings(
            ModelKind.A, QuantumState(0, 1), QuantumState(2, 1), "beta", (-3.0, 3.0), unit_params
        )
        assert found == []

    @pytest.mark.parametrize(
        "param, prange, where",
        [("beta", (-3.0, 3.0), 1.0), ("alpha_ab", (-1.0, 1.5), 0.5)],
    )
    def test_exact_readme_crossings(self, unit_params, param, prange, where):
        # model A (2,1)-(1,0): exact degeneracy at beta = 1 and at alpha_ab = 1/2
        (cp,) = find_crossings(
            ModelKind.A, QuantumState(2, 1), QuantumState(1, 0), param, prange, unit_params
        )
        assert abs(cp.param_value - where) <= 1e-9
        p = unit_params.replace(**{param: cp.param_value})
        e1 = energy(ModelKind.A, QuantumState(2, 1), p)
        e2 = energy(ModelKind.A, QuantumState(1, 0), p)
        assert cp.gap == abs(e1 - e2) <= 1e-9
        assert 0.0 <= cp.bracket_width <= 1e-10

    def test_exact_zero_on_the_scan_grid(self, unit_params):
        # the 2001-point scan of [-2, 4] has beta = 1 on its grid, where the
        # (2,1)-(1,0) gap is exactly 0: reported as is, without bisection
        (cp,) = find_crossings(
            ModelKind.A, QuantumState(2, 1), QuantumState(1, 0), "beta", (-2.0, 4.0), unit_params
        )
        assert (cp.param_value, cp.bracket_width, cp.gap) == (1.0, 0.0, 0.0)

    def test_validation(self, unit_params):
        s = QuantumState(0, 1)
        with pytest.raises(DomainError, match="different states"):
            find_crossings(ModelKind.A, s, s, "beta", (-1.0, 1.0), unit_params)
        with pytest.raises(DomainError, match="lo < hi"):
            find_crossings(ModelKind.A, s, QuantumState(1, 0), "beta", (1.0, -1.0), unit_params)
        with pytest.raises(DomainError, match="cannot sweep"):
            find_crossings(ModelKind.A, s, QuantumState(1, 0), "kz", (-1.0, 1.0), unit_params)
        for prange, bound in (((-math.inf, 3.0), "lo"), ((0.0, math.nan), "hi")):
            with pytest.raises(DomainError, match=f"bound {bound} must be finite"):
                find_crossings(ModelKind.A, s, QuantumState(1, 0), "beta", prange, unit_params)
        with pytest.raises(DomainError, match="hi - lo must be finite"):
            find_crossings(ModelKind.A, s, QuantumState(1, 0), "mu", (-1e308, 1e308), unit_params)

    @pytest.mark.parametrize("entry", ATLAS, ids=lambda e: f"{e[0].value}-{e[3]}")
    def test_atlas_search_makes_one_scan_and_few_energy_calls(self, monkeypatch, entry):
        # the scan is one level_axis call for both states, and each point the
        # refinement tries is one energy call per state; an atlas bracket
        # settles within 4 points (2 to 4 measured), and the A alpha_ab
        # crossing at 0.5 is an exact zero of the scan, evaluated once
        kind, _, _, name, _, _ = entry
        scans, energies = [], []
        level_axis, energy_ = pdmag.sweeps.level_axis, pdmag.sweeps.energy
        monkeypatch.setattr(pdmag.sweeps, "level_axis", lambda *a: scans.append(a) or level_axis(*a))
        monkeypatch.setattr(pdmag.sweeps, "energy", lambda *a: energies.append(a) or energy_(*a))
        assert len(find_crossings(*entry)) == 1
        assert len(scans) == 1
        if (kind, name) == (ModelKind.A, "alpha_ab"):
            assert len(energies) == 2
        else:
            assert 2 * 2 <= len(energies) <= 2 * 4

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: math.exp(20.0 * x) - math.exp(6.0), 0.0, 1.0),
        (lambda x: math.atan(1e6 * (x - 0.123456789)), 0.0, 1.0),
        (lambda x: (x - 0.3) ** 9 + 1e-12 * (x - 0.3), 0.0, 1.0),
    ], ids=["convex", "steep", "flat"])
    def test_the_secant_halves_the_bracket_every_three_points(self, f, lo, hi):
        # functions on which plain regula falsi keeps one end for many steps:
        # the bisection safeguard halves the bracket at least every three
        # points, so the refinement ends within 3 log2(width / 1e-10) points
        points = []

        def at(value):
            points.append(value)
            return f(value), 1.0

        value, width, (gap, _) = pdmag.sweeps._refine(at, lo, hi, (f(lo), 1.0), (f(hi), 1.0))
        assert len(points) <= 3 * math.ceil(math.log2((hi - lo) / 1e-10))
        assert width <= 1e-10 and abs(gap) <= 1e-9 and f(value) == gap
        assert all(lo < p < hi for p in points)

    @pytest.mark.parametrize("entry", ATLAS, ids=lambda e: f"{e[0].value}-{e[3]}")
    def test_atlas_points_meet_the_stopping_rule(self, entry):
        for cp in find_crossings(*entry):
            assert 0.0 <= cp.bracket_width <= 1e-10
            assert cp.gap <= 1e-9 * max(1.0, abs(cp.energy))

    @pytest.mark.parametrize("entry", ATLAS, ids=lambda e: f"{e[0].value}-{e[3]}")
    def test_the_oracle_confirms_each_atlas_crossing(self, entry):
        # at the closed-form crossing p_c the independent oracle's two levels
        # agree within their summed error estimates; model C's closed form
        # solves the Greene-Aldrich equation, so its oracle reads target 'ga'
        kind, s1, s2, name, _, base = entry
        (cp,) = find_crossings(*entry)
        at = base.replace(**{name: cp.param_value})
        target = "ga" if kind is ModelKind.C else "exact"
        one, two = (oracle_energy(kind, s, at, target=target) for s in (s1, s2))
        assert abs(one.energy - two.energy) <= one.error + two.error

    def test_the_atlas_copies_agree(self, monkeypatch):
        # ATLAS, README's table and `pdmag crossings` commands and the
        # benchmark's perfbench/inputs.ATLAS list the same nine entries, and
        # each closed-form crossing lies within the benchmark's tolerance of
        # README's "crossing near"
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        bench = importlib.import_module("inputs").ATLAS
        default = vars(PhysicalParams())
        ours = [(kind.value, (s1.n_rho, s1.m), (s2.n_rho, s2.m), name, prange,
                 {k: v for k, v in vars(base).items() if v != default[k]})
                for kind, s1, s2, name, prange, base in ATLAS]
        table = readme_doc.tables(readme_doc.section("Documented crossing ranges"))[0]
        documented = []
        for row in table:
            n1, m1, n2, m2 = map(int, re.findall(r"-?\d+", row["pair"]))
            lo, hi = map(float, row["range"].strip("[]").split(", "))
            extras = row["extra parameters"]
            extras = {} if extras == "defaults" else dict(
                (key, float(value)) for key, value in (item.split("=") for item in extras.split(", ")))
            documented.append((row["model"].upper(), (n1, m1), (n2, m2), row["parameter"], (lo, hi),
                               extras))
        commands = []
        for argv, _, _ in readme_doc.commands(readme_doc.section("Documented crossing ranges")):
            if argv[0] == "crossings":
                flags = dict(zip(argv[1::2], argv[2::2]))
                s1, s2 = (tuple(map(int, flags.pop(f).split(","))) for f in ("--s1", "--s2"))
                head = (flags.pop("--model").upper(), s1, s2, flags.pop("--param"),
                        (float(flags.pop("--lo")), float(flags.pop("--hi"))))
                commands.append((*head, {{"--alpha": "alpha_ab"}.get(flag, flag[2:]): float(value)
                                         for flag, value in flags.items()}))
        assert [entry[:6] for entry in bench] == ours == documented == commands
        for entry, row, (*_, where, tol) in zip(ATLAS, table, bench):
            near = float(row["crossing near"].split()[0])
            assert near == where
            (cp,) = find_crossings(*entry)
            assert abs(cp.param_value - near) <= tol, (entry[3], cp.param_value)

    def test_the_benchmark_searches_meet_the_stopping_rule(self, monkeypatch):
        # the first 200 crossing searches of the benchmark's seed-1 stream:
        # each search reports one point per sign-change cell or exact zero of
        # its scan, each point's E and gap are energy's at that point, and a
        # bracket takes at most 6 evaluations (one energy call per state each;
        # 6 is the most measured on seeds 1-10), an exact zero one
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        inputs = importlib.import_module("inputs")
        calls = []
        monkeypatch.setattr(pdmag.sweeps, "energy", lambda *a: calls.append(a) or energy(*a))
        for b in range(200):
            task = inputs.crossing_task(1, b)
            kind, name, params = ModelKind.parse(task["kind"]), task["param"], PhysicalParams(**task["params"])
            s1, s2 = QuantumState(*task["s1"]), QuantumState(*task["s2"])
            points = find_crossings(kind, s1, s2, name, task["range"], params)
            grid = np.linspace(*task["range"], pdmag.sweeps._SCAN_POINTS)
            (e1, e2), _ = level_axis(kind, (s1, s2), params, name, grid)
            d = e1 - e2
            zeros = np.count_nonzero(d == 0.0)
            cells = np.count_nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0.0)
            assert len(points) == zeros + cells, (b, points)
            assert len(calls) <= 2 * (6 * cells + zeros), (b, len(calls))
            calls.clear()
            for cp in points:
                at = params.replace(**{name: cp.param_value})
                one, two = energy(kind, s1, at), energy(kind, s2, at)
                assert (cp.energy, cp.gap) == (0.5 * one + 0.5 * two, abs(one - two)), (b, cp)
                assert 0.0 <= cp.bracket_width <= 1e-10, (b, cp)
                assert cp.gap <= 1e-9 * max(1.0, abs(cp.energy)), (b, cp)

    def test_the_model_c_crossing_belongs_to_the_surrogate(self):
        # the atlas's C (0, 1)-(1, 0) crossing near delta = 0.4373 is one of
        # the Greene-Aldrich 'ga' equation that the closed form solves; with
        # every 1/rho kept (target 'exact') the oracle's E(0, 1) - E(1, 0)
        # stays negative over the whole range, by more than its summed error
        kind, s1, s2, name, (lo, hi), base = next(e for e in ATLAS if e[0] is ModelKind.C)
        for value in np.linspace(lo, hi, 9).tolist():
            at = base.replace(**{name: value})
            one, two = (oracle_energy(kind, s, at, target="exact") for s in (s1, s2))
            gap = one.energy - two.energy
            assert gap < 0 and -gap > one.error + two.error, (value, gap)

    def test_invalid_refinement_point_drops_the_bracket(self, monkeypatch, unit_params):
        # the scan sees a valid bracket; the first point the refinement tries
        # is then reported unbound, so the bracket is dropped without an error
        calls = []

        def unbound(kind, state, params):
            calls.append(params.beta)
            raise BoundStateError("state not bound")

        monkeypatch.setattr(pdmag.sweeps, "energy", unbound)
        args = (ModelKind.A, QuantumState(2, 1), QuantumState(1, 0), "beta", (-3.0, 3.0), unit_params)
        assert find_crossings(*args) == []
        assert len(calls) == 1 and -3.0 < calls[0] < 3.0

    def test_refinement_that_runs_out_of_evaluations_raises(self, monkeypatch, unit_params):
        monkeypatch.setattr(pdmag.sweeps, "_MAX_EVALS", 1)
        with pytest.raises(BracketingError, match="did not converge"):
            find_crossings(
                ModelKind.A, QuantumState(2, 1), QuantumState(1, 0), "beta", (-3.0, 3.0), unit_params
            )

    def test_sweepable_names(self):
        assert SWEEPABLE == ("beta", "b0", "alpha_ab", "mu", "delta")
