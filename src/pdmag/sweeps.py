"""Parameter sweeps of the closed-form levels and level-crossing search.

Both work on a parameter axis: an array of values of one field, evaluated
for all of a grid's states with one ``models.level_axis`` call.

A sweep tabulates E over a parameter grid for a set of labeled states, so
a row equals ``models.energy`` at its point bit for bit. Points where a
state stops being bound (or the swept value itself is out of range) are
reported as invalid rows with the reason, not as errors, since validity
boundaries are part of the phenomenology. The rows are built from the
transposed level_axis arrays in one C-level pass, with no Python call
per row. A sweep has at most 10^6 rows, checked before any grid is
allocated.

A crossing is a sign change of E1(p) - E2(p): the difference is scanned
on a fixed grid of the range, and then all brackets are refined together,
each step one ``level_axis`` call for both states over the points it puts
into every bracket. Tangential degeneracies (touching without sign change) are
outside the detection scope.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from itertools import cycle, repeat
from typing import NamedTuple

import numpy as np

from .errors import BracketingError, DomainError
from .models import (SWEEPABLE, Invalid, ModelKind, _check_sweepable, energy, level_axis,
                     reason_text)
from .params import _MAX_POINTS, PhysicalParams, QuantumState

__all__ = ["SWEEPABLE", "SweepSpec", "SweepRow", "CrossingPoint", "sweep", "find_crossings"]

# A refinement step puts 15 evenly spaced points into each bracket of width
# w, which shrink it at least 16x, and 64 points within +-w/512 of its
# regula-falsi estimate, which settle a smooth crossing in about two steps:
# safeguarded interpolation, as in Brent, Algorithms for Minimization
# without Derivatives (1973).
_EVEN = np.arange(1, 16) / 16.0
_NEAR = np.linspace(-1.0, 1.0, 64) / 512.0
# 75 steps shrink a bracket at least as far as 300 bisections
_MAX_STEPS = 75
# The points of a crossing search's scan; a narrower range gives a finer scan
_SCAN_POINTS = 2001
# Every Invalid code, NONE (0) first: the rows of a sweep's reason table
_CODES = range(1 + max(v for k, v in vars(Invalid).items() if k.isupper()))


def _check_param_name(param_name: str, kind: ModelKind) -> None:
    _check_sweepable(param_name)
    if param_name == "delta" and kind is not ModelKind.C:
        raise DomainError(f"model {kind.value} energies do not depend on delta")


def _check_range(what: str, lo: float, hi: float) -> None:
    for bound, value in (("lo", lo), ("hi", hi)):
        if not math.isfinite(value):
            raise DomainError(f"{what} bound {bound} must be finite, got {value!r}")
    if not lo < hi:
        raise DomainError(f"{what} must satisfy lo < hi, got ({lo}, {hi})")
    if not math.isfinite(hi - lo):
        raise DomainError(f"{what} width hi - lo must be finite, got ({lo}, {hi})")


@dataclass(frozen=True)
class SweepSpec:
    """A parameter scan: which model, which states, which knob, which grid."""

    kind: ModelKind
    states: tuple[QuantumState, ...]
    param_name: str
    lo: float
    hi: float
    steps: int

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if not self.states:
            raise DomainError("at least one state is required")
        for i, state in enumerate(self.states):
            if state in self.states[:i]:
                raise DomainError(f"state ({state.n_rho}, {state.m}) is given more than once")
        _check_param_name(self.param_name, self.kind)
        _check_range("sweep range", self.lo, self.hi)
        # numpy integers count; bool, an int subclass, does not. The grid
        # size is checked before any grid is allocated.
        steps, states = self.steps, len(self.states)
        if not isinstance(steps, numbers.Integral) or isinstance(steps, bool) or steps < 2:
            raise DomainError(f"steps must be an integer >= 2, got {steps!r}")
        if int(steps) * states > _MAX_POINTS:
            per = f" x {states} states" if states > 1 else ""
            raise DomainError(f"steps{per} must be at most {_MAX_POINTS} points, got {steps}{per}")

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)


class SweepRow(NamedTuple):
    """One (grid point, state) evaluation; energy is None when invalid, and
    reason then says which condition failed."""

    param_name: str
    value: float
    state: QuantumState
    energy: float | None
    reason: str | None = None

    @property
    def valid(self) -> bool:
        return self.energy is not None


@dataclass(frozen=True)
class CrossingPoint:
    """A parameter value where two labeled levels meet.

    bracket_width is the width of the final sign-change bracket around
    param_value (0 for an exact zero of E1 - E2) and gap is |E1 - E2| at
    param_value; None for a point built by hand.
    """

    param_value: float
    energy: float
    state_pair: tuple[QuantumState, QuantumState]
    bracket_width: float
    gap: float | None = None


def _energy_at(kind: ModelKind, state: QuantumState, params: PhysicalParams, param_name: str, value: float):
    """Closed-form level with the named parameter overridden; None if the
    point is not a bound state (or the parameter value itself is out of range).

    The single-point path of find_crossings' reported points, each level
    through energy; perfbench/spans.py times its dataclasses.replace and
    energy calls under each crossing search."""
    try:
        p = dataclasses.replace(params, **{param_name: float(value)})
        return energy(kind, state, p)
    except DomainError:
        return None


def sweep(spec: SweepSpec, params: PhysicalParams) -> list[SweepRow]:
    """Tabulate the closed-form levels over the grid.

    Rows are ordered by (value, state) deterministically. Invalid points
    (no bound state there) appear with energy None and their reason rather
    than being dropped, so a plot can show where a level terminates.

    One level_axis call evaluates every state; the rows come from its
    transposed arrays with no Python call per row: None masks the invalid
    energies in an object array, the codes index a table of reason texts
    built once per sweep from Invalid, and tuple.__new__ makes each row.
    """
    name, values, states = spec.param_name, spec.values, sorted(spec.states)
    levels, codes = level_axis(spec.kind, states, params, name, values)
    # (value, state) order: the transposed arrays, one row per value
    codes = codes.T.ravel()
    energies = levels.T.ravel().astype(object)
    energies[codes != Invalid.NONE] = None
    texts = np.array([reason_text(code, name) for code in _CODES], dtype=object)
    rows = zip(repeat(name), np.repeat(values, len(states)).tolist(), cycle(states),
               energies.tolist(), texts[codes].tolist())
    return list(map(tuple.__new__, repeat(SweepRow), rows))


def find_crossings(
    kind: ModelKind,
    s1: QuantumState,
    s2: QuantumState,
    param_name: str,
    prange: tuple[float, float],
    params: PhysicalParams,
) -> list[CrossingPoint]:
    """All sign-change crossings of E_s1(p) - E_s2(p) on the range.

    The difference is scanned on _SCAN_POINTS points, one level_axis call
    for both states. A scan point where it is exactly 0 is a crossing. The
    brackets whose two ends are valid for both states and differ in sign
    are refined together, a step (one level_axis call) at a time (see
    _EVEN and _NEAR), each to the first sign change or exact zero among
    its points, until |delta p| <= 1e-10 and |E1 - E2| <= 1e-9 max(1, |E|).
    A bracket with an invalid point is discarded. Each crossing's E and gap
    are then energy at the reported point; a point where that raises is
    dropped. An empty result just means no crossing was detected.
    """
    if s1 == s2:
        raise DomainError("s1 and s2 must be different states")
    _check_param_name(param_name, kind)
    lo, hi = float(prange[0]), float(prange[1])
    _check_range("range", lo, hi)

    def gap_axis(values):
        """(E1 - E2, mean level) along values, nan where either is missing."""
        (e1, e2), _ = level_axis(kind, (s1, s2), params, param_name, values)
        # halves first, so the mean of two levels near the largest double stays finite
        return e1 - e2, 0.5 * e1 + 0.5 * e2

    grid = np.linspace(lo, hi, _SCAN_POINTS)
    (e1, e2), _ = level_axis(kind, (s1, s2), params, param_name, grid)
    d = e1 - e2
    # nan wherever either level is missing, so no comparison below holds there
    found = {i: (grid.item(i), 0.0) for i in np.flatnonzero(d == 0.0).tolist()}
    cell = np.flatnonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0.0)
    a, b, da, db = grid[cell], grid[cell + 1], d[cell], d[cell + 1]
    for _ in range(_MAX_STEPS):
        if not cell.size:
            break
        w = (b - a)[:, None]
        # da/(da - db) lies in [0, 1]; it is nan only when an end's E1 - E2
        # overflowed to inf, and fmin sends that to 1: the even points still
        # cover the bracket
        with np.errstate(invalid="ignore"):
            t = np.fmin(da / (da - db), 1.0)[:, None]
        near = np.clip(a[:, None] + w * t + w * _NEAR, a[:, None], b[:, None])
        p = np.sort(np.concatenate([a[:, None], a[:, None] + w * _EVEN, near, b[:, None]], axis=1))
        dp, ep = (x.reshape(p.shape) for x in gap_axis(p.ravel()))
        # each bracket's first sign change or exact zero, left to right
        j = ((np.sign(dp[:, :-1]) * np.sign(dp[:, 1:]) < 0.0) | (dp[:, 1:] == 0.0)).argmax(axis=1)
        row = np.arange(j.size)
        a, b, da, db = p[row, j], p[row, j + 1], dp[row, j], dp[row, j + 1]
        right = np.abs(db) <= np.abs(da)
        at = np.where(right, b, a)
        gap, e = np.abs(np.where(right, db, da)), np.where(right, ep[row, j + 1], ep[row, j])
        width = np.where(db == 0.0, 0.0, b - a)
        # a bracket with an invalid point is dropped
        valid = ~np.isnan(dp).any(axis=1)
        done = valid & (width <= 1e-10) & (gap <= 1e-9 * np.maximum(1.0, np.abs(e)))
        for i, value, size in zip(cell[done].tolist(), at[done].tolist(), width[done].tolist()):
            found[i] = (value, size)
        go = valid & ~done
        cell, a, b, da, db = cell[go], a[go], b[go], da[go], db[go]
    if cell.size:
        raise BracketingError(f"crossing refinement did not converge on [{a[0]}, {b[0]}]")

    crossings: list[CrossingPoint] = []
    for i in sorted(found):
        value, size = found[i]
        e1 = _energy_at(kind, s1, params, param_name, value)
        e2 = _energy_at(kind, s2, params, param_name, value)
        if e1 is not None and e2 is not None:
            point = CrossingPoint(value, 0.5 * e1 + 0.5 * e2, (s1, s2), size, abs(e1 - e2))
            crossings.append(point)
    return crossings
