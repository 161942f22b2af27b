"""Parameter sweeps of the closed-form levels and level-crossing search.

Both work on a parameter axis: an array of values of one field, evaluated
for all of a grid's states with one ``models.level_axis`` call.

A sweep tabulates E over a parameter grid for a set of labeled states: it
keeps level_axis's (E, reason) arrays as they are, so each entry equals
``models.energy`` at its point bit for bit. Points where a state stops
being bound (or the swept value itself is out of range) are invalid
entries with a reason code, not errors, since validity boundaries are
part of the phenomenology. Its rows are a view built only when read:
iterating makes them from the transposed arrays in one C-level pass, with
no Python call per row. A sweep has at most 10^6 rows, checked before any
grid is allocated.

A crossing is a sign change of E1(p) - E2(p): the difference is scanned
on a fixed grid of the range with one ``level_axis`` call, and then each
bracket is refined on its own by a scalar bracketing secant, one ``energy``
call per state at each point it tries. Tangential degeneracies (touching
without sign change) are outside the detection scope.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import cycle, repeat
from typing import NamedTuple

import numpy as np

from .errors import BracketingError, DomainError
from .models import (SWEEPABLE, Invalid, ModelKind, _check_sweepable, energy, level_axis,
                     reason_text)
from .params import _MAX_POINTS, PhysicalParams, QuantumState

__all__ = ["SWEEPABLE", "SweepSpec", "Sweep", "SweepRow", "CrossingPoint", "sweep",
           "find_crossings"]

# A crossing's final bracket is at most this wide
_WIDTH = 1e-10
# The bracket at least halves every three evaluations (see _refine), so 900
# evaluations shrink it at least as far as 300 bisections
_MAX_EVALS = 900
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
        seen = set()
        for state in self.states:
            if state in seen:
                raise DomainError(f"state ({state.n_rho}, {state.m}) is given more than once")
            seen.add(state)
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


@dataclass(frozen=True, eq=False)
class Sweep(Sequence):
    """A sweep's levels as level_axis gives them, and its rows as a view.

    energies and codes are (states, values) arrays: energies[i, j] is the
    level of states[i] at param_name = values[j], nan wherever codes[i, j],
    an Invalid code, is not 0. As a read-only sequence a Sweep is its
    values x states SweepRows in (value, state) order, built only when
    read: iteration makes them all in one C-level pass, and an index, a
    slice or reversed() reads them from that list.
    """

    param_name: str
    values: np.ndarray
    states: tuple[QuantumState, ...]
    energies: np.ndarray
    codes: np.ndarray

    def __len__(self) -> int:
        return self.codes.size

    def __getitem__(self, index):
        return list(self)[index]

    def __reversed__(self):
        return reversed(list(self))

    def __iter__(self):
        # (value, state) order: the transposed arrays, one row per value.
        # None masks the invalid energies in an object array, the codes index
        # a table of reason texts built once from Invalid, and tuple.__new__
        # makes each row, so there is no Python call per row.
        name, states = self.param_name, self.states
        codes = self.codes.T.ravel()
        energies = self.energies.T.ravel().astype(object)
        energies[codes != Invalid.NONE] = None
        texts = np.array([reason_text(code, name) for code in _CODES], dtype=object)
        rows = zip(repeat(name), np.repeat(self.values, len(states)).tolist(), cycle(states),
                   energies.tolist(), texts[codes].tolist())
        return map(tuple.__new__, repeat(SweepRow), rows)


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


def sweep(spec: SweepSpec, params: PhysicalParams) -> Sweep:
    """Tabulate the closed-form levels over the grid.

    One level_axis call evaluates every state, sorted, at every grid value,
    and the result keeps its arrays: there is no per-row work. Its rows are
    ordered by (value, state) deterministically. Invalid points (no bound
    state there) stay in, with energy None and their reason, rather than
    being dropped, so a plot can show where a level terminates.
    """
    name, values, states = spec.param_name, spec.values, tuple(sorted(spec.states))
    energies, codes = level_axis(spec.kind, states, params, name, values)
    return Sweep(name, values, states, energies, codes)


def _refine(at, a: float, b: float, at_a, at_b):
    """(value, bracket width, (f, E) there) for the sign-change bracket
    [a, b] of f = E1 - E2, given (f, E) at its ends; (f, E) is None where
    at() finds a point invalid, which drops the bracket.

    An Anderson-Bjorck bracketing secant (BIT 13 (1973) 253): b is the
    latest point, and a step that keeps a again scales a's secant weight by
    1 - f(c)/f(b), or by 1/2 if that is not positive. A step after one that
    left the bracket over half as wide as two steps before bisects, so the
    bracket halves at least every three evaluations. A secant point stays
    min(_WIDTH, width)/4 inside, so a settled point's next one lands across
    the crossing (Dekker's step). It stops at an exact zero (width 0), or
    with the end of smaller |f| once the bracket is within _WIDTH and
    |f| <= 1e-9 max(1, |E|) there.
    """
    (fa, ea), (fb, eb) = at_a, at_b
    weight, widths, halve = fa, (b - a, b - a), False
    for _ in range(_MAX_EVALS):
        left, right = min(a, b), max(a, b)
        value, f, e = (b, fb, eb) if abs(fb) <= abs(fa) else (a, fa, ea)
        if right - left <= _WIDTH and abs(f) <= 1e-9 * max(1.0, abs(e)):
            return value, right - left, (f, e)
        c = b - fb * ((b - a) / (fb - weight))
        # nan (an end's f overflowed to inf) fails the test too
        if halve or not left < c < right:
            c = 0.5 * a + 0.5 * b
        else:
            step = 0.25 * min(_WIDTH, right - left)
            c = min(max(c, left + step), right - step)
        point = at(c)
        if point is None or point[0] == 0.0:
            return c, 0.0, point
        if (point[0] < 0.0) == (fb < 0.0):
            m = 1.0 - point[0] / fb
            weight *= m if m > 0.0 else 0.5
        else:
            a, fa, ea, weight = b, fb, eb, fb
        b, (fb, eb) = c, point
        halve = abs(b - a) > 0.5 * widths[0]
        widths = widths[1], abs(b - a)
    raise BracketingError(f"crossing refinement did not converge on [{min(a, b)}, {max(a, b)}]")


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
    for both states. A scan point where it is exactly 0 is a crossing. Each
    bracket whose ends are valid for both states and differ in sign is
    refined by _refine to |delta p| <= 1e-10 with |E1 - E2| <= 1e-9
    max(1, |E|) at the reported end; one with an invalid point is dropped.
    Each point tried, and each exact zero, is one dataclasses.replace and
    one energy call per state (the names perfbench/spans.py times), which
    give its E and gap. An empty result just means no crossing was detected.
    """
    if s1 == s2:
        raise DomainError("s1 and s2 must be different states")
    _check_param_name(param_name, kind)
    lo, hi = float(prange[0]), float(prange[1])
    _check_range("range", lo, hi)

    def at(value: float):
        """(E1 - E2, mean level) at value; None where either level is missing."""
        try:
            p = dataclasses.replace(params, **{param_name: value})
            e1, e2 = energy(kind, s1, p), energy(kind, s2, p)
        except DomainError:
            return None
        # halves first, so the mean of two levels near the largest double stays finite
        return e1 - e2, 0.5 * e1 + 0.5 * e2

    grid = np.linspace(lo, hi, _SCAN_POINTS)
    (e1, e2), _ = level_axis(kind, (s1, s2), params, param_name, grid)
    d, e = e1 - e2, 0.5 * e1 + 0.5 * e2
    # nan wherever either level is missing, so no comparison below holds there
    cells = np.flatnonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0.0).tolist()
    crossings: list[CrossingPoint] = []
    for i in sorted(np.flatnonzero(d == 0.0).tolist() + cells):
        if d[i] == 0.0:
            value, width, point = grid.item(i), 0.0, at(grid.item(i))
        else:
            value, width, point = _refine(at, grid.item(i), grid.item(i + 1),
                                          (d.item(i), e.item(i)), (d.item(i + 1), e.item(i + 1)))
        if point is not None:
            crossings.append(CrossingPoint(value, point[1], (s1, s2), width, abs(point[0])))
    return crossings
