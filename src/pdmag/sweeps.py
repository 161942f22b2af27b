"""Parameter sweeps of the closed-form levels and level-crossing search.

A sweep tabulates E over a parameter grid for a set of labeled states.
Each state's column is one call of ``models.level_axis``, the array form
of the closed-form kernel, so a row equals ``models.energy`` at its point
bit for bit. Points where a state stops being bound (or the swept value
itself is out of range) are reported as invalid rows with the reason,
not as errors, since validity boundaries are part of the phenomenology.

A crossing is a sign change of E1(p) - E2(p): the difference is scanned
with one ``level_axis`` call per state and each bracket is refined by
scalar bisection through ``energy``. Tangential degeneracies (touching
without sign change) are outside the detection scope.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketingError, DomainError
from .models import SWEEPABLE, ModelKind, energy, level_axis, reason_text
from .params import PhysicalParams, QuantumState

__all__ = ["SWEEPABLE", "SweepSpec", "SweepRow", "CrossingPoint", "sweep", "find_crossings"]


def _check_param_name(param_name: str, kind: ModelKind) -> None:
    if param_name not in SWEEPABLE:
        raise DomainError(
            f"cannot sweep {param_name!r}; choose one of {', '.join(SWEEPABLE)}"
        )
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
        _check_param_name(self.param_name, self.kind)
        _check_range("sweep range", self.lo, self.hi)
        if not isinstance(self.steps, int) or isinstance(self.steps, bool) or self.steps < 2:
            raise DomainError(f"steps must be an integer >= 2, got {self.steps!r}")

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)


@dataclass(frozen=True)
class SweepRow:
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

    bracket_width is the width of the last bisection bracket (0 for an
    exact zero on the scan grid) and gap is |E1 - E2| at param_value;
    None for a point built by hand.
    """

    param_value: float
    energy: float
    state_pair: tuple[QuantumState, QuantumState]
    bracket_width: float
    gap: float | None = None


def _energy_at(kind: ModelKind, state: QuantumState, params: PhysicalParams, param_name: str, value: float):
    """Closed-form level with the named parameter overridden; None if the
    point is not a bound state (or the parameter value itself is out of range)."""
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
    """
    name, values = spec.param_name, spec.values
    columns = []
    for state in sorted(spec.states):
        levels, codes = level_axis(spec.kind, state, params, name, values)
        codes = codes.tolist()
        texts = {code: reason_text(code, name) for code in set(codes)}
        columns.append(
            [(state, None if code else e, texts[code]) for e, code in zip(levels.tolist(), codes)]
        )
    return [
        SweepRow(name, value, *cell)
        for value, cells in zip(values.tolist(), zip(*columns))
        for cell in cells
    ]


def find_crossings(
    kind: ModelKind,
    s1: QuantumState,
    s2: QuantumState,
    param_name: str,
    prange: tuple[float, float],
    params: PhysicalParams,
    scan_steps: int = 2001,
) -> list[CrossingPoint]:
    """All sign-change crossings of E_s1(p) - E_s2(p) on the range.

    The difference is scanned on scan_steps points, one level_axis call
    per state. A scan point where it is exactly 0 is a crossing; each
    bracket whose two ends are valid for both states and differ in sign is
    refined by bisection to |delta p| <= 1e-10 and
    |E1 - E2| <= 1e-9 max(1, |E|). Brackets that run into an invalid
    midpoint are discarded. An empty result just means no crossing was
    detected, not an error.
    """
    if s1 == s2:
        raise DomainError("s1 and s2 must be different states")
    _check_param_name(param_name, kind)
    lo, hi = float(prange[0]), float(prange[1])
    _check_range("range", lo, hi)
    if scan_steps < 2:
        raise DomainError(f"scan_steps must be >= 2, got {scan_steps}")

    def diff(value: float):
        e1 = _energy_at(kind, s1, params, param_name, value)
        if e1 is None:
            return None, None
        e2 = _energy_at(kind, s2, params, param_name, value)
        if e2 is None:
            return None, None
        return e1 - e2, 0.5 * e1 + 0.5 * e2

    grid = np.linspace(lo, hi, scan_steps)
    e1, _ = level_axis(kind, s1, params, param_name, grid)
    e2, _ = level_axis(kind, s2, params, param_name, grid)
    # nan wherever either level is missing, so no comparison below holds there
    d = e1 - e2
    zero = d == 0.0
    change = np.append(np.sign(d[:-1]) * np.sign(d[1:]) < 0.0, False)
    # halves first, so the mean of two levels near the largest double stays finite
    grid, d, mid = grid.tolist(), d.tolist(), (0.5 * e1 + 0.5 * e2).tolist()
    crossings: list[CrossingPoint] = []
    for i in np.flatnonzero(zero | change).tolist():
        if zero[i]:
            point = CrossingPoint(grid[i], mid[i], (s1, s2), bracket_width=0.0, gap=0.0)
        else:
            point = _bisect_crossing(diff, grid[i], grid[i + 1], d[i], s1, s2)
        if point is not None:
            crossings.append(point)
    return crossings


def _bisect_crossing(diff, p_lo, p_hi, d_lo, s1, s2):
    for _ in range(300):
        mid = 0.5 * (p_lo + p_hi)
        d_mid, e_mid = diff(mid)
        if d_mid is None:
            return None
        width = p_hi - p_lo
        if d_mid == 0.0 or (
            width <= 1e-10 and abs(d_mid) <= 1e-9 * max(1.0, abs(e_mid))
        ):
            return CrossingPoint(mid, e_mid, (s1, s2), bracket_width=width, gap=abs(d_mid))
        if (d_mid > 0) == (d_lo > 0):
            p_lo, d_lo = mid, d_mid
        else:
            p_hi = mid
    raise BracketingError(
        f"crossing refinement did not converge on [{p_lo}, {p_hi}]"
    )
