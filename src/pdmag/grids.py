"""Uniform radial grids and sampled radial functions.

Shared by the closed-form normalization and the quadrature layer so
neither module has to import the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = ["RadialGrid", "RadialFunction"]


@dataclass(frozen=True)
class RadialGrid:
    """n_points uniformly spaced nodes on [rho_min, rho_max], rho_min > 0."""

    rho_min: float
    rho_max: float
    n_points: int

    def __post_init__(self):
        if not self.rho_min > 0:
            raise DomainError(f"rho_min must be > 0, got {self.rho_min}")
        if not self.rho_max > self.rho_min:
            raise DomainError("rho_max must exceed rho_min")
        if self.n_points < 100:
            raise DomainError(f"n_points must be >= 100, got {self.n_points}")

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.rho_min, self.rho_max, self.n_points)


@dataclass
class RadialFunction:
    """Values of a radial function sampled on a RadialGrid."""

    grid: RadialGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_points,):
            raise DomainError(
                f"values must have shape ({self.grid.n_points},), got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise DomainError("values must be finite")
