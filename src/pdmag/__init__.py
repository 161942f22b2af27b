"""Bound states of a charged particle with a position-dependent mass in a
power-law magnetic field, hbar = 2*m0 = 1.

Closed-form spectra and wavefunctions for three solvable mass profiles,
the field machinery that generates the inverse-power magnetic field, an
independent finite-volume oracle, and sweep/crossing utilities, all behind
one CLI (``pdmag``).
"""

from .errors import (
    BoundStateError,
    BracketingError,
    DomainError,
    NormalizationError,
)
from .fields import magnetic_field, shape_function, vector_potential
from .models import (
    ModelKind,
    energy,
    greene_aldrich,
    level_axis,
    reduced_equation,
    wavefunction,
)
from .oracle import OracleLevel, node_count, oracle_energy, residual
from .params import PhysicalParams, QuantumState, m_tilde
from .sweeps import CrossingPoint, SweepSpec, find_crossings, sweep

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BoundStateError",
    "BracketingError",
    "CrossingPoint",
    "DomainError",
    "ModelKind",
    "NormalizationError",
    "OracleLevel",
    "PhysicalParams",
    "QuantumState",
    "SweepSpec",
    "energy",
    "find_crossings",
    "greene_aldrich",
    "level_axis",
    "m_tilde",
    "magnetic_field",
    "node_count",
    "oracle_energy",
    "reduced_equation",
    "residual",
    "shape_function",
    "sweep",
    "vector_potential",
    "wavefunction",
]
