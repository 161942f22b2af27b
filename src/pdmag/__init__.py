"""Bound states of a charged particle with a position-dependent mass in a
power-law magnetic field, hbar = 2*m0 = 1.

Closed-form spectra and wavefunctions for three solvable mass profiles,
the field machinery that generates the inverse-power magnetic field, the
generic Nikiforov-Uvarov quantization, an independent finite-volume oracle,
and sweep/crossing utilities, all behind one CLI (``pdmag``).
"""

from .errors import (
    BoundStateError,
    BracketingError,
    DomainError,
    NormalizationError,
)
from .fields import magnetic_field, shape_function, vector_potential, verify_curl
from .models import (
    ModelKind,
    effective_potential,
    energy,
    greene_aldrich,
    level_axis,
    model_a_energy,
    model_b_energy,
    model_c_coefficients,
    model_c_energy,
    reduced_equation,
    wavefunction,
)
from .nu import NUCoefficients, nu_quantize
from .oracle import OracleLevel, node_count, oracle_energy, radial_potential, residual
from .params import PhysicalParams, QuantumState, e_tilde, m_tilde
from .sweeps import CrossingPoint, SweepSpec, find_crossings, sweep

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BoundStateError",
    "BracketingError",
    "CrossingPoint",
    "DomainError",
    "ModelKind",
    "NUCoefficients",
    "NormalizationError",
    "OracleLevel",
    "PhysicalParams",
    "QuantumState",
    "SweepSpec",
    "e_tilde",
    "effective_potential",
    "energy",
    "find_crossings",
    "greene_aldrich",
    "level_axis",
    "m_tilde",
    "magnetic_field",
    "model_a_energy",
    "model_b_energy",
    "model_c_coefficients",
    "model_c_energy",
    "node_count",
    "nu_quantize",
    "oracle_energy",
    "radial_potential",
    "reduced_equation",
    "residual",
    "shape_function",
    "sweep",
    "vector_potential",
    "verify_curl",
    "wavefunction",
]
