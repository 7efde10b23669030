"""Driven three-level cascade emitter: steady states, two-photon entanglement,
and the mixed-state geometric phase over control-parameter paths."""

from gpdiag.cascade import SystemParams, build_hamiltonian, lindblad_rhs, liouvillian, steady_state
from gpdiag.gp import (
    GeometricPhaseResult,
    PathSpec,
    SpectralTrajectory,
    UndefinedPhaseError,
    gp_derivative,
    mixed_state_gp,
    sample_path,
    track_spectrum,
    two_point_phases,
)
from gpdiag.linops import (
    ContractViolationError,
    DegenerateSteadyStateError,
    EigenSystem,
    NoSteadyStateError,
    hermitian_eig,
    null_space_unit_trace,
)
from gpdiag.photons import atomic_to_photon, concurrence, embed_two_qubit, purity

__version__ = "0.1.0"

__all__ = [
    "ContractViolationError",
    "DegenerateSteadyStateError",
    "EigenSystem",
    "GeometricPhaseResult",
    "NoSteadyStateError",
    "PathSpec",
    "SpectralTrajectory",
    "SystemParams",
    "UndefinedPhaseError",
    "atomic_to_photon",
    "build_hamiltonian",
    "concurrence",
    "embed_two_qubit",
    "gp_derivative",
    "hermitian_eig",
    "lindblad_rhs",
    "liouvillian",
    "mixed_state_gp",
    "null_space_unit_trace",
    "purity",
    "sample_path",
    "steady_state",
    "track_spectrum",
    "two_point_phases",
]
