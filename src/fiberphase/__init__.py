"""Geometric phases of photons guided along a noncoplanarly curved fiber.

The package covers the semiclassical transport phase of a circularly
polarized spinor, the occupation-number-dependent second-quantized phases
including the zero-point (vacuum) halves, and the gyrotropic-medium /
finite-chamber mechanisms that suppress one circular mode so the otherwise
cancelling vacuum phase becomes observable.
"""
from .evolution import (
    OrthogonalPassageWarning,
    PhaseDecomposition,
    SpinorTrajectory,
    analytic_noncyclic_phase,
    evolve,
    hamiltonian_coefficients,
    helicity_expectations,
    invariant_residual_series,
    phase_decomposition,
)
from .fock import (
    FockLadder,
    Ordering,
    cyclic_phases,
    mode_weights,
    phase_spectrum,
    quantal_geometric_phase,
    vacuum_phase,
)
from .geometry import (
    FiberPath,
    SphericalAngles,
    helix_path,
    k_dot,
    load_path,
    motion_residual,
    rotation_vectors,
    spherical_angles,
)
from .media import (
    GyrotropicMedium,
    ModeStatus,
    NetVacuumPhase,
    casimir_cutoff,
    effective_wave_vector,
    mode_status,
    net_vacuum_phase,
    refractive_indices_squared,
)
from .spin import (
    CARTESIAN_FROM_ANGULAR,
    HelicityBasis,
    SpinTriple,
    helicity_eigenstates,
    helicity_operator,
    spin1_matrices,
)

__version__ = "0.1.0"
