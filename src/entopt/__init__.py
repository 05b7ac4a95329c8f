"""Thermal-entanglement maximization for arbitrarily coupled two-qubit systems.

Canonicalizes arbitrary 3x3 couplings to diagonal XYZ form, evaluates exact
and closed-form negativity of the Gibbs state, root-finds the optimizing
opposed-z field and the high/low-temperature phase boundary, and reproduces
the reference asymptotics. Units: k_B = 1, so T = 1/beta.
"""

from .asymptotics import (
    AsymptoteDomainError,
    HighTAsymptote,
    LowTAsymptote,
    high_t_hop_exact,
    high_t_leading,
    lambert_w_minus1,
    low_t_asymptote,
    matrix_element_pp_mm,
)
from .closed_form import ClosedFormParams, closed_form_params, negativity_tilde, pt_spectrum
from .linalg import hermitian_eigen
from .measures import (
    EntanglementReport,
    concurrence,
    entanglement_report,
    min_pt_eigenvalue,
    necessary_condition,
    negativity,
    partial_transpose,
    pi_measure,
)
from .optimizer import (
    EnhancementPoint,
    Hypothesis1Report,
    NumericalFailure,
    OptimizationResult,
    PhasePoint,
    boundary_temperature,
    enhancement_curve,
    optimal_field,
    phase_diagram,
    verify_hypothesis1,
)
from .spin_model import CanonicalCoupling, build_hamiltonian, canonicalize, is_canonical_diagonal
from .thermal import gibbs_state, purity

__all__ = [
    "AsymptoteDomainError",
    "CanonicalCoupling",
    "ClosedFormParams",
    "EnhancementPoint",
    "EntanglementReport",
    "HighTAsymptote",
    "Hypothesis1Report",
    "LowTAsymptote",
    "NumericalFailure",
    "OptimizationResult",
    "PhasePoint",
    "boundary_temperature",
    "build_hamiltonian",
    "canonicalize",
    "closed_form_params",
    "concurrence",
    "enhancement_curve",
    "entanglement_report",
    "gibbs_state",
    "hermitian_eigen",
    "high_t_hop_exact",
    "high_t_leading",
    "is_canonical_diagonal",
    "lambert_w_minus1",
    "low_t_asymptote",
    "matrix_element_pp_mm",
    "min_pt_eigenvalue",
    "necessary_condition",
    "negativity",
    "negativity_tilde",
    "optimal_field",
    "partial_transpose",
    "phase_diagram",
    "pi_measure",
    "pt_spectrum",
    "purity",
    "verify_hypothesis1",
]

__version__ = "0.1.0"
