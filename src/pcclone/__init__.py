"""Optimal 1->M phase-covariant quantum cloning: a symmetric-subspace (Dicke)
engine with a dense oracle, exact coefficient theory, and a collinear
parametric-amplifier model."""

from .angular import (
    SignedSqrtRational,
    b_coef,
    central_binomials,
    cg,
    cg_ladder,
    d_coef,
    fidelity_formula,
    gamma,
    gamma_closed_form,
    projection_norm_sq,
)
from .cloner import (
    CloneReport,
    DickeOutput,
    SchemeKernel,
    UqcmOutput,
    covariance_defect,
    dicke_scheme_a,
    dicke_scheme_b,
    pqcm_scheme_a,
    pqcm_scheme_b,
    run_kernel,
    scheme_equivalence_defect,
    scheme_kernel,
    uqcm,
)
from .opa import (
    FockVec,
    build_hamiltonian,
    evolve,
    first_order_output,
    photon_reduced_density,
)
from .statekit import (
    BellKind,
    CapacityError,
    DensityOp,
    Ket,
    PhaseRotation,
    PlaneId,
    apply,
    bell_state,
    equatorial_state,
    fidelity,
    partial_trace,
    phase_rotate,
    tensor,
)
from .symmetry import (
    DickeLabel,
    VanishingProjectionError,
    concatenation_defect,
    dicke_coefficients,
    dicke_state,
    project_and_postselect,
    symmetric_projector,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
