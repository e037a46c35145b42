"""Optimal 1->M phase-covariant quantum cloning: a symmetric-subspace (Dicke)
engine with a dense oracle, exact coefficient theory, and a collinear
parametric-amplifier model."""

from .angular import (
    SignedSqrtRational,
    b_coef,
    cg,
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
    covariance_defect,
    pqcm_scheme_a,
    pqcm_scheme_b,
    run_kernel,
    scheme_kernel,
    uqcm,
)
from .opa import (
    FockVec,
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
    bell_state,
    equatorial_state,
    fidelity,
)
from .symmetry import (
    DickeLabel,
    VanishingProjectionError,
    dicke_coefficients,
    project_and_postselect,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
