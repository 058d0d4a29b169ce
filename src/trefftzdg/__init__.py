"""Space-time discontinuous Galerkin solver for 1D Maxwell equations.

Wave-aligned (transport-polynomial) and full-polynomial local spaces on
tensor-product space-time meshes, with upwind-type numerical fluxes,
slab-by-slab marching, exact characteristic references, and error and
energy diagnostics.
"""

__version__ = "0.1.0"

from .errors import (
    AmbiguousTrace,
    ConfigParse,
    DegenerateSegment,
    DimensionMismatch,
    EigensolverFailure,
    EmptyPartition,
    InhomogeneousSlabs,
    InsufficientSamples,
    MismatchedDomain,
    NegativeExtent,
    NonconformingMaterial,
    NonconstantMaterial,
    NonFiniteSolution,
    NonpositiveError,
    PointOutsideElement,
    SingularSlabMatrix,
    TooManyCells,
    TrefftzDGError,
    TrefftzWithSource,
    UnsupportedBC,
    ZeroPoints,
)
from .quadrature import gauss_rule, map_to_segment, tensor_rule
from .mesh import (
    FaceKind,
    MaterialLayout,
    Mesh,
    SpaceTimeDomain,
    build_mesh,
    mesh_from_spacing,
    uniform_mesh,
    union_interface,
)
from .basis import (
    FAMILIES,
    FULL,
    TREFFTZ,
    BasisSpec,
    ElementBasis,
    element_basis,
    embedding_indices,
    full_dim,
    pde_residual,
    space_dim,
    trefftz_dim,
)
from .reference import (
    ZERO,
    CharacteristicProfile,
    Constant,
    GaussianPulse,
    ZeroField,
    best_approximation_error,
)
from .assembly import (
    BC_KINDS,
    BoundaryCondition,
    FluxParams,
    GlobalSystem,
    InitialData,
    SlabSystem,
    apply_bilinear_global,
    assemble_global,
    assemble_slab,
    global_layout,
    load_plan,
)
from .solver import SolutionField, Spectrum, march, spectrum, update_matrix
from .analysis import (
    CSV_HEADER,
    EnergyBudget,
    ErrorReport,
    RateFit,
    dg_error,
    dg_norm,
    discrete_energy,
    embed_solution,
    energy_budget,
    energy_trajectory,
    field_from_coefficients,
    fit_rates,
    global_coefficients,
    l2_relative_error,
    project_to_space,
)
from .config import ExperimentConfig, parse_config_text, validate

__all__ = [name for name in dir() if not name.startswith("_")]
