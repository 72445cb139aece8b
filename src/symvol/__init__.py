"""Symplectic subvolume diagnostics for state transition matrices."""

from .phase import (
    PhaseState,
    structure_matrix,
    omega,
    pair_projection,
    pair_stack,
    p_index,
    q_index,
    symplecticity_residual,
    is_symplectic,
)
from .systems import HamiltonianSystem, builtin_system, vector_field, variational_rhs
from .propagation import (
    IntegrationError,
    IntegratorSettings,
    IntegratorStats,
    Stm,
    Trajectory,
    propagate,
)
from .invariants import (
    subdeterminant,
    SubdetTable,
    subdet_table,
    lagrange_bracket,
    poisson_bracket,
    poincare_cartan_sum,
    poincare_cartan_unsigned,
    volume_2k,
    WirtingerReport,
    wirtinger_check,
    expansion_factor,
    CollapseAngle,
    collapse_beta,
    collapse_angle,
    random_symplectic,
    pair_subsets,
)
from .eigenskeleton import (
    NotSymplecticError,
    Eigenskeleton,
    compute_skeleton,
    PairingReport,
    verify_pairing,
    skeleton_volume_ratio,
)
from .surfaces import (
    CausticError,
    SurfaceParam,
    linear_surface,
    lamina,
    pair_block_surface,
    linear_graph_surface,
    surface_area,
    pullback_density,
    parasymplectic_residual,
    mapped_area_factor,
    shadow_area_factor,
    signed_shadow_integral,
    unsigned_shadow_integral,
    DensityMap,
    density_map,
)

__version__ = "0.1.0"
