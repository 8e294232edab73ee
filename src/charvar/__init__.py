"""Character varieties of surface groups in type-A reductive groups.

Groups here are quotients ((C*)^h x prod_i SL(n_i)) / Z0 by a finite
central subgroup.  The package computes dimensions, the stratification by
representation type, fixed loci of central twists, whether a symplectic
resolution exists, and a Q-factorial terminalization recipe; a numerics
layer checks the exact answers against tangent-space computations on
explicit matrix tuples.
"""

from .classify import (
    GENUS1_CASE,
    GENUS2_CASE,
    NO_RESOLUTION_KIND,
    RESOLUTION_KIND,
    SMOOTH_KIND,
    PropertyFlags,
    Verdict,
    classify_resolution,
    properties_report,
    singular_locus_codim,
)
from .fixed_loci import (
    FixedLocusResult,
    codim_genus1_from_orders,
    codim_highgenus_from_orders,
    fixed_codim_genus1,
    fixed_codim_highgenus,
    fixed_tangent_oracle,
    genus1_orbit_oracle,
    min_nonfree_codim,
    per_factor_orders,
)
from .groups import (
    PRESET_CATALOG,
    Center,
    CentralElement,
    CentralSubgroup,
    Decomposition,
    GroupSpec,
    GroupSpecError,
    SubgroupCapExceeded,
    canonical_decomposition,
    char_variety_dim,
    enumerate_central_subgroups,
    parse_group_spec,
)
from .numerics import (
    CohomologyReport,
    ConvergenceError,
    SurfaceRep,
    centralizer_dim,
    clock_matrix,
    coboundary_matrix,
    cocycle_matrix,
    cohomology_dims,
    fixed_point_tangent_check,
    lie_basis,
    moment_map,
    moment_residual,
    mpa_to_surface,
    newton_refine_rep,
    perturb_rep,
    refine_moment_map_point,
    sample_diagonal_rep,
    sample_moment_start,
    sample_random_rep,
    shift_matrix,
    surface_relator_word,
)
from .strata import (
    StrataTable,
    StratumInfo,
    WeightedPartition,
    enumerate_weighted_partitions,
    singular_codim_factor,
    strata_table,
    stratum_codim,
    stratum_dim_gl,
    stratum_dim_sl,
)
from .terminalize import (
    Leaf,
    QuotientStep,
    TerminalizationPlan,
    plan_terminalization,
    render_plan,
)

__all__ = [
    # classify
    "GENUS1_CASE",
    "GENUS2_CASE",
    "NO_RESOLUTION_KIND",
    "RESOLUTION_KIND",
    "SMOOTH_KIND",
    "PropertyFlags",
    "Verdict",
    "classify_resolution",
    "properties_report",
    "singular_locus_codim",
    # fixed_loci
    "FixedLocusResult",
    "codim_genus1_from_orders",
    "codim_highgenus_from_orders",
    "fixed_codim_genus1",
    "fixed_codim_highgenus",
    "fixed_tangent_oracle",
    "genus1_orbit_oracle",
    "min_nonfree_codim",
    "per_factor_orders",
    # groups
    "PRESET_CATALOG",
    "Center",
    "CentralElement",
    "CentralSubgroup",
    "Decomposition",
    "GroupSpec",
    "GroupSpecError",
    "SubgroupCapExceeded",
    "canonical_decomposition",
    "char_variety_dim",
    "enumerate_central_subgroups",
    "parse_group_spec",
    # numerics
    "CohomologyReport",
    "ConvergenceError",
    "SurfaceRep",
    "centralizer_dim",
    "clock_matrix",
    "coboundary_matrix",
    "cocycle_matrix",
    "cohomology_dims",
    "fixed_point_tangent_check",
    "lie_basis",
    "moment_map",
    "moment_residual",
    "mpa_to_surface",
    "newton_refine_rep",
    "perturb_rep",
    "refine_moment_map_point",
    "sample_diagonal_rep",
    "sample_moment_start",
    "sample_random_rep",
    "shift_matrix",
    "surface_relator_word",
    # strata
    "StrataTable",
    "StratumInfo",
    "WeightedPartition",
    "enumerate_weighted_partitions",
    "singular_codim_factor",
    "strata_table",
    "stratum_codim",
    "stratum_dim_gl",
    "stratum_dim_sl",
    # terminalize
    "Leaf",
    "QuotientStep",
    "TerminalizationPlan",
    "plan_terminalization",
    "render_plan",
]
__version__ = "0.1.0"
