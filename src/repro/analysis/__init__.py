"""Dependence analysis: Diophantine solvers, footprints, DAG planning."""

from .colors import (
    checkerboard,
    color_parallel_safe,
    domains_disjoint,
    is_partition,
    k_coloring,
    union_self_disjoint,
)
from .dag import ExecutionPlan, build_dag, greedy_phases, plan, wavefront_phases
from .dependence import (
    Hazard,
    cross_stencil_dependence,
    group_dependence_details,
    group_dependences,
    intra_stencil_hazards,
    is_parallel_safe,
)
from .diophantine import (
    BoxedLinearSystem,
    extended_gcd,
    lattice_range_intersect,
    lattice_ranges_intersect_nonempty,
    solve_linear_2var,
    solve_linear_nvar,
)
from .footprint import (
    Access,
    StencilAccesses,
    access_conflict_details,
    access_conflicts,
    stencil_accesses,
)
from .interval import (
    interval_cross_stencil_dependence,
    interval_group_dependences,
    interval_is_parallel_safe,
)
from .optimize import eliminate_dead_stencils, reorder_for_phases

__all__ = [
    "checkerboard",
    "color_parallel_safe",
    "domains_disjoint",
    "is_partition",
    "k_coloring",
    "union_self_disjoint",
    "ExecutionPlan",
    "build_dag",
    "greedy_phases",
    "plan",
    "wavefront_phases",
    "Hazard",
    "cross_stencil_dependence",
    "group_dependence_details",
    "group_dependences",
    "intra_stencil_hazards",
    "is_parallel_safe",
    "BoxedLinearSystem",
    "extended_gcd",
    "lattice_range_intersect",
    "lattice_ranges_intersect_nonempty",
    "solve_linear_2var",
    "solve_linear_nvar",
    "Access",
    "StencilAccesses",
    "access_conflict_details",
    "access_conflicts",
    "stencil_accesses",
    "interval_cross_stencil_dependence",
    "interval_group_dependences",
    "interval_is_parallel_safe",
    "eliminate_dead_stencils",
    "reorder_for_phases",
]
