"""Group-level optimizations driven by the dependence analysis.

The paper lists dead-stencil elimination and reordering as applications
of the Diophantine framework (SectionIII, SectionVII); both are
implemented here.  (Fusion legality lives in
:func:`repro.schedule.fusion_chains`.)
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..core.stencil import Stencil, StencilGroup
from .dag import build_dag
from .dependence import group_dependences

__all__ = [
    "eliminate_dead_stencils",
    "reorder_for_phases",
]


def eliminate_dead_stencils(
    group: StencilGroup,
    shapes: Mapping[str, Sequence[int]],
    live_grids: set[str] | None = None,
) -> StencilGroup:
    """Drop stencils whose writes are never observed.

    A stencil is *live* if its output grid is in ``live_grids`` (defaults
    to every grid — pass the set of grids the caller will inspect to
    enable elimination), or if a later live stencil reads cells it wrote
    (RAW edge in the dependence DAG).  Computed by a backward sweep.
    """
    if live_grids is None:
        live_grids = group.grids()
    deps = group_dependences(group, shapes)
    n = len(group)
    live = [group[i].output in live_grids for i in range(n)]
    # Backward propagation: i is live if some live j>i RAW-depends on i.
    for i in range(n - 1, -1, -1):
        if live[i]:
            continue
        for j in range(i + 1, n):
            if live[j] and "RAW" in deps.get((i, j), set()):
                live[i] = True
                break
    kept = [group[i] for i in range(n) if live[i]]
    if not kept:
        raise ValueError("dead-stencil elimination removed every stencil")
    return StencilGroup(kept, name=group.name)


def reorder_for_phases(
    group: StencilGroup, shapes: Mapping[str, Sequence[int]]
) -> StencilGroup:
    """Reorder stencils (legally) to minimize greedy barrier count.

    List scheduling on the dependence DAG: repeatedly emit every ready
    stencil (all predecessors emitted), which clusters independent
    stencils into contiguous runs the greedy barrier policy keeps in one
    phase.  Any topological order preserves semantics because the DAG
    orders every conflicting pair.
    """
    dag = build_dag(group, shapes)
    indeg = {n: dag.in_degree(n) for n in dag.nodes}
    ready = sorted(n for n, d in indeg.items() if d == 0)
    order: list[int] = []
    while ready:
        batch, ready = ready, []
        for n in batch:
            order.append(n)
        for n in batch:
            for _, m in dag.out_edges(n):
                indeg[m] -= 1
                if indeg[m] == 0:
                    ready.append(m)
        ready.sort()
    if len(order) != len(group):  # pragma: no cover - DAG is acyclic by construction
        raise RuntimeError("dependence graph is not acyclic")
    return StencilGroup([group[i] for i in order], name=group.name)
