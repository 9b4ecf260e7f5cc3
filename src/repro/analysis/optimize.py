"""Group-level optimizations driven by the dependence analysis.

The paper lists dead-stencil elimination and reordering as applications
of the Diophantine framework (SectionIII, SectionVII); both are
implemented here as plain functions, each traced as one
``cat="frontend"`` span.  (Fusion legality lives in
:func:`repro.schedule.lower.fusion_refusals`.)
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .. import telemetry
from ..core.stencil import StencilGroup
from ..telemetry import tracing
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
    n = len(group)
    with tracing.span(
        "eliminate_dead_stencils", cat="frontend",
        group=group.name, stencils_in=n,
    ):
        deps = group_dependences(group, shapes)
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
    if len(kept) < n:
        telemetry.count("frontend.stencils_eliminated", n - len(kept))
        telemetry.event(
            "frontend.eliminated", group=group.name, eliminated=n - len(kept)
        )
    return StencilGroup(kept, name=group.name)


def reorder_for_phases(
    group: StencilGroup, shapes: Mapping[str, Sequence[int]]
) -> StencilGroup:
    """Reorder stencils (legally) to minimize greedy barrier count.

    List scheduling on the dependence edges: repeatedly emit every ready
    stencil (all predecessors emitted), which clusters independent
    stencils into contiguous runs the greedy barrier policy keeps in one
    phase.  Any topological order preserves semantics because the edges
    order every conflicting pair (and, all pointing forward, admit no
    cycle).
    """
    n = len(group)
    with tracing.span(
        "reorder_for_phases", cat="frontend",
        group=group.name, stencils_in=n,
    ):
        succ: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for i, j in group_dependences(group, shapes):
            succ[i].append(j)
            indeg[j] += 1
        ready = [i for i in range(n) if indeg[i] == 0]
        order: list[int] = []
        while ready:
            order.extend(ready)
            batch, ready = ready, []
            for i in batch:
                for j in succ[i]:
                    indeg[j] -= 1
                    if indeg[j] == 0:
                        ready.append(j)
            ready.sort()
    return StencilGroup([group[i] for i in order], name=group.name)
