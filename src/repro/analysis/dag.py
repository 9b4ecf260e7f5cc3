"""Stencil dependence DAGs and barrier placement (paper SectionIV-A).

The OpenMP micro-compiler emits each stencil as a task; a barrier is
needed only when an upcoming stencil consumes (or clobbers) what an
in-flight one produces.  The paper forms these barrier groups *greedily*:
keep appending stencils to the current phase until the next stencil
depends on a member of the phase, then flush.  We implement that exact
policy, plus an ASAP (wavefront) alternative used for ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .. import telemetry
from ..core.stencil import StencilGroup
from ..telemetry import tracing
from .dependence import (
    Hazard,
    group_dependence_details,
    group_dependences,
    intra_stencil_hazards,
)
from .structure import verdict

__all__ = ["ExecutionPlan", "greedy_phases", "wavefront_phases", "plan"]


@dataclass(frozen=True)
class ExecutionPlan:
    """Barrier-separated phases; stencils within a phase may run together.

    ``phases[k]`` holds indices into the originating group, in original
    program order.  ``hazards[i]`` lists the loop-carried conflicts of
    applying stencil ``i`` in parallel over its own domain (intra-stencil
    analysis, empty when safe); the parallel, snapshot and fusion
    verdicts of every schedule built on the plan are read from it, and
    ``parallel_within[i]`` is its boolean view.

    ``dependences`` keeps the raw edge set ``(i, j) -> kinds``;
    ``dependence_grids`` refines each edge to ``{kind: grids}`` so
    :meth:`describe` (and :mod:`repro.explain`) can name the grids whose
    lattice intersections forced every barrier.  ``stencil_names``
    carries the originating stencils' names for readable reports.
    """

    phases: tuple[tuple[int, ...], ...]
    hazards: tuple[tuple[Hazard, ...], ...]
    dependences: Mapping[tuple[int, int], frozenset[str]] = field(default_factory=dict)
    dependence_grids: Mapping[tuple[int, int], Mapping[str, frozenset[str]]] = field(
        default_factory=dict
    )
    stencil_names: tuple[str, ...] = ()

    @property
    def parallel_within(self) -> tuple[bool, ...]:
        return tuple(not h for h in self.hazards)

    @property
    def n_barriers(self) -> int:
        return max(0, len(self.phases) - 1)

    def barrier_edges(
        self, k: int
    ) -> list[tuple[tuple[int, int], dict[str, frozenset[str]]]]:
        """Dependence edges crossing barrier ``k`` (phase ``k`` → ``k+1``).

        These are the orderings the barrier enforces.  Each entry is
        ``((i, j), {kind: grids})``; the grid sets come from
        ``dependence_grids`` and fall back to empty sets when the plan
        was built without detail (hand-constructed plans).
        """
        if not 0 <= k < self.n_barriers:
            raise IndexError(f"barrier {k} out of range (n_barriers={self.n_barriers})")
        before, after = set(self.phases[k]), set(self.phases[k + 1])
        out: list[tuple[tuple[int, int], dict[str, frozenset[str]]]] = []
        for (i, j), kinds in sorted(self.dependences.items()):
            if i in before and j in after:
                detail = self.dependence_grids.get((i, j))
                if detail is None:
                    detail = {kind: frozenset() for kind in sorted(kinds)}
                out.append(((i, j), dict(detail)))
        return out

    def _label(self, i: int) -> str:
        if i < len(self.stencil_names):
            return f"{i}:{self.stencil_names[i]}"
        return str(i)

    def describe(self) -> str:
        """Human-readable plan: phases plus what forced every barrier.

        Each barrier line names the dependence edges crossing it and the
        grids carrying each dependence kind, e.g.
        ``barrier 0: forced by 4:red->9:black RAW on x``.
        """
        lines = []
        for k, ph in enumerate(self.phases):
            members = ", ".join(self._label(i) for i in ph)
            lines.append(f"phase {k}: [{members}]")
            if k >= self.n_barriers:
                continue
            edges = self.barrier_edges(k)
            if not edges:
                lines.append(f"barrier {k}: policy order (no direct dependence)")
                continue
            parts = []
            for (i, j), detail in edges:
                kinds = "; ".join(
                    f"{kind} on {', '.join(sorted(grids)) or '?'}"
                    for kind, grids in sorted(detail.items())
                )
                parts.append(f"{self._label(i)}->{self._label(j)} {kinds}")
            lines.append(f"barrier {k}: forced by " + " | ".join(parts))
        return "\n".join(lines)


def _greedy(n: int, deps: Mapping[tuple[int, int], object]) -> list[list[int]]:
    phases: list[list[int]] = []
    current: list[int] = []
    for j in range(n):
        if any((i, j) in deps for i in current):
            phases.append(current)
            current = []
        current.append(j)
    if current:
        phases.append(current)
    return phases


def _wavefront(n: int, deps: Mapping[tuple[int, int], object]) -> list[list[int]]:
    # every edge (i, j) has i < j, so index order is a topological order:
    # by the time edges leave i, every edge into i has been relaxed
    level = [0] * n
    for i, j in sorted(deps):
        level[j] = max(level[j], level[i] + 1)
    out: list[list[int]] = [[] for _ in range(max(level, default=-1) + 1)]
    for node, lv in enumerate(level):
        out[lv].append(node)
    return out


def greedy_phases(
    group: StencilGroup, shapes: Mapping[str, Sequence[int]]
) -> list[list[int]]:
    """The paper's greedy barrier grouping.

    Maintain the current phase; place a barrier (start a new phase) only
    when the next stencil depends on a stencil already in the phase.
    """
    return _greedy(len(group), group_dependences(group, shapes))


def wavefront_phases(
    group: StencilGroup, shapes: Mapping[str, Sequence[int]]
) -> list[list[int]]:
    """ASAP schedule: phase = longest dependence path length to the node.

    Can expose more concurrency than the greedy in-order policy (a late
    independent stencil may hoist into an early phase) at the cost of
    reordering; only valid because the edge set captures *all*
    orderings.
    """
    return _wavefront(len(group), group_dependences(group, shapes))


_POLICIES = {
    "greedy": _greedy,
    "wavefront": _wavefront,
    "serial": lambda n, deps: [[i] for i in range(n)],
}


def plan(
    group: StencilGroup,
    shapes: Mapping[str, Sequence[int]],
    policy: str = "greedy",
) -> ExecutionPlan:
    """Produce the :class:`ExecutionPlan` a backend schedules from.

    One pairwise pass (:func:`group_dependence_details`) yields the
    edge set, its grid provenance and the phases; one intra-stencil
    pass per stencil yields the hazards.  Everything downstream reads
    them off the plan.  At or above the group's structure threshold
    both passes are the shape family's, taken once
    (:func:`repro.analysis.structure.verdict`); below it, or for a group
    without one, they run at ``shapes``.
    """
    if policy not in _POLICIES:
        raise ValueError(f"unknown scheduling policy {policy!r}")
    keyed = verdict(group, shapes)
    if keyed is not None:
        details, hazards = keyed.details, keyed.hazards
    else:
        telemetry.count("analysis.plans")
        with tracing.span(
            "plan", cat="analysis", group=group.name, policy=policy,
            stencils=len(group),
        ):
            details = group_dependence_details(group, shapes)
            hazards = tuple(
                tuple(intra_stencil_hazards(s, shapes)) for s in group
            )
    deps = {edge: frozenset(kinds) for edge, kinds in details.items()}
    return ExecutionPlan(
        tuple(tuple(p) for p in _POLICIES[policy](len(group), deps)),
        hazards,
        deps,
        details,
        tuple(s.name for s in group),
    )
