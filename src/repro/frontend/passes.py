"""Group-level transformation passes and the pass manager.

A pass is a named, pure transformation ``StencilGroup -> StencilGroup``
that must preserve observable semantics for a declared set of live
grids.  The :class:`PassManager` runs a pipeline, records what each
pass did, and (optionally) re-validates after every step — the "make
analysis easy so optimization is safe" discipline of SectionIII.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .. import telemetry
from ..analysis.dag import greedy_phases
from ..analysis.optimize import eliminate_dead_stencils, reorder_for_phases
from ..core.stencil import StencilGroup
from ..core.validate import check_group

__all__ = [
    "GroupPass",
    "PassManager",
    "DeadStencilElimination",
    "Reorder",
    "Validate",
    "default_pipeline",
    "optimize_group",
]


class GroupPass(abc.ABC):
    """One transformation step."""

    name: str = "pass"

    @abc.abstractmethod
    def run(
        self,
        group: StencilGroup,
        shapes: Mapping[str, tuple[int, ...]],
        live_grids: set[str],
    ) -> StencilGroup:
        ...


class DeadStencilElimination(GroupPass):
    """Drop stencils whose writes are never observed (SectionVII)."""

    name = "dead-stencil-elimination"

    def run(self, group, shapes, live_grids):
        return eliminate_dead_stencils(group, shapes, live_grids=live_grids)


class Reorder(GroupPass):
    """Legal reordering that clusters independent stencils so the greedy
    barrier policy emits fewer phases (SectionVII reordering)."""

    name = "reorder"

    def run(self, group, shapes, live_grids):
        return reorder_for_phases(group, shapes)


class Validate(GroupPass):
    """No-op transformation that re-checks static validity."""

    name = "validate"

    def run(self, group, shapes, live_grids):
        check_group(group, shapes)
        return group


@dataclass
class PassRecord:
    """What one pass did, for reports and debugging."""

    name: str
    stencils_before: int
    stencils_after: int
    phases_before: int
    phases_after: int


@dataclass
class PassManager:
    """Run a pipeline of :class:`GroupPass` steps with bookkeeping.

    ``live_grids`` defaults to every grid the group touches (which makes
    dead-stencil elimination a no-op — callers state what they observe
    to unlock it).  Set ``validate_each`` to re-run static validation
    after every pass (cheap, catches buggy custom passes immediately).
    """

    passes: Sequence[GroupPass]
    validate_each: bool = True
    records: list[PassRecord] = field(default_factory=list)

    def run(
        self,
        group: StencilGroup,
        shapes: Mapping[str, Sequence[int]],
        live_grids: set[str] | None = None,
    ) -> StencilGroup:
        shapes = {g: tuple(int(x) for x in s) for g, s in shapes.items()}
        if live_grids is None:
            live_grids = group.grids()
        self.records = []
        check_group(group, shapes)
        # One phase analysis up front; each pass's "after" count is the
        # next pass's "before" count (greedy_phases re-runs the full
        # Diophantine dependence analysis, so halving the calls matters).
        phases_n = len(greedy_phases(group, shapes))
        for p in self.passes:
            before_n = len(group)
            before_ph = phases_n
            with telemetry.tracing.span(
                f"pass:{p.name}", cat="frontend",
                group=group.name, stencils_in=before_n,
            ), telemetry.timed(f"frontend.pass.{p.name}"):
                group = p.run(group, shapes, live_grids)
            if self.validate_each:
                check_group(group, shapes)
            after_n = len(group)
            if after_n < before_n:
                telemetry.count(
                    "frontend.stencils_eliminated", before_n - after_n
                )
                telemetry.event(
                    "frontend.eliminated",
                    pass_name=p.name, eliminated=before_n - after_n,
                )
            phases_n = len(greedy_phases(group, shapes))
            self.records.append(
                PassRecord(
                    p.name,
                    before_n,
                    after_n,
                    before_ph,
                    phases_n,
                )
            )
        return group

    def report(self) -> str:
        lines = []
        for r in self.records:
            lines.append(
                f"{r.name}: {r.stencils_before}->{r.stencils_after} stencils, "
                f"{r.phases_before}->{r.phases_after} phases"
            )
        return "\n".join(lines)


def default_pipeline() -> PassManager:
    """The standard optimization pipeline: eliminate, reorder, validate."""
    return PassManager([DeadStencilElimination(), Reorder(), Validate()])


def optimize_group(
    group: StencilGroup,
    shapes: Mapping[str, Sequence[int]],
    live_grids: set[str] | None = None,
) -> StencilGroup:
    """One-call convenience over :func:`default_pipeline`."""
    return default_pipeline().run(group, shapes, live_grids)
