"""Analysis provenance: *why* the pipeline made each decision.

The dependence analysis and the barrier planner are exact, but their
output (an :class:`~repro.analysis.dag.ExecutionPlan`) records only
*what* was decided.  This module re-runs the cheap analysis queries and
assembles the full chain of custody for one compiled group:

* per stencil — the Diophantine intra-stencil verdict (parallel-safe or
  the list of loop-carried hazards that forbid it), plus the analytic
  kernel cost (flops, compulsory bytes, arithmetic intensity from
  :func:`repro.kernel.kernel_cost`) and the
  :class:`~repro.kernel.optimize.OptReport` of the pass pipeline that
  produced the body every backend emits;
* per barrier — every cross-stencil dependence edge crossing it and the
  grids whose footprint-lattice intersections carry each RAW/WAR/WAW;
* per group — the :class:`~repro.schedule.ir.Schedule` the backend will
  execute (phases, fused chains, color sweeps), each decision tagged
  with the Diophantine evidence that legalizes it;
* per backend — the chosen micro-compiler, its JIT cache key, and the
  on-disk paths of the generated source and shared object
  (:meth:`~repro.backends.base.Backend.artifact_info`).

Nothing here compiles or executes anything: :func:`explain` costs a few
lattice intersections, so it is safe to call on production groups.
Render with :meth:`GroupProvenance.render` or ``python -m repro
explain``; feed dashboards with :meth:`GroupProvenance.to_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .analysis.dag import ExecutionPlan, plan
from .backends.base import get_backend
from .core.stencil import Stencil, StencilGroup
from .kernel import kernel_cost
from .schedule import Schedule
from .telemetry import tracing
from .tuning.search import resident_bytes, time_tile_cost

__all__ = [
    "StencilProvenance",
    "BarrierProvenance",
    "GroupProvenance",
    "explain",
]


@dataclass(frozen=True)
class StencilProvenance:
    """The intra-stencil analysis verdict for one stencil."""

    index: int
    name: str
    output: str
    parallel_safe: bool
    hazards: tuple[str, ...]  # rendered Hazard messages, empty when safe
    #: analytic per-point cost of the optimized kernel body
    #: (:meth:`repro.kernel.cost.KernelCost.to_dict`)
    cost: dict | None = None
    #: what the kernel pass pipeline did
    #: (:meth:`repro.kernel.optimize.OptReport.to_dict`)
    opt_report: dict | None = None

    def verdict(self) -> str:
        if self.parallel_safe:
            return "parallel-safe (no loop-carried lattice intersection)"
        return "serialized: " + "; ".join(self.hazards)

    def kernel_summary(self) -> str | None:
        """One line of cost + optimization evidence, if available."""
        if self.cost is None:
            return None
        bits = (
            f"{self.cost['flops_per_point']} flops/pt, "
            f"{self.cost['bytes_per_point']:g} B/pt, "
            f"AI {self.cost['arithmetic_intensity']:.3f}"
        )
        if self.opt_report is not None:
            r = self.opt_report
            bits += (
                f"; opt: nodes {r['nodes_before']}->{r['nodes_after']}, "
                f"{r['reads_deduped']} reads deduped, "
                f"{r['bindings_hoisted']} hoisted, "
                f"{r['fma_grouped']} fma"
            )
        return bits


@dataclass(frozen=True)
class BarrierProvenance:
    """The dependence edges one barrier enforces.

    ``edges`` holds ``((i, j), {kind: grids})`` in stencil order — the
    exact output of :meth:`ExecutionPlan.barrier_edges`.
    """

    index: int
    edges: tuple


    def grids(self) -> frozenset[str]:
        """Every grid named by a dependence crossing this barrier."""
        out: set[str] = set()
        for _, detail in self.edges:
            for gs in detail.values():
                out |= set(gs)
        return frozenset(out)


@dataclass(frozen=True)
class GroupProvenance:
    """Everything :func:`explain` found out about one group."""

    group: str
    backend: str
    plan: ExecutionPlan
    stencils: tuple[StencilProvenance, ...]
    barriers: tuple[BarrierProvenance, ...]
    artifact: dict | None  # Backend.artifact_info(); None for interpreters
    #: the legality-checked schedule the backend executes; None only for
    #: user-registered backends that manage their own options
    schedule: Schedule | None = None
    #: per-stencil swept-cost prediction (name ->
    #: :meth:`repro.kernel.cost.SweptCost.to_dict`) when the schedule
    #: carries a time tile; None otherwise
    swept: dict | None = None

    def to_dict(self) -> dict:
        """JSON-able view (frozensets become sorted lists)."""
        return {
            "group": self.group,
            "backend": self.backend,
            "schedule": (
                self.schedule.to_dict() if self.schedule is not None else None
            ),
            "phases": [list(p) for p in self.plan.phases],
            "stencils": [
                {
                    "index": s.index,
                    "name": s.name,
                    "output": s.output,
                    "parallel_safe": s.parallel_safe,
                    "hazards": list(s.hazards),
                    "cost": s.cost,
                    "opt_report": s.opt_report,
                }
                for s in self.stencils
            ],
            "barriers": [
                {
                    "index": b.index,
                    "edges": [
                        {
                            "from": i,
                            "to": j,
                            "kinds": {
                                k: sorted(v) for k, v in detail.items()
                            },
                        }
                        for (i, j), detail in b.edges
                    ],
                    "grids": sorted(b.grids()),
                }
                for b in self.barriers
            ],
            "artifact": self.artifact,
            "swept": self.swept,
        }

    def render(self) -> str:
        """Human-readable provenance report."""
        lines = [
            f"group {self.group!r}: {len(self.stencils)} stencil(s), "
            f"{len(self.plan.phases)} phase(s), "
            f"{self.plan.n_barriers} barrier(s), backend {self.backend!r}",
            "",
            "intra-stencil (Diophantine) verdicts:",
        ]
        for s in self.stencils:
            lines.append(f"  [{s.index}] {s.name} -> {s.output}: {s.verdict()}")
        lines.append("")
        lines.append("kernel cost (analytic, per point):")
        for s in self.stencils:
            summary = s.kernel_summary()
            if summary is not None:
                lines.append(f"  [{s.index}] {s.name}: {summary}")
        lines.append("")
        lines.append("execution plan:")
        for l in self.plan.describe().splitlines():
            lines.append("  " + l)
        if self.schedule is not None:
            lines.append("")
            lines.append("schedule:")
            for l in self.schedule.describe().splitlines():
                lines.append("  " + l)
        if self.swept is not None:
            lines.append("")
            lines.append("time-tile traffic prediction (paper-cpu cache):")
            block = "working set"
            if get_backend(self.backend).lags_applications(self.schedule):
                block = f"lag window of {self.schedule.lag_window()} planes"
            for name, sc in self.swept.items():
                fits = "fits" if sc["cache_resident"] else "exceeds"
                lines.append(
                    f"  {name}: {sc['base_bytes_per_point']:g} -> "
                    f"{sc['swept_bytes_per_point']:g} B/pt "
                    f"(x{sc['traffic_reduction']:.2f} reduction at "
                    f"k={sc['k']}; {block} {fits} the cache)"
                )
        if self.artifact is not None:
            lines.append("")
            lines.append("artifact:")
            for k in sorted(self.artifact):
                lines.append(f"  {k}: {self.artifact[k]}")
        return "\n".join(lines)


def explain(
    group: StencilGroup | Stencil,
    shapes: Mapping[str, Sequence[int]],
    *,
    backend: str = "c",
    dtype=np.float64,
    policy: str = "greedy",
    **options,
) -> GroupProvenance:
    """Assemble the analysis provenance of compiling ``group``.

    Pure analysis — the named ``backend`` is only asked for its
    :meth:`~repro.backends.base.Backend.artifact_info` (cache identity),
    never to compile.  ``options`` are the backend compile options and
    participate in the cache key exactly as ``compile`` would use them.
    """
    if isinstance(group, Stencil):
        group = StencilGroup((group,), name=group.name)
    shapes = {g: tuple(int(x) for x in s) for g, s in shapes.items()}
    be = get_backend(backend)
    with tracing.span(
        "explain", cat="analysis", group=group.name, backend=backend
    ):
        sched: Schedule | None = None
        if be._KNOBS is not None:
            # the resolver compile() uses, so this is the Schedule the
            # backend will execute
            probe = dict(options)
            probe.setdefault("schedule", policy)
            sched = be.pop_schedule(group, probe)(shapes)
            exec_plan = sched.plan
        else:
            exec_plan = plan(group, shapes, policy=policy)
        stencils = []
        for i, st in enumerate(group):
            hazards = exec_plan.hazards[i]
            report = st.opt_report()
            stencils.append(
                StencilProvenance(
                    index=i,
                    name=st.name,
                    output=st.output,
                    parallel_safe=not hazards,
                    hazards=tuple(str(h) for h in hazards),
                    cost=kernel_cost(st).to_dict(),
                    opt_report=report.to_dict() if report else None,
                )
            )
        barriers = tuple(
            BarrierProvenance(k, tuple(exec_plan.barrier_edges(k)))
            for k in range(exec_plan.n_barriers)
        )
        swept: dict | None = None
        if sched is not None and sched.options.time_tile > 1:
            k = sched.options.time_tile
            resident = resident_bytes(sched, be)
            swept = {
                st.name: time_tile_cost(
                    st, shapes, k, resident=resident
                ).to_dict()
                for st in group
            }
        artifact = be.artifact_info(group, shapes, dtype, **options)
    return GroupProvenance(
        group=group.name,
        backend=backend,
        plan=exec_plan,
        stencils=stencils,
        barriers=barriers,
        artifact=artifact,
        schedule=sched,
        swept=swept,
    )
