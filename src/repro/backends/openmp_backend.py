"""C + OpenMP micro-compiler (paper SectionIV-A).

Scheduling follows the paper's design literally:

* each stencil becomes an **OpenMP task**, with larger stencils split
  into sub-tasks by tiling the outermost free loop;
* the dependence analysis groups stencils into **phases** using the
  greedy policy — a barrier (``taskwait``) is inserted only when an
  upcoming stencil consumes what an in-flight one produced;
* **multicolor reordering**, **fusion** and arbitrary-dimension
  **tiling** arrive precomputed on the
  :class:`~repro.schedule.ir.Schedule` steps; the tile size stays an
  explicit option so it can be tuned (:mod:`repro.tuning.search`).

Fused chains are phase-local by construction (see
:func:`repro.schedule.build_schedule`), so a chain can never straddle a
``taskwait`` — the legacy program-order chaining could, hoisting a
store across the barrier it depended on.
"""

from __future__ import annotations

from typing import Mapping

from ..core.stencil import StencilGroup
from ..schedule import Schedule, ScheduleOptions, as_schedule
from .base import register_backend
from .c_backend import CBackend
from .codegen_c import (
    C_PREAMBLE,
    CodegenContext,
    StencilLoops,
    ctype_for,
)

__all__ = ["OpenMPBackend", "generate_openmp_source"]


def generate_openmp_source(
    group: StencilGroup,
    shapes: Mapping[str, tuple[int, ...]],
    dtype,
    *,
    schedule: "Schedule | ScheduleOptions | None" = None,
    func_name: str = "sf_kernel",
) -> str:
    """Render the group as a task-parallel OpenMP translation unit.

    ``schedule`` is a prebuilt :class:`~repro.schedule.ir.Schedule`, a
    :class:`ScheduleOptions` to lower one from, or ``None`` for the
    defaults (untiled: the backend's ``tile=8`` default belongs to
    :class:`OpenMPBackend`, not to the emitter).  Each schedule step
    becomes one task-tiled nest; ``taskwait`` separates the phases.
    """
    norm = {g: tuple(int(x) for x in shapes[g]) for g in shapes}
    sched = as_schedule(schedule, group, norm)
    ctx = CodegenContext(group, norm, ctype_for(dtype))

    lines: list[str] = [C_PREAMBLE, "#include <omp.h>"]
    lines.extend(ctx.open_function(func_name))

    # Pre-plan loops per step so snapshot allocation happens once,
    # outside the parallel region.
    snap_names: dict[int, str] = {}
    step_loops: list[list[StencilLoops]] = []
    for phase in sched.phases:
        row = []
        for step in phase.steps:
            head = group[step.head]
            snap = None
            if step.snapshot:
                snap = f"snap_{step.head}"
                snap_names[step.head] = snap
            row.append(
                StencilLoops(
                    ctx, head, tile=sched.options.tile, parity=step.sweep,
                    snapshot_name=snap,
                    fused_with=[group[i] for i in step.stencils[1:]],
                    unroll=sched.options.unroll,
                )
            )
        step_loops.append(row)
    for si, snap in snap_names.items():
        g = group[si].output
        n = ctx.grid_size(g)
        lines.append(
            f"  {ctx.ctype}* {snap} = ({ctx.ctype}*)malloc("
            f"{n} * sizeof({ctx.ctype}));"
        )

    lines.append("  #pragma omp parallel")
    lines.append("  #pragma omp single")
    lines.append("  {")
    body: list[str] = []
    for phase, row in zip(sched.phases, step_loops):
        body.append(f"/* phase {phase.index} */")
        # Fill snapshots serially before spawning the phase's tasks.
        for step in phase.steps:
            snap = snap_names.get(step.head)
            if snap is not None:
                g = group[step.head].output
                n = ctx.grid_size(g)
                src = ctx.grid_cname[g]
                body.append(
                    f"memcpy({snap}, {src}, {n} * sizeof({ctx.ctype}));"
                )
        for step, loops in zip(phase.steps, row):
            names = ", ".join(group[i].name for i in step.stencils)
            body.append(
                f"/* stencil(s) {list(step.stencils)}: {names} */"
            )
            # Unsafe in-place stencils were given a snapshot above,
            # which restores gather semantics — so every step may be
            # tiled into concurrent tasks.
            body.extend(loops.emit(task_pragma="#pragma omp task"))
        body.append("#pragma omp taskwait")
    tt = sched.time_tile
    if tt is not None:
        # Fused time tile: the single thread in the `single` region
        # re-runs the whole barrier-ordered program k times.
        lines.append(f"    /* fused time tile k={tt.k} */")
        lines.append(
            f"    for (int64_t sf_tt = 0; sf_tt < {tt.k}; ++sf_tt) {{"
        )
        lines.extend("      " + l for l in body)
        lines.append("    }")
    else:
        lines.extend("    " + l for l in body)
    lines.append("  }")
    for snap in snap_names.values():
        lines.append(f"  free({snap});")
    lines.append("}")
    lines.extend(ctx.entry_point(func_name))
    return "\n".join(lines) + "\n"


class OpenMPBackend(CBackend):
    """The ``openmp`` micro-compiler.

    Scheduling options as for ``c``; ``tile`` is the task granularity
    on the outermost loop and defaults to 8 planes.
    """

    name = "openmp"
    _openmp = True
    _KNOBS = {"tile": 8}

    def generate(
        self, group, shapes, dtype, *, schedule=None, func_name="sf_kernel"
    ) -> str:
        return generate_openmp_source(
            group, shapes, dtype, schedule=schedule, func_name=func_name
        )


register_backend(OpenMPBackend(), "omp")
