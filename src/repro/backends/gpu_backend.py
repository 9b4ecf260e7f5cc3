"""GPU micro-compiler: one C-family emitter, one :class:`Dialect` row per target.

Generates genuine OpenCL-C (paper SectionIV-B) and CUDA-C (SectionVII
future work, implemented) kernel source with the paper's *tall-skinny*
blocking: a two-dimensional NDRange / thread grid covers the two
innermost array dimensions (unit-stride reads stay coalesced /
warp-contiguous) and each work-item "rolls upwards" through the
remaining dimensions in a kernel-internal loop.  Structure comes from
the shared :class:`~repro.schedule.ir.Schedule`: one kernel is emitted
per (step, domain box) — a fused chain's stores share one kernel — and a
step whose domain is a recognized checkerboard becomes a single
parity-corrected kernel (``<prefix><i>_p``) sweeping the dense box.  The
host plan launches a phase's kernels back-to-back on an in-order queue
with a barrier between phases.

The two targets differ only in spelling, so everything target-specific
is data: the :data:`OPENCL` and :data:`CUDA` rows of :class:`Dialect`.

There is no GPU, OpenCL runtime or CUDA toolchain in this environment,
so execution is delegated to :mod:`repro.gpusim`, a CPU device simulator
that compiles the *verbatim kernel text* behind the dialect's C99 shim
and sweeps the launch grid — codegen bugs in the kernel source are
therefore caught by the same equivalence tests that cover the other
backends (see DESIGN.md, substitutions table).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .. import telemetry
from ..core.domains import ResolvedRect
from ..core.stencil import Stencil, StencilGroup
from ..core.validate import iteration_shape
from ..schedule import ParityClass, Schedule, ScheduleOptions, as_schedule
from .base import Backend, register_backend
from .codegen_c import CodegenContext, ctype_for, sanitize

__all__ = [
    "Dialect",
    "OPENCL",
    "CUDA",
    "DEFAULT_BLOCK",
    "KERNEL_CALL",
    "KernelLaunch",
    "CopyBuffer",
    "Barrier",
    "GpuProgram",
    "generate_gpu_program",
    "GpuSimBackend",
]

#: warp-aligned default launch block: 32 threads along the contiguous dim.
DEFAULT_BLOCK = (32, 4)

#: marks where a dialect's ``driver_body`` invokes the kernel
KERNEL_CALL = "SF_KERNEL_CALL;"

_SHIM_INCLUDES = """\
#include <stdint.h>
#include <stddef.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>
"""


@dataclass(frozen=True, eq=False)
class Dialect:
    """Everything target-specific about one C-family GPU language."""

    name: str  #: backend registry name
    aliases: tuple[str, ...]
    header: tuple[str, ...]  #: first lines of the kernel source
    kernel_qualifier: str
    buffer_arg: str  #: one buffer argument; ``{ctype}`` and ``{name}`` slots
    global_index: tuple[str, str]  #: work-item index along launch dims 0, 1
    kernel_prefix: str
    shim: str  #: C99 stand-in for the device language (:mod:`repro.gpusim`)
    driver_body: str  #: body of ``drive_<kernel>``, around :data:`KERNEL_CALL`


OPENCL = Dialect(
    name="opencl-sim",
    aliases=("opencl", "cl"),
    header=(
        "// Auto-generated by the Snowflake OpenCL micro-compiler.",
        "#pragma OPENCL EXTENSION cl_khr_fp64 : enable",
        "",
    ),
    kernel_qualifier="__kernel",
    buffer_arg="__global {ctype}* {name}",
    global_index=("get_global_id(0)", "get_global_id(1)"),
    kernel_prefix="sf_k",
    shim=_SHIM_INCLUDES + """
/* --- OpenCL C shim ------------------------------------------------- */
#define __kernel static
#define __global
#define __local
#define __private
#define __constant const
#define __read_only
#define __write_only

/* the pragma line in kernel source is a no-op under C99 */

static size_t __sf_gid[3];
static size_t get_global_id(int dim) { return __sf_gid[dim]; }
static size_t __sf_gsz[3];
static size_t get_global_size(int dim) { return __sf_gsz[dim]; }
/* ------------------------------------------------------------------- */
""",
    # In-order serial sweep of the NDRange (a real device would run
    # work-items concurrently; our kernels are data-parallel safe by
    # construction, so the serial order is unobservable).  The
    # work-group shape is the runtime's choice in OpenCL: block unused.
    driver_body="""\
  (void)block;
  __sf_gsz[0] = gsize[0]; __sf_gsz[1] = gsize[1]; __sf_gsz[2] = 1;
  __sf_gid[2] = 0;
  for (size_t w1 = 0; w1 < gsize[1]; ++w1) {
    __sf_gid[1] = w1;
    for (size_t w0 = 0; w0 < gsize[0]; ++w0) {
      __sf_gid[0] = w0;
      SF_KERNEL_CALL;
    }
  }
""",
)

CUDA = Dialect(
    name="cuda-sim",
    aliases=("cuda",),
    header=("// Auto-generated by the Snowflake CUDA micro-compiler.", ""),
    kernel_qualifier="__global__",
    buffer_arg="{ctype}* __restrict__ {name}",
    global_index=(
        "(blockIdx.x * blockDim.x + threadIdx.x)",
        "(blockIdx.y * blockDim.y + threadIdx.y)",
    ),
    kernel_prefix="sf_cuda_k",
    shim=_SHIM_INCLUDES + """
/* --- CUDA C shim ---------------------------------------------------- */
#define __global__ static
#define __device__ static
#define __restrict__ restrict
#define __shared__

typedef struct { size_t x, y, z; } sf_dim3;
static sf_dim3 gridDim, blockDim, blockIdx, threadIdx;
/* --------------------------------------------------------------------- */
""",
    # gridDim by ceil-division; blocks and threads swept exactly as the
    # hardware scheduler enumerates them (order is unobservable: kernels
    # are data-parallel by construction).
    driver_body="""\
  blockDim.x = block[0]; blockDim.y = block[1]; blockDim.z = 1;
  gridDim.x = (gsize[0] + block[0] - 1) / block[0];
  gridDim.y = (gsize[1] + block[1] - 1) / block[1];
  gridDim.z = 1;
  for (size_t by = 0; by < gridDim.y; ++by)
  for (size_t bx = 0; bx < gridDim.x; ++bx)
  for (size_t ty = 0; ty < blockDim.y; ++ty)
  for (size_t tx = 0; tx < blockDim.x; ++tx) {
    blockIdx.x = bx; blockIdx.y = by; blockIdx.z = 0;
    threadIdx.x = tx; threadIdx.y = ty; threadIdx.z = 0;
    SF_KERNEL_CALL;
  }
""",
)


@dataclass(frozen=True)
class KernelLaunch:
    """Enqueue one kernel over ``global_size`` work-items (the *total*
    NDRange; the block shape is :attr:`GpuProgram.block`)."""

    kernel: str
    global_size: tuple[int, ...]


@dataclass(frozen=True)
class CopyBuffer:
    """Device-side buffer copy: grid -> snapshot slot (gather semantics)."""

    grid: str
    snap: str


@dataclass(frozen=True)
class Barrier:
    """Barrier between dependence phases (clFinish /
    cudaDeviceSynchronize boundary)."""


@dataclass
class GpuProgram:
    """Kernel source plus the host execution plan.

    ``buffer_order`` is the uniform argument order every kernel takes:
    all group grids (sorted) followed by all snapshot buffers, then each
    scalar param as a ``const double`` argument.
    """

    dialect: Dialect
    source: str
    ops: list[object]
    buffer_order: list[str]
    snap_of: dict[str, str]  # snap buffer name -> grid it shadows
    param_order: list[str]
    kernel_ranges: dict[str, tuple[int, ...]]
    block: tuple[int, int]


def generate_gpu_program(
    group: StencilGroup,
    shapes: Mapping[str, tuple[int, ...]],
    dtype,
    dialect: Dialect,
    *,
    schedule: "Schedule | ScheduleOptions | None" = None,
) -> GpuProgram:
    """Lower ``group`` to ``dialect`` kernel source and its host plan.

    ``schedule`` is a prebuilt :class:`~repro.schedule.ir.Schedule`, a
    :class:`ScheduleOptions` to lower one from, or ``None`` for the
    defaults."""
    telemetry.count(f"codegen.{dialect.name}.renders")
    ctype = ctype_for(dtype)
    norm = {g: tuple(int(x) for x in shapes[g]) for g in shapes}
    sched = as_schedule(schedule, group, norm)
    ctx = CodegenContext(group, norm, ctype, runtime_sizes=False)

    # Snapshot buffers for hazardous in-place stencils (schedule-decided).
    snap_for_stencil = {
        step.head: f"snap_{step.head}" for step in sched.steps() if step.snapshot
    }
    snap_of = {s: group[i].output for i, s in snap_for_stencil.items()}

    buffer_order = list(ctx.grid_order) + sorted(snap_of)
    buf_cname = {g: ctx.grid_cname[g] for g in ctx.grid_order}
    for s in snap_of:
        buf_cname[s] = "b_" + sanitize(s)
    arg_decl = ", ".join(
        [dialect.buffer_arg.format(ctype=ctype, name=buf_cname[b])
         for b in buffer_order]
        + [f"const double {ctx.param_cname[p]}" for p in ctx.param_order]
    )

    src_lines = list(dialect.header)
    kernel_ranges: dict[str, tuple[int, ...]] = {}
    ops: list[object] = []

    def step_kernels(step) -> list[str]:
        """Kernel names of one step, emitting their bodies on first use."""
        members = [group[i] for i in step.stencils]
        head = group[step.head]
        snap = snap_for_stencil.get(step.head)

        def source_name(grid: str) -> str:
            if snap is not None and grid == head.output:
                return buf_cname[snap]
            return buf_cname[grid]

        if step.sweep is not None:
            kernels = [("p", _parity_kernel_body, step.sweep)]
        else:
            rects = head.domain.resolve(iteration_shape(head, norm))
            kernels = [
                (ri, _rect_kernel_body, rect)
                for ri, rect in enumerate(r for r in rects if not r.is_empty())
            ]
        names = []
        for ri, emit, box in kernels:
            kname = f"{dialect.kernel_prefix}{step.head}_{ri}"
            if kname not in kernel_ranges:
                body, gsize = emit(ctx, dialect, members, box, source_name)
                kernel_ranges[kname] = gsize
                src_lines.append(
                    f"{dialect.kernel_qualifier} void {kname}({arg_decl})"
                )
                src_lines.append("{")
                src_lines.extend("    " + l for l in body)
                src_lines.append("}")
                src_lines.append("")
            names.append(kname)
        return names

    # Kernels + host plan, phase by phase.
    for phase in sched.phases:
        for step in phase.steps:
            snap = snap_for_stencil.get(step.head)
            if snap is not None:
                ops.append(CopyBuffer(group[step.head].output, snap))
        for step in phase.steps:
            for kname in step_kernels(step):
                ops.append(KernelLaunch(kname, kernel_ranges[kname]))
        ops.append(Barrier())

    return GpuProgram(
        dialect=dialect,
        source="\n".join(src_lines) + "\n",
        ops=ops,
        buffer_order=buffer_order,
        snap_of=snap_of,
        param_order=list(ctx.param_order),
        kernel_ranges=kernel_ranges,
        block=sched.options.block or DEFAULT_BLOCK,
    )


def _nest(heads: Sequence[str], inner: Sequence[str]) -> list[str]:
    """``inner`` wrapped in the rolled-dimension loops ``heads``."""
    lines: list[str] = []
    indent = ""
    for head in heads:
        lines.append(indent + head + " {")
        indent += "    "
    lines += [indent + s for s in inner]
    for _ in heads:
        indent = indent[:-4]
        lines.append(indent + "}")
    return lines


def _rect_kernel_body(
    ctx: CodegenContext,
    dialect: Dialect,
    stencils: Sequence[Stencil],
    rect: ResolvedRect,
    source_name,
) -> tuple[list[str], tuple[int, ...]]:
    """Tall-skinny work decomposition for one domain box.

    Launch dim 0 -> innermost array dim; launch dim 1 ->
    second-innermost; leading dims rolled.  ``stencils`` carries the
    fused chain (head first) — every member stores in the same sweep.
    """
    nd = rect.ndim
    loopvars = [f"i{d}" for d in range(nd)]
    lines, stores = ctx.stores(stencils, loopvars, source_name)
    launch_dims = [nd - 1] if nd == 1 else [nd - 1, nd - 2]
    for g, d in enumerate(launch_dims):
        lo, st = rect.lows[d], max(rect.strides[d], 1)
        lines.append(f"const long k{g} = (long){dialect.global_index[g]};")
        lines.append(f"if (k{g} >= {rect.counts[d]}) return;")
        lines.append(f"const long {loopvars[d]} = {lo} + {st} * k{g};")
    heads = []
    for d in range(nd - 2):
        lo, st = rect.lows[d], max(rect.strides[d], 1)
        hi = rect.lows[d] + rect.strides[d] * (rect.counts[d] - 1)
        v = loopvars[d]
        heads.append(f"for (long {v} = {lo}; {v} <= {hi}; {v} += {st})")
    lines += _nest(heads, stores)
    return lines, tuple(rect.counts[d] for d in launch_dims)


def _parity_kernel_body(
    ctx: CodegenContext,
    dialect: Dialect,
    stencils: Sequence[Stencil],
    pc: ParityClass,
    source_name,
) -> tuple[list[str], tuple[int, ...]]:
    """Multicolor reordering on the GPU: one kernel sweeps the dense box.

    Launch dim 0 enumerates the stride-2 positions of the innermost
    dim; the actual start is parity-corrected from the other loop
    variables inside the kernel, with a bounds guard for work-items
    whose corrected lane falls past the box edge.  Launch dim 1 covers
    the second-innermost dim densely; leading dims are rolled.
    """
    nd = len(pc.base)
    last = nd - 1
    loopvars = [f"i{d}" for d in range(nd)]
    lines, stores = ctx.stores(stencils, loopvars, source_name)
    n0 = (pc.high[last] - pc.base[last]) // 2 + 1
    lines.append(f"const long k0 = (long){dialect.global_index[0]};")
    lines.append(f"if (k0 >= {n0}) return;")
    gsize = [n0]
    if nd >= 2:
        d1 = nd - 2
        n1 = pc.high[d1] - pc.base[d1] + 1
        lines.append(f"const long k1 = (long){dialect.global_index[1]};")
        lines.append(f"if (k1 >= {n1}) return;")
        lines.append(f"const long {loopvars[d1]} = {pc.base[d1]} + k1;")
        gsize.append(n1)
    heads = [
        f"for (long {loopvars[d]} = {pc.base[d]}; "
        f"{loopvars[d]} <= {pc.high[d]}; ++{loopvars[d]})"
        for d in range(nd - 2)
    ]
    off_sum = " + ".join(
        f"({loopvars[d]} - {pc.base[d]})" for d in range(nd - 1)
    ) or "0"
    inner = [
        f"const long s{last} = {pc.base[last]} + "
        f"((({pc.parity} - ({off_sum})) % 2 + 2) % 2);",
        f"const long {loopvars[last]} = s{last} + 2 * k0;",
        f"if ({loopvars[last]} <= {pc.high[last]}) {{",
        *("    " + s for s in stores),
        "}",
    ]
    lines += _nest(heads, inner)
    return lines, tuple(gsize)


class GpuSimBackend(Backend):
    """One GPU micro-compiler, instantiated per :class:`Dialect`:
    ``opencl-sim`` and ``cuda-sim`` — codegen + CPU device simulator.

    Scheduling options are the :class:`repro.schedule.ScheduleOptions`
    fields: ``multicolor`` is off by default, ``block`` is the 2-D
    thread-block shape on ``cuda-sim`` (default (32, 4); the OpenCL
    runtime picks its own), ``tile``/``unroll`` have no GPU lowering and
    are ignored.
    """

    _KNOBS = {"multicolor": False}

    def __init__(self, dialect: Dialect) -> None:
        self.dialect = dialect
        self.name = dialect.name

    def lower(self, group, shapes, dtype, sched):
        from ..gpusim import build_executor

        program = generate_gpu_program(
            group, shapes, dtype, self.dialect, schedule=sched,
        )
        telemetry.count(f"codegen.{self.name}.sources")
        telemetry.count(f"codegen.{self.name}.bytes", len(program.source))
        return build_executor(program, shapes, dtype)

    def artifact_info(self, group, shapes, dtype=None, **options):
        """Identity of the generated program (built and cached in-process,
        so no on-disk paths — the key is the sha of the kernel text)."""
        dt = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
        program = generate_gpu_program(
            group, shapes, dt, self.dialect,
            schedule=self.pop_schedule(group, options)(shapes),
        )
        return {
            "backend": self.name,
            "cache_key": hashlib.sha256(
                program.source.encode()
            ).hexdigest()[:24],
            "in_process": True,
            "cached": False,
            "source_bytes": len(program.source),
        }


for _dialect in (OPENCL, CUDA):
    register_backend(GpuSimBackend(_dialect), *_dialect.aliases)
