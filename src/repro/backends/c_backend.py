"""Sequential C micro-compiler: flat form -> C99 -> gcc -> ctypes callable.

The generated function has the narrow FFI signature

    void sf_kernel(TYPE** grids, const double* params, const int64_t* dims);

with grids and params passed in sorted-name order and ``dims`` holding
every grid's extents in the same order.  The source is *size-generic*:
loop bounds, strides and snapshot sizes are read from ``dims``, so one
shared object serves every shape whose schedule renders the same text
(a multigrid operator compiles once for all its levels), and the
source-hash cache of :mod:`repro.backends.jit` does the sharing.
Structure — execution order, fusion chains, snapshot and multicolor
decisions — comes from a
:class:`~repro.schedule.ir.Schedule` built by the shared lowering stage;
this module only emits.  An in-place stencil with a proven loop-carried
hazard reads its output grid through a snapshot (gather semantics),
matching the reference interpreter exactly.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Mapping

import numpy as np

from .. import telemetry
from ..core.stencil import StencilGroup
from ..schedule import Schedule, ScheduleOptions, as_schedule
from .base import Backend, register_backend
from .codegen_c import (
    C_PREAMBLE,
    CodegenContext,
    StencilLoops,
    ctype_for,
    snapshot_decl,
)
from .jit import cache_dir, compile_and_load, source_tag

__all__ = [
    "CBackend",
    "generate_c_source",
    "make_ffi_wrapper",
]


def generate_c_source(
    group: StencilGroup,
    shapes: Mapping[str, tuple[int, ...]],
    dtype,
    *,
    schedule: "Schedule | ScheduleOptions | None" = None,
    func_name: str = "sf_kernel",
) -> str:
    """Render the whole group as one C translation unit.

    ``schedule`` is a prebuilt :class:`~repro.schedule.ir.Schedule`, a
    :class:`ScheduleOptions` to lower one from, or ``None`` for the
    defaults.  Steps are emitted in schedule order: fused chains share
    one loop nest, checkerboard unions become one parity-corrected
    sweep.
    """
    norm = {g: tuple(int(x) for x in shapes[g]) for g in shapes}
    sched = as_schedule(schedule, group, norm)
    ctx = CodegenContext(group, norm, ctype_for(dtype))
    lines: list[str] = [C_PREAMBLE]
    lines.extend(ctx.open_function(func_name))
    body: list[str] = []
    for step in sched.steps():
        chain = list(step.stencils)
        si = chain[0]
        stencil = group[si]
        names = ", ".join(group[i].name for i in chain)
        body.append(f"/* stencil(s) {chain}: {names} */")
        fused = [group[i] for i in chain[1:]]
        if step.snapshot:
            snap = f"snap_{si}"
            loops = StencilLoops(
                ctx, stencil, tile=sched.options.tile, parity=step.sweep,
                snapshot_name=snap, unroll=sched.options.unroll,
            )
            body.append("{")
            for l in snapshot_decl(ctx, stencil, snap):
                body.append("  " + l)
            for l in loops.emit():
                body.append("  " + l)
            body.append(f"  free({snap});")
            body.append("}")
        else:
            loops = StencilLoops(
                ctx, stencil, tile=sched.options.tile, parity=step.sweep,
                snapshot_name=None, fused_with=fused,
                unroll=sched.options.unroll,
            )
            body.extend(loops.emit())
    tt = sched.time_tile
    if tt is not None:
        # Fused time tile: one outer time loop around the whole step
        # sequence — every application runs the full (barrier-ordered)
        # program, so the result is k sequential sweeps by construction.
        lines.append(f"  /* fused time tile k={tt.k} */")
        lines.append(f"  for (int64_t sf_tt = 0; sf_tt < {tt.k}; ++sf_tt) {{")
        lines.extend("    " + l for l in body)
        lines.append("  }")
    else:
        lines.extend("  " + l for l in body)
    lines.append("}")
    lines.extend(ctx.entry_point(func_name))
    return "\n".join(lines) + "\n"


def make_ffi_wrapper(
    lib: ctypes.CDLL,
    func_name: str,
    ctx: CodegenContext,
) -> Callable:
    """Wrap a compiled kernel in the Python calling convention.

    Returns ``impl(arrays, params)`` carrying ``impl.bind(arrays,
    fixed)``: ``bind`` checks the arrays against the compiled signature
    and builds the pointer table once (the ``dims`` table is built once
    per specialization, here), and the ``run(params)`` it returns is
    one FFI call.  Params in ``fixed`` are marshalled at bind; ``run``
    takes the rest.  ``impl`` itself is ``bind(arrays)(params)``.
    """
    fn = getattr(lib, func_name)
    # No argtypes: every argument is a ctypes array built below, which
    # ctypes passes by reference as is; declared POINTER argtypes would
    # re-check each one on every call (~0.2 us an argument).
    fn.restype = None
    grid_order = list(ctx.grid_order)
    param_order = list(ctx.param_order)
    shapes = {g: tuple(ctx.shapes[g]) for g in grid_order}
    want_dtype = np.dtype(np.float64 if ctx.ctype == "double" else np.float32)
    ptrs_t = ctypes.c_void_p * len(grid_order)
    pvals_t = ctypes.c_double * max(len(param_order), 1)
    table = ctx.dims_table()
    dims = (ctypes.c_int64 * len(table))(*table)

    def bind(
        arrays: Mapping[str, np.ndarray],
        fixed: Mapping[str, float] | None = None,
    ) -> Callable:
        fixed = fixed or {}
        mats = [arrays[g] for g in grid_order]
        for g, a in zip(grid_order, mats):
            if a.dtype != want_dtype:
                raise TypeError(
                    f"grid {g!r} has dtype {a.dtype}, kernel wants {want_dtype}"
                )
            if tuple(a.shape) != shapes[g]:
                raise ValueError(
                    f"grid {g!r} has shape {a.shape}, kernel compiled "
                    f"for {shapes[g]}"
                )
            if not a.flags["C_CONTIGUOUS"]:
                raise ValueError(
                    f"grid {g!r} must be C-contiguous for compiled backends"
                )
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                if np.shares_memory(mats[i], mats[j]):
                    raise ValueError(
                        f"grids {grid_order[i]!r} and {grid_order[j]!r} "
                        "alias the same memory; compiled kernels assume "
                        "distinct (restrict) buffers"
                    )
        ptrs = ptrs_t(*[a.ctypes.data for a in mats])

        if fixed.keys() >= set(param_order):
            # every param known now: one buffer, only ever read
            pvals = pvals_t(*[float(fixed[p]) for p in param_order])

            def run(params: Mapping[str, float]) -> None:
                fn(ptrs, pvals, dims)
        else:
            def run(params: Mapping[str, float]) -> None:
                # a fresh params buffer per call keeps a bound kernel
                # re-entrant
                fn(ptrs, pvals_t(*[
                    float(params[p] if p in params else fixed[p])
                    for p in param_order
                ]), dims)

        run.arrays = mats  # the buffers behind `ptrs` live as long as `run`
        return run

    def impl(arrays: Mapping[str, np.ndarray], params: Mapping[str, float]):
        bind(arrays)(params)

    impl.bind = bind
    return impl


class CBackend(Backend):
    """The ``c`` micro-compiler (sequential C99, SectionV-A flag set).

    Scheduling options are the :class:`repro.schedule.ScheduleOptions`
    fields (``block`` has no C lowering and is ignored); plus
    ``cc_timeout`` — a hard wall-clock cap on the compiler subprocess.
    """

    name = "c"
    _openmp = False
    requires_toolchain = True
    _KNOBS: Mapping[str, object] = {}

    def specializer(self, group: StencilGroup, **options):
        cc_timeout = options.pop("cc_timeout", None)
        schedule_at = self.pop_schedule(group, options)

        def specialize(shapes, dtype) -> Callable:
            src = self.generate(
                group, shapes, dtype, schedule=schedule_at(shapes)
            )
            telemetry.count(f"codegen.{self.name}.sources")
            telemetry.count(f"codegen.{self.name}.bytes", len(src))
            lib = compile_and_load(
                src, openmp=self._openmp, timeout=cc_timeout
            )
            ctx = CodegenContext(group, shapes, ctype_for(dtype))
            return make_ffi_wrapper(lib, "sf_kernel", ctx)

        return specialize

    def generate(self, group, shapes, dtype, *, schedule=None) -> str:
        """Source-generation hook (overridden by the OpenMP backend)."""
        return generate_c_source(group, shapes, dtype, schedule=schedule)

    def artifact_info(self, group, shapes, dtype=None, **options):
        """Cache identity of the artifact this group would compile to.

        Renders the source (cheap) but never invokes the compiler:
        ``cache_key`` is the JIT tag, ``source_path``/``artifact_path``
        are where :func:`~repro.backends.jit.compile_and_load` keeps
        ``sf_<tag>.c`` / ``sf_<tag>.so``, and ``cached`` says whether
        the shared object is already on disk.
        """
        options.pop("cc_timeout", None)
        shapes = {g: tuple(int(x) for x in s) for g, s in shapes.items()}
        dt = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
        sched = self.pop_schedule(group, options)(shapes)
        src = self.generate(group, shapes, dt, schedule=sched)
        tag = source_tag(src, openmp=self._openmp)
        d = cache_dir()
        so = d / f"sf_{tag}.so"
        return {
            "backend": self.name,
            "cache_key": tag,
            "source_path": str(d / f"sf_{tag}.c"),
            "artifact_path": str(so),
            "cached": so.exists(),
            "source_bytes": len(src),
        }


register_backend(CBackend(), "c99")
