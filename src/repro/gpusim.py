"""gpusim — a CPU device simulator for the generated GPU kernels.

The environment has no OpenCL runtime, CUDA toolchain or GPU (DESIGN.md,
substitutions table), so this module stands in for one.  The *verbatim*
kernel text produced by :mod:`repro.backends.gpu_backend` is compiled as
C99 behind the dialect's thin shim (``__kernel``/``__global`` or
``__global__``/``__restrict__`` become no-ops; ``get_global_id`` or
``blockIdx``/``threadIdx``/``blockDim``/``gridDim`` read sweep
variables), and one driver function per kernel sweeps the launch grid
like an in-order command queue / stream would.  Nothing is rewritten, so
the backend equivalence tests exercise the actual OpenCL / CUDA codegen,
not a lookalike.

The host side plays the device runtime's role: it builds the program
(gcc JIT), keeps device buffers zero-copy over the caller's numpy
arrays, and replays the host plan ops in order — buffer copies, kernel
launches, barriers.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Mapping

import numpy as np

from .backends.codegen_c import ctype_for
from .backends.gpu_backend import (
    KERNEL_CALL,
    Barrier,
    CopyBuffer,
    GpuProgram,
    KernelLaunch,
)
from .backends.jit import compile_and_load

__all__ = ["translation_unit", "build_executor"]


def translation_unit(program: GpuProgram, ctype: str) -> str:
    """Shim + verbatim kernels + one launch-grid driver per kernel.

    Driver ABI: ``void drive_<kernel>(TYPE** bufs, const double* params,
    const size_t* gsize, const size_t* block)`` with ``bufs`` in
    ``program.buffer_order``, ``params`` in ``program.param_order`` and
    ``gsize`` / ``block`` the total NDRange and block shape on two axes.
    """
    dialect = program.dialect
    call_args = ", ".join(
        [f"bufs[{i}]" for i in range(len(program.buffer_order))]
        + [f"params[{i}]" for i in range(len(program.param_order))]
    )
    parts = [dialect.shim, program.source]
    for kname in program.kernel_ranges:
        parts.append(
            f"void drive_{kname}({ctype}** bufs, const double* params, "
            "const size_t* gsize, const size_t* block)\n{\n"
            + dialect.driver_body.replace(KERNEL_CALL, f"{kname}({call_args});")
            + "}\n"
        )
    return "\n".join(parts)


def _two_axes(values) -> ctypes.Array:
    """A 1-D launch padded to the driver's two axes."""
    return (ctypes.c_size_t * 2)(*values, *([1] * (2 - len(values))))


def build_executor(
    program: GpuProgram,
    shapes: Mapping[str, tuple[int, ...]],
    dtype,
) -> Callable:
    npdtype = np.dtype(dtype)
    lib = compile_and_load(translation_unit(program, ctype_for(dtype)))

    drivers = {}
    for kname in program.kernel_ranges:
        fn = getattr(lib, f"drive_{kname}")
        fn.argtypes = [
            ctypes.POINTER(ctypes.c_void_p),
            ctypes.POINTER(ctypes.c_double),
            ctypes.POINTER(ctypes.c_size_t),
            ctypes.POINTER(ctypes.c_size_t),
        ]
        fn.restype = None
        drivers[kname] = fn

    grid_names = [b for b in program.buffer_order if b not in program.snap_of]
    snap_names = [b for b in program.buffer_order if b in program.snap_of]
    # Persistent "device-side" scratch for snapshot buffers.
    snap_arrays = {
        s: np.empty(shapes[program.snap_of[s]], dtype=npdtype)
        for s in snap_names
    }
    buf_index = {b: i for i, b in enumerate(program.buffer_order)}
    # (gsize, block) per kernel: the host fixes the launch configuration
    launch = {
        k: (_two_axes(g), _two_axes(program.block[:len(g)]))
        for k, g in program.kernel_ranges.items()
    }

    def impl(arrays: Mapping[str, np.ndarray], params: Mapping[str, float]):
        # the arrays already meet the call contract (repro.core.validate)
        ptrs = (ctypes.c_void_p * len(program.buffer_order))()
        for g in grid_names:
            ptrs[buf_index[g]] = arrays[g].ctypes.data
        for s in snap_names:
            ptrs[buf_index[s]] = snap_arrays[s].ctypes.data
        pvals = (ctypes.c_double * max(len(program.param_order), 1))(
            *[float(params[p]) for p in program.param_order]
        )
        for op in program.ops:
            if isinstance(op, CopyBuffer):
                np.copyto(snap_arrays[op.snap], arrays[op.grid])
            elif isinstance(op, KernelLaunch):
                drivers[op.kernel](ptrs, pvals, *launch[op.kernel])
            elif isinstance(op, Barrier):
                pass  # in-order serial queue: barriers are implicit
            else:  # pragma: no cover - plan is produced by our own codegen
                raise TypeError(f"unknown host op {op!r}")

    return impl
