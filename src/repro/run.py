"""The ``times``-aware execution entry point.

``run(stencil_or_group, arrays, times=k)`` applies the whole program
``k`` times — the operation a smoother loop performs — as **one**
kernel invocation: it compiles ``ScheduleOptions(time_tile=k)``.  Where
the grids pass the measured knee (more than
:data:`~repro.schedule.lower.LAG_KNEE_L2S` per-core L2s) and the plane
lags admit the group, ``c`` runs the ``k`` applications in one pass
over axis-0 planes, each its application lag behind the last, so the
grids are streamed once.  Otherwise the one bound call runs the
``times=1`` kernel ``k`` times.  Either way the result is ``k`` calls
bit for bit, on every group.

``run`` compiles a given (program object, shapes, dtype, backend,
``times``, options) once: the kernel is kept on the program object, so
a loop of ``run`` calls pays a lookup, not a compile.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .backends import bind_kernel
from .core.stencil import Stencil, StencilGroup

__all__ = ["run"]

#: kernels memoised per program object; the oldest goes first
_MEMO_SIZE = 16


def run(
    program: "Stencil | StencilGroup",
    arrays: Mapping[str, np.ndarray],
    params: Mapping[str, float] | None = None,
    *,
    times: int = 1,
    backend: str = "c",
    **options,
):
    """Apply ``program`` to ``arrays`` ``times`` times, in place.

    ``options`` are the scheduling options (``tile``, ``fuse``,
    ``multicolor``, ...).  Returns the number of kernel invocations
    performed: 1, the one call of the ``time_tile=times`` kernel.

    The compiled kernel is kept on the ``program`` object per (shapes,
    dtype, backend, ``times``, options), so calling ``run`` in a loop
    compiles once, and dropping the program drops its kernels.
    """
    times = int(times)
    if times < 1:
        raise ValueError(f"times must be >= 1, got {times!r}")
    params = dict(params or {})
    shapes = {g: np.asarray(a).shape for g, a in arrays.items()}
    dtype = np.asarray(next(iter(arrays.values()))).dtype

    memo = program.__dict__.setdefault("_run_kernels", {})
    key = (
        tuple(sorted(shapes.items())), dtype.str, backend, times,
        tuple(sorted(
            (k, tuple(v) if isinstance(v, list) else v)
            for k, v in options.items()
        )),
    )
    try:
        kernel = memo.get(key)
    except TypeError:  # an unhashable option value: compile afresh
        key = kernel = None
    if kernel is None:
        # times=1 leaves the option out, so it combines with schedule=
        depth = {"time_tile": times} if times > 1 else {}
        kernel = program.compile(
            backend=backend, shapes=shapes, dtype=dtype, **depth, **options
        )
        if key is not None:
            if len(memo) >= _MEMO_SIZE:
                del memo[next(iter(memo))]
            memo[key] = kernel
    bind_kernel(kernel, arrays)(**params)
    return 1
