"""The ``times``-aware execution entry point.

``run(stencil_or_group, arrays, times=k)`` applies the whole program
``k`` times — the operation a smoother loop performs — and picks the
cheapest legal realization:

* when the schedule proves the group time-tileable, the ``k``
  applications are fused into **one** kernel invocation
  (``ScheduleOptions(time_tile=k)``): one FFI round trip instead of
  ``k`` (the DRAM traffic is that of ``k`` sweeps unless the whole
  working set is cache resident);
* when time tiling is refused (snapshot-requiring step, unbounded
  footprint such as periodic wrap-around reads) or the backend cannot
  lower it (the GPU simulators), ``run`` transparently falls back to
  ``k`` separate kernel calls — same bits either way, by construction.

The refusal evidence is never swallowed: pass ``strict=True`` to get
the ``ValueError`` with the ``Evidence("time-tile-refused", ...)``
chain instead of the fallback.

``run`` compiles a given (program object, shapes, dtype, backend,
``times``, options) once: the kernel it chose — fused or fallback — is
kept on the program object, so a loop of ``run`` calls pays a lookup,
not a compile.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .backends import bind_kernel
from .core.stencil import Stencil, StencilGroup

__all__ = ["run"]

#: kernels memoised per program object; the oldest goes first
_MEMO_SIZE = 16


def _compile(
    program: "Stencil | StencilGroup", times: int, strict: bool, options: dict
) -> tuple[Callable, bool]:
    """``(kernel, fused)``: the kernel ``run`` calls and whether one call
    of it is all ``times`` applications."""
    if times > 1:
        try:
            # shapes= makes specialization eager, so a time-tile
            # refusal (ValueError with evidence) or a backend that
            # cannot lower it (NotImplementedError; a user-registered
            # backend with its own options may say TypeError) surfaces
            # here, before any grid is touched.
            return program.compile(time_tile=times, **options), True
        except (ValueError, NotImplementedError, TypeError):
            if strict:
                raise
    return program.compile(**options), False


def run(
    program: "Stencil | StencilGroup",
    arrays: Mapping[str, np.ndarray],
    params: Mapping[str, float] | None = None,
    *,
    times: int = 1,
    backend: str = "c",
    strict: bool = False,
    **options,
):
    """Apply ``program`` to ``arrays`` ``times`` times, in place.

    ``options`` are the scheduling options (``tile``, ``fuse``,
    ``multicolor``, ...).  Returns the number of kernel invocations
    performed (1 when the time tile landed, ``times`` on fallback) so
    callers and tests can observe which path ran.

    The compiled kernel — or, for a refused time tile, the fallback
    kernel — is kept on the ``program`` object per (shapes, dtype,
    backend, ``times``, options), so calling ``run`` in a loop compiles
    once, and dropping the program drops its kernels.  ``strict=True``
    raises the refusal on every call.
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
        tuple(sorted(options.items())),
    )
    try:
        entry = memo.get(key)
    except TypeError:  # an unhashable option value: compile afresh
        key = entry = None
    if entry is None or (strict and times > 1 and not entry[1]):
        entry = _compile(
            program, times, strict,
            dict(backend=backend, shapes=shapes, dtype=dtype, **options),
        )
        if key is not None:
            if len(memo) >= _MEMO_SIZE:
                del memo[next(iter(memo))]
            memo[key] = entry
    kernel, fused = entry
    calls = 1 if fused else times
    bound = bind_kernel(kernel, arrays)
    for _ in range(calls):
        bound(**params)
    return calls
