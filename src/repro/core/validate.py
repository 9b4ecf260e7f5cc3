"""Static validation of stencils against shapes, and the call contract.

Catches, before any code generation, the classic stencil bugs: reads or
writes that fall outside a grid and shape-incoherent multi-grid
operators (restriction/interpolation ratios).  All backends funnel
through :func:`check_group`, so error messages are uniform across
micro-compilers.

The **call contract** lives here too, in :func:`check_arrays`: the one
place that decides whether a kernel may run on the given arrays.
:meth:`~repro.backends.base.CompiledKernel.bind` calls it once, for
every backend, so the same arrays are accepted or refused — with the
same exception and text — on all of them:

* **names** — every grid the kernel uses is given;
* **outputs** — each output grid is a writeable ``np.ndarray``;
* **dtype** — all grids share one dtype, ``float64`` or ``float32``
  (and the pinned one, for a kernel compiled with ``dtype=``);
* **layout** — every grid is C-contiguous;
* **overlap** — no output grid shares memory with any other grid.  The
  dependence proofs reason about grid *names*, so an overlap would void
  them; two read-only grids may share memory.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .domains import ResolvedRect
from .stencil import Stencil, StencilGroup

__all__ = [
    "ValidationError",
    "check_arrays",
    "check_dtype",
    "check_group",
    "check_stencil",
    "footprint_bounds",
    "iteration_shape",
]

#: the grid dtypes every backend runs on
_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


class ValidationError(ValueError):
    """A stencil is inconsistent with the shapes it is applied to."""


def footprint_bounds(
    rect: ResolvedRect, scale: Sequence[int], offset: Sequence[int]
) -> list[tuple[int, int]]:
    """Inclusive per-dim (min, max) of ``scale*i + offset`` over ``rect``.

    Scales are positive, so extremes occur at the domain extremes.
    """
    lo_pt = rect.lows
    hi_pt = rect.highs()
    return [
        (s * lo + o, s * hi + o)
        for s, lo, hi, o in zip(scale, lo_pt, hi_pt, offset)
    ]


def check_stencil(
    stencil: Stencil, shapes: Mapping[str, Sequence[int]]
) -> None:
    """Raise :class:`ValidationError` if ``stencil`` cannot run on ``shapes``."""
    out_shape = shapes.get(stencil.output)
    if out_shape is None:
        raise ValidationError(
            f"{stencil.name}: output grid {stencil.output!r} missing from shapes"
        )
    out_shape = tuple(int(s) for s in out_shape)
    if len(out_shape) != stencil.ndim:
        raise ValidationError(
            f"{stencil.name}: output grid {stencil.output!r} is "
            f"{len(out_shape)}-D but the stencil is {stencil.ndim}-D"
        )
    for g in stencil.input_grids():
        if g not in shapes:
            raise ValidationError(
                f"{stencil.name}: input grid {g!r} missing from shapes"
            )
        gs = tuple(int(s) for s in shapes[g])
        if len(gs) != stencil.ndim:
            raise ValidationError(
                f"{stencil.name}: grid {g!r} is {len(gs)}-D but the stencil "
                f"is {stencil.ndim}-D"
            )

    # Domains resolve against the *iteration* shape.  For identity output
    # maps that is the output grid; for scaled writes, the domain is in
    # iteration space and the write footprint must land inside the output.
    iter_shape = iteration_shape(stencil, shapes)
    for rect in stencil.domain.resolve(iter_shape):
        if rect.is_empty():
            continue
        # write footprint
        for d, (lo, hi) in enumerate(
            footprint_bounds(rect, stencil.output_map.scale, stencil.output_map.offset)
        ):
            if lo < 0 or hi >= out_shape[d]:
                raise ValidationError(
                    f"{stencil.name}: write to {stencil.output!r} dim {d} "
                    f"spans [{lo}, {hi}] outside [0, {out_shape[d]})"
                )
        # read footprints
        for read in stencil.flat.reads():
            gs = tuple(int(s) for s in shapes[read.grid])
            for d, (lo, hi) in enumerate(
                footprint_bounds(rect, read.scale, read.offset)
            ):
                if lo < 0 or hi >= gs[d]:
                    raise ValidationError(
                        f"{stencil.name}: read of {read.grid!r} at "
                        f"{read.signature()} dim {d} spans [{lo}, {hi}] "
                        f"outside [0, {gs[d]})"
                    )


def iteration_shape(
    stencil: Stencil, shapes: Mapping[str, Sequence[int]]
) -> tuple[int, ...]:
    """Shape the domain's relative (negative) indices resolve against.

    An explicit ``iteration_grid`` wins (interpolation names its coarse
    grid); identity writes iterate over the output grid itself; scaled
    writes without an explicit grid iterate over the logical space of
    every index whose write lands in bounds,
    ``ceil((out_size - offset) / scale)``.
    """
    if stencil.iteration_grid is not None:
        if stencil.iteration_grid not in shapes:
            raise ValidationError(
                f"{stencil.name}: iteration grid "
                f"{stencil.iteration_grid!r} missing from shapes"
            )
        return tuple(int(s) for s in shapes[stencil.iteration_grid])
    out_shape = tuple(int(s) for s in shapes[stencil.output])
    om = stencil.output_map
    if om.is_identity():
        return out_shape
    return tuple(
        -((-(n - o)) // s) for n, s, o in zip(out_shape, om.scale, om.offset)
    )


def check_group(
    group: StencilGroup, shapes: Mapping[str, Sequence[int]]
) -> None:
    for s in group:
        check_stencil(s, shapes)


def check_dtype(dtype) -> np.dtype:
    """``dtype`` as a ``np.dtype``, if grids of it may run; else ``TypeError``."""
    dt = np.dtype(dtype)
    if dt not in _DTYPES:
        raise TypeError(
            f"grid dtype {dt} is not supported: grids are float64 or float32"
        )
    return dt


def check_arrays(
    needed: frozenset[str],
    outputs: Sequence[str],
    grids: Mapping[str, object],
    dtype: np.dtype | None = None,
) -> dict[str, np.ndarray]:
    """The call contract (module docstring), checked once, at bind.

    ``needed`` are the grids the kernel uses, ``outputs`` those it
    writes and ``dtype`` the pinned dtype, if any.  An array-like output
    would be copied by ``np.asarray`` and the result dropped, so outputs
    must be arrays already; array-like *inputs* are converted here.
    Returns name -> ndarray.
    """
    missing = needed - grids.keys()
    if missing:
        raise ValidationError(f"missing grids at call time: {sorted(missing)}")
    for g in outputs:
        a = grids[g]
        if not isinstance(a, np.ndarray):
            raise TypeError(
                f"output grid {g!r} must be a numpy.ndarray, got "
                f"{type(a).__name__}: a kernel writes its outputs in place"
            )
        if not a.flags.writeable:
            raise ValueError(
                f"output grid {g!r} is read-only: a kernel writes its "
                "outputs in place"
            )
    arrays = {g: np.asarray(a) for g, a in grids.items()}
    dtypes = {a.dtype for a in arrays.values()}
    if len(dtypes) > 1:
        raise ValidationError(f"grids have mixed dtypes: {sorted(map(str, dtypes))}")
    dt = check_dtype(dtypes.pop())
    if dtype is not None and dt != dtype:
        raise TypeError(f"kernel compiled for dtype {dtype}, got {dt}")
    named = sorted(arrays.items())
    for g, a in named:
        if not a.flags["C_CONTIGUOUS"]:
            raise ValueError(f"grid {g!r} must be C-contiguous")
    for g in outputs:
        for h, b in named:
            if h != g and np.shares_memory(arrays[g], b):
                raise ValueError(
                    f"output grid {g!r} shares memory with grid {h!r}: "
                    "a kernel's outputs must not overlap its other grids"
                )
    return arrays
