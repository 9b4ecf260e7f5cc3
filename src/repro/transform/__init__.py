"""``repro.transform``: composable, legality-checked IR rewrites.

The externalized scheduling surface (ROADMAP item 2, in the style of
Exo): :class:`Transform` objects rewrite a
:class:`~repro.schedule.ir.Schedule` or a
:class:`~repro.kernel.ir.KernelBody` into a new one, every schedule
rewrite re-validated against the Diophantine/dependence evidence; an
illegal composition raises :class:`TransformError` carrying the
refusing :class:`~repro.schedule.ir.Evidence`.

Compose with ``|`` and apply::

    from repro.schedule import base_schedule
    from repro.transform import fuse, color_sweep, tile

    sched = (fuse() | color_sweep() | tile(16))(
        base_schedule(group, shapes)
    )

``ScheduleOptions`` presets and ``kernel.optimize`` are thin veneers
over this API (:func:`preset_pipeline`, :func:`kernel_pipeline`); the
tuner (:mod:`repro.tuning`) searches the same space.
"""

from .base import Pipeline, Transform, TransformError
from .kernel_tx import (
    Cse,
    FmaGroup,
    FoldConstants,
    Hoist,
    cse,
    fma_group,
    fold,
    hoist,
    kernel_pipeline,
)
from .preset import preset_pipeline
from .schedule_tx import (
    Block,
    ColorSweep,
    Distribute,
    Fuse,
    Reorder,
    Split,
    Tile,
    TimeTile,
    Unroll,
    block,
    color_sweep,
    distribute,
    fuse,
    reorder,
    split,
    tile,
    time_tile,
    unroll,
    verify_schedule,
)

__all__ = [
    "Transform",
    "Pipeline",
    "TransformError",
    "verify_schedule",
    "preset_pipeline",
    "kernel_pipeline",
    # schedule transforms
    "Fuse",
    "Distribute",
    "Split",
    "Reorder",
    "ColorSweep",
    "Tile",
    "Block",
    "Unroll",
    "TimeTile",
    "fuse",
    "distribute",
    "split",
    "reorder",
    "color_sweep",
    "tile",
    "block",
    "unroll",
    "time_tile",
    # kernel transforms
    "FoldConstants",
    "Cse",
    "Hoist",
    "FmaGroup",
    "fold",
    "cse",
    "hoist",
    "fma_group",
]
