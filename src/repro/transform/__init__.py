"""``repro.transform``: composable, legality-checked schedule rewrites.

The externalized scheduling surface (in the style of Exo):
:class:`Transform` objects rewrite a
:class:`~repro.schedule.ir.Schedule` into a new one, every rewrite
re-validated against the Diophantine/dependence evidence; an illegal
composition raises :class:`TransformError` carrying the refusing
:class:`~repro.schedule.ir.Evidence`.

Compose with ``|`` and apply::

    from repro.schedule import base_schedule
    from repro.transform import fuse, color_sweep, tile

    sched = (fuse() | color_sweep() | tile(16))(
        base_schedule(group, shapes)
    )

``ScheduleOptions`` presets are a thin veneer over this API
(:func:`preset_pipeline`); the tuner (:mod:`repro.tuning`) searches the
same space.
"""

from .base import Pipeline, Transform, TransformError
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
]
