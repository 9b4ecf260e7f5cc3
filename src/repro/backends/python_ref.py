"""Pure-Python reference interpreter — the correctness oracle.

Interprets each stencil's :class:`~repro.kernel.ir.KernelBody` — the
same optimized body every compiled backend emits — point by point with
*gather* semantics:
every read observes the grid state as it was when the stencil application
began (an in-place stencil reads its output grid through a snapshot).
All other backends must agree bit-for-bit with this interpreter on
hazard-free stencils and up to gather semantics on hazardous ones; the
equivalence suite in ``tests/backends`` enforces that.

Stencils execute in :class:`~repro.schedule.ir.Schedule` order (program
order under the default greedy policy); fusion and multicolor sweeps
are loop-structure decisions with no observable effect here, so the
interpreter simply honours the schedule's ordering.

Deliberately unoptimized — small grids only.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Mapping

import numpy as np

from .. import telemetry
from ..core.stencil import Stencil
from ..core.validate import iteration_shape
from ..kernel import body_for, eval_point, eval_scalar_lets
from .base import Backend, in_order, register_backend

__all__ = ["PythonBackend"]


def _apply_stencil(
    stencil: Stencil,
    arrays: Mapping[str, np.ndarray],
    params: Mapping[str, float],
    shapes: Mapping[str, tuple[int, ...]],
) -> None:
    """Interpret the stencil's (cached, optimized) kernel body."""
    out = arrays[stencil.output]
    snapshot = out.copy() if stencil.is_inplace() else None

    def source(grid: str) -> np.ndarray:
        if snapshot is not None and grid == stencil.output:
            return snapshot
        return arrays[grid]

    body, _ = body_for(stencil)
    scalar_env = eval_scalar_lets(body, params)
    om = stencil.output_map
    it_shape = iteration_shape(stencil, shapes)
    for rect in stencil.domain.resolve(it_shape):
        if rect.is_empty():
            continue
        for point in rect.points():

            def load(ld):
                idx = tuple(
                    s * i + o
                    for s, i, o in zip(ld.scale, point, ld.offset)
                )
                return source(ld.grid)[idx]

            out[om.apply(point)] = eval_point(
                body, load, params, scalar_env
            )


class PythonBackend(Backend):
    """The ``python`` micro-compiler: no codegen, direct interpretation."""

    name = "python"

    _KNOBS = {"multicolor": False}

    def lower(self, group, shapes, dtype, sched) -> Callable:
        telemetry.count("codegen.python.interpreted_stencils", len(group))
        return in_order("python", [
            (group[i].name, partial(_apply_stencil, group[i], shapes=shapes))
            for i in sched.stencil_order()
        ])


register_backend(PythonBackend(), "ref")
