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

from typing import Callable, Mapping

import numpy as np

from .. import telemetry
from ..core.flatten import term_scalar
from ..core.stencil import Stencil, StencilGroup
from ..core.validate import iteration_shape
from ..kernel import body_for, eval_point, eval_scalar_lets
from .base import Backend, register_backend

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


def _apply_stencil_terms(
    stencil: Stencil,
    arrays: Mapping[str, np.ndarray],
    params: Mapping[str, float],
    shapes: Mapping[str, tuple[int, ...]],
) -> None:
    """Legacy term-by-term interpretation (pre-kernel-IR path).

    Kept as the independent cross-check the kernel tests diff the IR
    interpreter against; shares :func:`~repro.core.flatten.term_scalar`
    with the legacy numpy path.
    """
    out = arrays[stencil.output]
    snapshot = out.copy() if stencil.is_inplace() else None

    def source(grid: str) -> np.ndarray:
        if snapshot is not None and grid == stencil.output:
            return snapshot
        return arrays[grid]

    om = stencil.output_map
    it_shape = iteration_shape(stencil, shapes)
    for rect in stencil.domain.resolve(it_shape):
        if rect.is_empty():
            continue
        for point in rect.points():
            val = 0.0
            for term in stencil.flat.terms:
                v = term_scalar(term, params)
                for read in term.reads:
                    idx = tuple(
                        s * i + o
                        for s, i, o in zip(read.scale, point, read.offset)
                    )
                    v *= source(read.grid)[idx]
                val += v
            out[om.apply(point)] = val


class PythonBackend(Backend):
    """The ``python`` micro-compiler: no codegen, direct interpretation."""

    name = "python"

    _KNOBS = {"multicolor": False}

    def specializer(self, group: StencilGroup, **options):
        schedule_at = self.pop_schedule(group, options)

        def specialize(shapes, dtype) -> Callable:
            sched = schedule_at(shapes)
            order = [group[i] for i in sched.stencil_order()]
            # The oracle form of a time tile is its *definition*: k
            # sequential applications of the whole group per call.
            applications = 1 if sched.time_tile is None else sched.time_tile.k
            telemetry.count("codegen.python.interpreted_stencils", len(group))

            def impl(arrays, params):
                for _ in range(applications):
                    if telemetry.tracing.active():
                        for stencil in order:
                            with telemetry.tracing.span(
                                f"stencil:{stencil.name}", cat="kernel",
                                backend="python",
                            ):
                                _apply_stencil(stencil, arrays, params, shapes)
                    else:
                        for stencil in order:
                            _apply_stencil(stencil, arrays, params, shapes)

            return impl

        return specialize


register_backend(PythonBackend(), "ref")
