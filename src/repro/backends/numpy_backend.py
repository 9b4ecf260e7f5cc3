"""Vectorized numpy micro-compiler.

Executes each domain box as strided-slice arithmetic over the stencil's
:class:`~repro.kernel.ir.KernelBody`: the iteration lattice maps to
numpy views (no copies — per the numpy performance idiom, views not
copies), each let-binding is evaluated once per box — so a grid read
shared by many terms is fetched and combined once per sweep — and the
result is materialized before being assigned to the output view
(rect-local gather semantics).

The dependence analysis is consulted exactly as in the compiled
backends: an in-place stencil only pays for a snapshot of its output
grid when a loop-carried hazard is proven — GSRB's colored sub-stencils
run snapshot-free.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from .. import telemetry
from ..analysis.dependence import is_parallel_safe
from ..core.domains import ResolvedRect
from ..core.flatten import term_scalar
from ..core.stencil import Stencil, StencilGroup
from ..core.validate import iteration_shape
from ..kernel import body_for, eval_rect, eval_scalar_lets
from .base import Backend, register_backend

__all__ = ["NumpyBackend", "lattice_slices"]


def lattice_slices(
    rect: ResolvedRect, scale: Sequence[int], offset: Sequence[int]
) -> tuple[slice, ...]:
    """Numpy basic-indexing slices selecting ``scale*i + offset`` over
    ``rect`` — a view, never a copy."""
    out = []
    for lo, st, ct, s, o in zip(
        rect.lows, rect.strides, rect.counts, scale, offset
    ):
        a_lo = s * lo + o
        a_st = s * st
        if a_st == 0:
            out.append(slice(a_lo, a_lo + 1, 1))
        else:
            a_hi = a_lo + a_st * (ct - 1)
            out.append(slice(a_lo, a_hi + 1, a_st))
    return tuple(out)


class _StencilExec:
    """Shape-specialized executor for one stencil."""

    def __init__(
        self,
        stencil: Stencil,
        shapes: Mapping[str, tuple[int, ...]],
    ) -> None:
        self.stencil = stencil
        it_shape = iteration_shape(stencil, shapes)
        self.rects = [
            r for r in stencil.domain.resolve(it_shape) if not r.is_empty()
        ]
        self.needs_snapshot = stencil.is_inplace() and not is_parallel_safe(
            stencil, shapes
        )
        om = stencil.output_map
        self.out_slices = [
            lattice_slices(r, om.scale, om.offset) for r in self.rects
        ]
        # The kernel body this executor evaluates (consults the package
        # toggle at specialization time, like the compiled backends).
        self.body, _ = body_for(stencil)
        # Precompute read slices per (rect, load) — distinct loads only;
        # the binding structure already deduplicated repeats.
        self.load_slices = [
            {
                ld.key: lattice_slices(r, ld.scale, ld.offset)
                for ld in self.body.loads()
            }
            for r in self.rects
        ]

    def run(
        self, arrays: Mapping[str, np.ndarray], params: Mapping[str, float]
    ) -> None:
        stencil = self.stencil
        out = arrays[stencil.output]
        snapshot = out.copy() if self.needs_snapshot else None

        def source(grid: str) -> np.ndarray:
            if snapshot is not None and grid == stencil.output:
                return snapshot
            return arrays[grid]

        scalar_env = eval_scalar_lets(self.body, params)
        for rect_i, (rect, oslc) in enumerate(zip(self.rects, self.out_slices)):
            lslc = self.load_slices[rect_i]
            # eval_rect always returns a fresh array, so assigning onto
            # an output view that aliases a source grid is safe even
            # when folding reduced the body to a bare load.
            out[oslc] = eval_rect(
                self.body,
                lambda ld: source(ld.grid)[lslc[ld.key]],
                params,
                rect.counts,
                out.dtype,
                scalar_env,
            )

    def run_terms(
        self, arrays: Mapping[str, np.ndarray], params: Mapping[str, float]
    ) -> None:
        """Legacy term-by-term evaluation (pre-kernel-IR path).

        Kept as an independent cross-check for the kernel tests; the
        scalar factor goes through the shared
        :func:`~repro.core.flatten.term_scalar`.
        """
        stencil = self.stencil
        out = arrays[stencil.output]
        snapshot = out.copy() if self.needs_snapshot else None

        def source(grid: str) -> np.ndarray:
            if snapshot is not None and grid == stencil.output:
                return snapshot
            return arrays[grid]

        for rect, oslc in zip(self.rects, self.out_slices):
            acc: np.ndarray | None = None
            rslc = {
                read: lattice_slices(rect, read.scale, read.offset)
                for read in stencil.flat.reads()
            }
            for term in stencil.flat.terms:
                piece: np.ndarray | float = term_scalar(term, params)
                for read in term.reads:
                    piece = piece * source(read.grid)[rslc[read]]
                if isinstance(piece, float):
                    piece = np.full(rect.counts, piece, dtype=out.dtype)
                if acc is None:
                    acc = np.array(piece, dtype=out.dtype, copy=True)
                else:
                    acc += piece
            if acc is None:  # all-zero body
                acc = np.zeros(rect.counts, dtype=out.dtype)
            out[oslc] = acc


class NumpyBackend(Backend):
    """The ``numpy`` micro-compiler: strided-view vectorization.

    Needs no system toolchain — together with ``python`` it is the
    terminal, always-available link of every fallback chain.
    """

    name = "numpy"
    requires_toolchain = False

    _KNOBS = {"multicolor": False}

    def specializer(self, group: StencilGroup, **options):
        schedule_at = self.pop_schedule(group, options)

        def specialize(shapes, dtype) -> Callable:
            sched = schedule_at(shapes)
            order = sched.stencil_order()
            execs = [_StencilExec(group[i], shapes) for i in order]
            telemetry.count("codegen.numpy.stencil_execs", len(execs))
            tt = sched.time_tile

            applications = 1 if tt is None else tt.k

            def impl(arrays, params):
                if tt is not None and telemetry.tracing.active():
                    with telemetry.tracing.span(
                        "time_tile", cat="schedule", backend="numpy", k=tt.k,
                    ):
                        _apply(arrays, params)
                else:
                    _apply(arrays, params)

            def _apply(arrays, params):
                for _ in range(applications):
                    if telemetry.tracing.active():
                        for ex in execs:
                            with telemetry.tracing.span(
                                f"stencil:{ex.stencil.name}", cat="kernel",
                                backend="numpy",
                            ):
                                ex.run(arrays, params)
                    else:
                        for ex in execs:
                            ex.run(arrays, params)

            return impl

        return specialize


register_backend(NumpyBackend(), "np")
