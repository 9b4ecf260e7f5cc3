"""Measure first, then tune: the optimization workflow end to end.

Applies the discipline the numpy/HPC guides preach — no optimization
without measuring — to a Snowflake stencil pipeline:

1. profile a multigrid smoothing step per stencil (which operator is
   actually hot?) — each stencil runs as its own group under the span
   tracer, and the ``kernel:<stencil>`` rows of ``self_times()`` are
   the answer,
2. clean the group (dead-stencil elimination, then a
   barrier-minimizing reorder),
3. tune the tile size for the hot stencil's backend,
4. compare the final tuned/fused kernel against the naive compile,
5. record the whole tuned run as a span trace
   (profile_and_tune.trace.json — open it in https://ui.perfetto.dev
   to see the group rewrites, JIT compiles and kernel calls on a
   timeline).

Run:  python examples/profile_and_tune.py
"""

import time

import numpy as np

from repro.analysis import greedy_phases
from repro.analysis.optimize import eliminate_dead_stencils, reorder_for_phases
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import Stencil, StencilGroup
from repro.core.weights import WeightArray
from repro.hpgmg.operators import (
    boundary_stencils,
    cc_diagonal,
    cc_laplacian,
    residual_stencil,
    smooth_group,
)
from repro.telemetry import tracing
from repro.telemetry.report import render_top
from repro.schedule import ScheduleOptions
from repro.tuning import search_schedules

N = 96
SHAPE = (N + 2, N + 2)
H = 1.0 / N

# a realistic pipeline: smooth, then residual, plus a leftover debug
# stencil nobody reads (it happens).
group = smooth_group(2, cc_laplacian(2, H), lam=1 / cc_diagonal(2, H))
group = group + residual_stencil(2, cc_laplacian(2, H))
group = group + Stencil(
    Component("x", WeightArray([[1]])), "debug_copy",
    RectDomain((1, 1), (-1, -1)), name="debug_copy",
)

rng = np.random.default_rng(1)
arrays = {g: np.zeros(SHAPE) for g in group.grids()}
arrays["x"] = rng.random(SHAPE)
arrays["rhs"] = rng.random(SHAPE)

# -- 1. profile -----------------------------------------------------------------
scratch = {k: v.copy() for k, v in arrays.items()}
with tracing.session():
    for stencil in group:
        kernel = StencilGroup([stencil], name=stencil.name).compile(backend="c")
        bound = kernel.bind(**{g: scratch[g] for g in stencil.grids()})
        for _ in range(3):
            bound()
print(render_top(
    [r for r in tracing.self_times() if r["name"].startswith("kernel:")]
))

# -- 2. optimize the group -------------------------------------------------------
shapes = {g: SHAPE for g in group.grids()}


def optimize(g):
    live = eliminate_dead_stencils(g, shapes, live_grids={"x", "res"})
    return reorder_for_phases(live, shapes)


optimized = optimize(group)
print(f"\ngroup: {len(group)} -> {len(optimized)} stencils, "
      f"{len(greedy_phases(group, shapes))} -> "
      f"{len(greedy_phases(optimized, shapes))} phases")

# -- 3. tune the backend ----------------------------------------------------------
tune = search_schedules(
    optimized, {k: v.copy() for k, v in arrays.items() if k in optimized.grids()},
    backend="openmp", repeats=2,
    candidates=[ScheduleOptions(tile=t) for t in (2, 8, 32)], budget=3,
)
worst = max(t.measured_s for t in tune.measured())
print(f"\ntune: best tile {tune.best.tile} "
      f"({worst / tune.best_measured_s:.2f}x over the worst candidate)")

# -- 4. final comparison ------------------------------------------------------------
def timed(g, **opts):
    kernel = g.compile(backend="openmp", **opts)
    work = {k: arrays[k].copy() for k in g.grids()}
    kernel(**work)  # untimed warmup
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        kernel(**work)
        best = min(best, time.perf_counter() - t0)
    return best

naive = timed(group)
tuned = timed(optimized, tile=tune.best.tile, fuse=True)
print(f"\nnaive pipeline:      {naive * 1e3:7.3f} ms")
print(f"optimized pipeline:  {tuned * 1e3:7.3f} ms "
      f"({naive / tuned:.2f}x, having dropped "
      f"{len(group) - len(optimized)} dead stencil(s))")

# -- 5. trace the tuned pipeline -----------------------------------------------
with tracing.session():
    traced = optimize(group)
    kernel = traced.compile(
        backend="openmp", shapes=shapes, tile=tune.best.tile, fuse=True,
    )
    work = {k: arrays[k].copy() for k in traced.grids()}
    kernel(**work)
    tracing.export_chrome_trace("profile_and_tune.trace.json")
print("\nwrote profile_and_tune.trace.json "
      "(open in https://ui.perfetto.dev)")
