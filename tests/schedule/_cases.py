"""Shared stencil constructions for the schedule-IR suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.expr import GridRead
from repro.core.stencil import OutputMap, Stencil, StencilGroup
from repro.core.weights import WeightArray
from repro.schedule import SchedulePhase

LAP = WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]])


def laplacian_pair(n=12):
    """One Laplacian stencil; the smallest compilable case."""
    s = Stencil(Component("u", LAP), "out", RectDomain((1, 1), (-1, -1)))
    group = StencilGroup([s], name="lap")
    shapes = {"u": (n, n), "out": (n, n)}
    return group, shapes


def straddle_group(n=12):
    """Three stencils whose legacy program-order fusion straddles a barrier.

    * ``s0`` writes ``a`` over the wide interior;
    * ``s1`` writes ``b`` over the narrow interior, independent of ``s0``;
    * ``s2`` writes ``c`` over the narrow interior, *reading* ``a``.

    Greedy phases: ``[[0, 1], [2]]`` (the RAW ``a`` edge bars ``s2``).
    Program-order chaining glues ``[1, 2]`` — same domain, no mutual
    dependence — hoisting ``s2`` across the barrier it must wait on.
    Phase-local chaining keeps them apart by construction.
    """
    wide = RectDomain((1, 1), (-1, -1))
    narrow = RectDomain((2, 2), (-2, -2))
    s0 = Stencil(Component("u", LAP), "a", wide, name="s0")
    s1 = Stencil(Component("u", LAP), "b", narrow, name="s1")
    s2 = Stencil(Component("a", LAP), "c", narrow, name="s2")
    group = StencilGroup([s0, s1, s2], name="straddle")
    shapes = {g: (n, n) for g in ("u", "a", "b", "c")}
    return group, shapes


def fusable_pair_group(n=12):
    """Two independent same-domain stencils: one legal 2-chain."""
    interior = RectDomain((1, 1), (-1, -1))
    s0 = Stencil(Component("u", LAP), "a", interior, name="f0")
    s1 = Stencil(Component("u", LAP), "b", interior, name="f1")
    group = StencilGroup([s0, s1], name="fusable")
    shapes = {g: (n, n) for g in ("u", "a", "b")}
    return group, shapes


def gsrb_workload(n=10, ndim=2):
    """The HPGMG GSRB smoother group plus matching random arrays."""
    from repro.hpgmg.operators import cc_laplacian, smooth_group

    group = smooth_group(ndim, cc_laplacian(ndim, 1.0 / n), lam=0.25)
    shape = (n + 2,) * ndim
    shapes = {g: shape for g in group.grids()}
    rng = np.random.default_rng(7)
    arrays = {g: rng.standard_normal(shape) for g in group.grids()}
    return group, shapes, arrays


def snapshot_group(n=10):
    """In-place symmetric read: serialized step with a gather snapshot."""
    w = WeightArray([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    s = Stencil(
        Component("u", w), "u", RectDomain((1, 1), (-1, -1)),
        name="inplace",
    )
    return StencilGroup([s], name="snap"), {"u": (n, n)}


def snapshot_pair_group(n=10):
    """The snapshot stencil plus an independent same-domain one."""
    group, shapes = snapshot_group(n)
    other = Stencil(
        Component("v", WeightArray([[1]])), "b", RectDomain((1, 1), (-1, -1)),
        name="copy",
    )
    return group + other, {**shapes, "v": (n, n), "b": (n, n)}


def raw_pair_group(n=10):
    """Two same-domain stencils, the second reading what the first wrote."""
    interior = RectDomain((1, 1), (-1, -1))
    w = WeightArray([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    s0 = Stencil(Component("u", w), "a", interior, name="write_a")
    s1 = Stencil(Component("a", w), "b", interior, name="read_a")
    return StencilGroup([s0, s1], name="raw"), {
        g: (n, n) for g in ("u", "a", "b")
    }


def war_pair_group(n=10):
    """Two same-domain stencils, the first reading a neighbour of what
    the second writes: a WAR pair, wrong when run point by point."""
    interior = RectDomain((1, 1), (-1, -1))
    s0 = Stencil(Component("u", {(-1, 0): 1.0}), "b", interior, name="read_u")
    s1 = Stencil(Component("v", WeightArray([[1]])), "u", interior,
                 name="write_u")
    return StencilGroup([s0, s1], name="war"), {
        g: (n, n) for g in ("b", "u", "v")
    }


def interp_child(child, read=None, start=None, stride=1, name=None):
    """One piecewise-constant interpolation member:
    ``x[2i - 1 + child] = coarse_x[i]`` over the coarse box from
    ``start`` (the interior by default) to the last interior point in
    steps of ``stride``, plus the scale-2 read ``x[2i - 1 + read]``
    when ``read`` is given (``read == child`` is the in-place read)."""
    nd = len(child)
    body = Component("coarse_x", {(0,) * nd: 1.0})
    if read is not None:
        body = body + GridRead("x", tuple(c - 1 for c in read), (2,) * nd)
    return Stencil(
        body, "x", RectDomain(start or (1,) * nd, (-1,) * nd, (stride,) * nd),
        output_map=OutputMap((2,) * nd, tuple(c - 1 for c in child)),
        iteration_grid="coarse_x",
        name=name or f"child_{''.join(map(str, child))}",
    )


INTERP_SHAPES = {"coarse_x": (6, 6), "x": (10, 10)}


def same_child_pair_group():
    """Two interpolation members writing the same child: a WAW pair."""
    return StencilGroup(
        [interp_child((0, 1), name="first"),
         interp_child((0, 1), name="second")],
        name="same_child",
    ), dict(INTERP_SHAPES)


def child_raw_pair_group():
    """Two interpolation members on different children, the second
    reading the first one's write point: a RAW pair."""
    return StencilGroup(
        [interp_child((0, 0)), interp_child((0, 1), read=(0, 0))],
        name="child_raw",
    ), dict(INTERP_SHAPES)


def fuse_by_hand(sched, i=0, j=1):
    """``sched`` with stencil ``j`` folded into stencil ``i``'s step.

    Built with ``dataclasses.replace`` and no legality check, the way a
    caller assembles a custom schedule; the merged step keeps ``i``'s
    place and flags (snapshot off, as a fused step must be).
    """
    first = next(st for st in sched.steps() if st.stencils == (i,))
    fused = replace(first, stencils=(i, j), snapshot=False)
    phases = tuple(
        SchedulePhase(ph.index, tuple(
            fused if st is first else st
            for st in ph.steps if st.stencils != (j,)
        ))
        for ph in sched.phases
    )
    return replace(sched, phases=phases)


def solver_units(n=32):
    """The ``(group, shapes)`` units an ``n``^3 variable-coefficient
    ``MultigridSolver`` compiles, recorded without compiling any."""
    from _helpers import RecordingBackend
    from repro.backends import base
    from repro.hpgmg import Level, MultigridSolver

    rec = RecordingBackend()
    base._REGISTRY[rec.name] = rec
    try:
        MultigridSolver(Level(n, 3, coefficients="variable"), backend=rec.name)
    finally:
        del base._REGISTRY[rec.name]
    return rec.units
