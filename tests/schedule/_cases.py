"""Shared stencil constructions for the schedule-IR suite."""

from __future__ import annotations

import numpy as np

from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import Stencil, StencilGroup
from repro.core.weights import WeightArray

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
