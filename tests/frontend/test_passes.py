"""The group pass pipeline: dead-stencil elimination, then phase reordering."""

import numpy as np

from repro.analysis.dag import greedy_phases
from repro.analysis.optimize import eliminate_dead_stencils, reorder_for_phases
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import Stencil, StencilGroup
from repro.core.weights import WeightArray

INTERIOR = RectDomain((1, 1), (-1, -1))
LAP = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))


def messy_group():
    """dead scratch + a chain interleaved with an independent stencil."""
    a1 = Stencil(LAP, "a", INTERIOR, name="a1")
    a2 = Stencil(Component("a", WeightArray([[1]])), "a2", INTERIOR, name="a2")
    dead = Stencil(LAP, "scratch", INTERIOR, name="dead")
    b = Stencil(Component("v", WeightArray([[1]])), "b", INTERIOR, name="b")
    return StencilGroup([a1, a2, dead, b])


def shapes_of(g, shape=(12, 12)):
    return {k: shape for k in g.grids()}


def optimize_group(g, shapes, live_grids=None):
    return reorder_for_phases(eliminate_dead_stencils(g, shapes, live_grids), shapes)


class TestPassManager:
    def test_default_pipeline_eliminates_and_reorders(self):
        g = messy_group()
        shapes = shapes_of(g)
        pruned = eliminate_dead_stencils(g, shapes, live_grids={"a2", "b"})
        assert len(pruned) == 3
        names = [s.name for s in reorder_for_phases(pruned, shapes)]
        assert names == ["a1", "b", "a2"]

    def test_phase_count_never_increases(self):
        g = messy_group()
        shapes = shapes_of(g)
        before = len(greedy_phases(g, shapes))
        out = optimize_group(g, shapes, live_grids={"a2", "b"})
        after = len(greedy_phases(out, shapes))
        assert after <= before

    def test_default_live_set_is_conservative(self):
        g = messy_group()
        out = optimize_group(g, shapes_of(g))  # everything live
        assert len(out) == len(g)

    def test_optimized_group_computes_same_live_results(self, rng):
        g = messy_group()
        shapes = shapes_of(g)
        out = optimize_group(g, shapes, live_grids={"a2", "b"})
        arrays = {k: np.zeros((12, 12)) for k in g.grids()}
        arrays["u"] = rng.random((12, 12))
        arrays["v"] = rng.random((12, 12))
        r1 = {k: v.copy() for k, v in arrays.items()}
        g.compile(backend="numpy")(**{k: r1[k] for k in g.grids()})
        r2 = {k: v.copy() for k, v in arrays.items()}
        out.compile(backend="numpy")(**{k: r2[k] for k in out.grids()})
        np.testing.assert_array_equal(r1["a2"], r2["a2"])
        np.testing.assert_array_equal(r1["b"], r2["b"])
