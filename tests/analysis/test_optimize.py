"""Dead-stencil elimination, reordering, fusion marking."""

import numpy as np
import pytest

from repro.analysis.optimize import (
    eliminate_dead_stencils,
    reorder_for_phases,
)
from repro.analysis.dag import greedy_phases
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import Stencil, StencilGroup
from repro.core.weights import WeightArray
from repro.schedule import fusion_chains

INTERIOR = RectDomain((1, 1), (-1, -1))
LAP5 = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))


def shapes_of(group, shape=(10, 10)):
    return {g: shape for g in group.grids()}


class TestDeadStencilElimination:
    def test_unobserved_write_dropped(self):
        dead = Stencil(LAP5, "scratch", INTERIOR, name="dead")
        live = Stencil(LAP5, "out", INTERIOR, name="live")
        g = StencilGroup([dead, live])
        kept = eliminate_dead_stencils(g, shapes_of(g), live_grids={"out"})
        assert [s.name for s in kept] == ["live"]

    def test_transitively_live_kept(self):
        s1 = Stencil(LAP5, "a", INTERIOR, name="s1")
        s2 = Stencil(Component("a", WeightArray([[1]])), "out", INTERIOR, name="s2")
        g = StencilGroup([s1, s2])
        kept = eliminate_dead_stencils(g, shapes_of(g), live_grids={"out"})
        assert len(kept) == 2

    def test_overwritten_before_read_still_kept_conservatively(self):
        # s1 writes a, s2 overwrites a, s3 reads a: RAW edges keep both
        # (we do not kill stencils on WAW shadows — conservative).
        s1 = Stencil(LAP5, "a", INTERIOR, name="s1")
        s2 = Stencil(Component("v", WeightArray([[1]])), "a", INTERIOR, name="s2")
        s3 = Stencil(Component("a", WeightArray([[1]])), "out", INTERIOR, name="s3")
        g = StencilGroup([s1, s2, s3])
        kept = eliminate_dead_stencils(g, shapes_of(g), live_grids={"out"})
        assert len(kept) == 3

    def test_default_live_set_keeps_everything(self):
        s = Stencil(LAP5, "a", INTERIOR)
        g = StencilGroup([s])
        assert len(eliminate_dead_stencils(g, shapes_of(g))) == 1

    def test_all_dead_raises(self):
        s = Stencil(LAP5, "a", INTERIOR)
        g = StencilGroup([s])
        with pytest.raises(ValueError):
            eliminate_dead_stencils(g, shapes_of(g), live_grids={"zzz"})

    def test_elimination_preserves_results(self, rng):
        dead = Stencil(LAP5, "scratch", INTERIOR, name="dead")
        live = Stencil(LAP5, "out", INTERIOR, name="live")
        g = StencilGroup([dead, live])
        kept = eliminate_dead_stencils(g, shapes_of(g), live_grids={"out"})
        arrays = {n: np.zeros((10, 10)) for n in g.grids()}
        arrays["u"] = rng.random((10, 10))
        a1 = {k: v.copy() for k, v in arrays.items()}
        g.compile(backend="numpy")(**{k: a1[k] for k in g.grids()})
        a2 = {k: v.copy() for k, v in arrays.items()}
        kept.compile(backend="numpy")(**{k: a2[k] for k in kept.grids()})
        np.testing.assert_array_equal(a1["out"], a2["out"])


class TestReorder:
    def test_reorder_reduces_barriers(self):
        # interleaved chain/independent: A1 -> A2, B independent.
        a1 = Stencil(LAP5, "a", INTERIOR, name="a1")
        a2 = Stencil(Component("a", WeightArray([[1]])), "a2", INTERIOR, name="a2")
        b = Stencil(Component("v", WeightArray([[1]])), "b", INTERIOR, name="b")
        g = StencilGroup([a1, a2, b])
        shapes = shapes_of(g)
        before = len(greedy_phases(g, shapes))
        reordered = reorder_for_phases(g, shapes)
        after = len(greedy_phases(reordered, shapes))
        assert after <= before
        assert [s.name for s in reordered] == ["a1", "b", "a2"]

    def test_reorder_respects_dependences(self):
        a1 = Stencil(LAP5, "a", INTERIOR, name="a1")
        a2 = Stencil(Component("a", WeightArray([[1]])), "a2", INTERIOR, name="a2")
        g = StencilGroup([a1, a2])
        reordered = reorder_for_phases(g, shapes_of(g))
        names = [s.name for s in reordered]
        assert names.index("a1") < names.index("a2")


class TestFusion:
    def test_same_domain_independent_bodies_fusable(self):
        s1 = Stencil(LAP5, "a", INTERIOR, name="s1")
        s2 = Stencil(Component("v", WeightArray([[1]])), "b", INTERIOR, name="s2")
        g = StencilGroup([s1, s2])
        assert fusion_chains(g, shapes_of(g)) == [[0, 1]]

    def test_raw_pair_not_fusable(self):
        s1 = Stencil(LAP5, "a", INTERIOR)
        s2 = Stencil(Component("a", WeightArray([[0, 1, 0], [1, 0, 1], [0, 1, 0]])), "b", INTERIOR)
        g = StencilGroup([s1, s2])
        assert fusion_chains(g, shapes_of(g)) == [[0], [1]]

    def test_different_domains_not_fusable(self):
        s1 = Stencil(LAP5, "a", INTERIOR)
        s2 = Stencil(Component("v", WeightArray([[1]])), "b",
                     RectDomain((2, 2), (-2, -2)))
        g = StencilGroup([s1, s2])
        assert fusion_chains(g, shapes_of(g)) == [[0], [1]]
