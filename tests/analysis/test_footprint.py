"""Footprint lattices and access conflicts."""

import pytest

from repro.analysis.footprint import (
    Access,
    access_conflicts,
    map_lattice,
    stencil_accesses,
)
from repro.core.components import Component
from repro.core.domains import RectDomain, ResolvedRect
from repro.core.stencil import OutputMap, Stencil
from repro.core.weights import WeightArray
from repro.hpgmg.operators import restriction_stencil

LAP5 = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))


class TestMapLattice:
    def test_identity(self):
        r = ResolvedRect((1, 1), (1, 1), (4, 4))
        assert map_lattice(r, (1, 1), (0, 0)) == r

    def test_offset_shifts_lows(self):
        r = ResolvedRect((1,), (2,), (3,))
        m = map_lattice(r, (1,), (5,))
        assert m.lows == (6,)
        assert m.strides == (2,)
        assert m.counts == (3,)

    def test_scale_multiplies_strides(self):
        r = ResolvedRect((1,), (1,), (4,))
        m = map_lattice(r, (2,), (-1,))
        assert m.lows == (1,)       # 2*1 - 1
        assert m.strides == (2,)    # 2*1
        assert set(m.points()) == {(1,), (3,), (5,), (7,)}

    def test_image_matches_pointwise(self):
        r = ResolvedRect((2, 1), (3, 2), (2, 3))
        m = map_lattice(r, (2, 1), (1, -1))
        want = {
            tuple(2 * p[0] + 1 for p in [pt])[0:1] + (pt[1] - 1,)
            for pt in r.points()
        }
        want = {(2 * a + 1, b - 1) for a, b in r.points()}
        assert set(m.points()) == want


class TestStencilAccesses:
    def test_out_of_place(self):
        s = Stencil(LAP5, "out", RectDomain((1, 1), (-1, -1)))
        acc = stencil_accesses(s, {"u": (8, 8), "out": (8, 8)})
        assert {a.grid for a in acc.writes} == {"out"}
        assert acc.grids_read() == {"u"}
        assert len(acc.writes) == 1
        assert len(acc.reads) == 5  # one lattice per distinct offset

    def test_union_multiplies_accesses(self):
        dom = RectDomain((1, 1), (-1, -1), (2, 2)) + RectDomain(
            (2, 2), (-1, -1), (2, 2)
        )
        s = Stencil(LAP5, "out", dom)
        acc = stencil_accesses(s, {"u": (8, 8), "out": (8, 8)})
        assert len(acc.writes) == 2
        assert len(acc.reads) == 10

    def test_empty_boxes_skipped(self):
        dom = RectDomain((1, 1), (-1, -1)) + RectDomain((5, 5), (3, 3))
        s = Stencil(LAP5, "out", dom)
        acc = stencil_accesses(s, {"u": (8, 8), "out": (8, 8)})
        assert len(acc.writes) == 1

    def test_restriction_reads_scaled_lattice(self):
        s = restriction_stencil(2)
        acc = stencil_accesses(s, {"res": (18, 18), "coarse_rhs": (10, 10)})
        read_strides = {a.lattice.strides for a in acc.reads}
        assert read_strides == {(2, 2)}


class TestAccessConflicts:
    def _acc(self, stencil, shapes):
        return stencil_accesses(stencil, shapes)

    def test_kinds(self):
        shapes = {"u": (8, 8), "a": (8, 8), "b": (8, 8)}
        w = Stencil(LAP5, "a", RectDomain((1, 1), (-1, -1)))
        r = Stencil(Component("a", WeightArray([[1]])), "b",
                    RectDomain((1, 1), (-1, -1)))
        kinds = access_conflicts(self._acc(w, shapes), self._acc(r, shapes))
        assert kinds == {"RAW"}
        kinds = access_conflicts(self._acc(r, shapes), self._acc(w, shapes))
        assert kinds == {"WAR"}

    def test_access_intersects_requires_same_grid(self):
        a = Access("x", ResolvedRect((0,), (1,), (5,)), True)
        b = Access("y", ResolvedRect((0,), (1,), (5,)), False)
        assert not a.intersects(b)
