"""Dependence analysis: the paper's SectionIII claims, verified.

Key cases: in-place GSRB colors are safe, the uncolored in-place sweep
is not, boundary stencils don't falsely depend on interior stencils
(finite domains beat Halide-style interval analysis), and cross-stencil
RAW/WAR/WAW detection matches brute-force footprint enumeration.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dependence import (
    cross_stencil_dependence,
    group_dependences,
    intra_stencil_hazards,
    is_parallel_safe,
)
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.expr import GridRead
from repro.core.stencil import OutputMap, Stencil, StencilGroup
from repro.core.validate import iteration_shape
from repro.core.weights import WeightArray
from repro.hpgmg.operators import (
    boundary_stencils,
    cc_laplacian,
    gsrb_stencils,
    red_black_domains,
    restriction_stencil,
    interpolation_pc_group,
)
from repro.schedule import fusion_chains
from tests.schedule._cases import interp_child

SHAPE2 = (18, 18)
LAP5 = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
INTERIOR = RectDomain((1, 1), (-1, -1))


def shapes_for(*stencils, shape=SHAPE2):
    out = {}
    for s in stencils:
        for g in s.grids():
            out[g] = shape
    return out


class TestIntraStencil:
    def test_out_of_place_is_safe(self):
        s = Stencil(LAP5, "out", INTERIOR)
        assert is_parallel_safe(s, shapes_for(s))

    def test_inplace_neighbour_read_is_hazard(self):
        s = Stencil(LAP5, "u", INTERIOR)
        hazards = intra_stencil_hazards(s, shapes_for(s))
        assert hazards
        assert all(h.grid == "u" for h in hazards)

    def test_inplace_pure_center_read_is_safe(self):
        s = Stencil(Component("u", WeightArray([[2.0]])), "u", INTERIOR)
        assert is_parallel_safe(s, shapes_for(s))

    def test_gsrb_colors_are_safe(self):
        red, black = gsrb_stencils(2, cc_laplacian(2, 0.1), lam=0.1)
        assert is_parallel_safe(red, shapes_for(red))
        assert is_parallel_safe(black, shapes_for(black))

    def test_gsrb_on_odd_interior_still_safe(self):
        red, black = gsrb_stencils(2, cc_laplacian(2, 0.1), lam=0.1)
        # 19x19 grid -> 17x17 interior (odd): unequal color populations
        assert is_parallel_safe(red, shapes_for(red, shape=(19, 19)))
        assert is_parallel_safe(black, shapes_for(black, shape=(19, 19)))

    def test_boundary_faces_are_safe(self):
        for bc in boundary_stencils(2, "u"):
            assert is_parallel_safe(bc, {"u": SHAPE2})

    def test_waw_on_overlapping_union(self):
        dom = RectDomain((1, 1), (6, 6)) + RectDomain((4, 4), (9, 9))
        s = Stencil(Component("src", WeightArray([[1]])), "dst", dom)
        kinds = {h.kind for h in intra_stencil_hazards(s, shapes_for(s))}
        assert "WAW" in kinds

    def test_interp_diagonal_scaled_read_is_safe(self):
        group = interpolation_pc_group(2)
        shapes = {"coarse_x": (6, 6), "x": (10, 10)}
        for s in group:
            assert is_parallel_safe(s, shapes)

    def test_stride2_inplace_offset2_read_is_hazard(self):
        # red points reading 2 cells over land on red again
        red, _ = red_black_domains(2)
        body = Component("u", {(0, 2): 1.0})
        s = Stencil(body, "u", red)
        assert not is_parallel_safe(s, shapes_for(s))


class TestCrossStencil:
    def test_raw(self):
        w = Stencil(LAP5, "a", INTERIOR)
        r = Stencil(Component("a", WeightArray([[1]])), "b", INTERIOR)
        assert "RAW" in cross_stencil_dependence(w, r, shapes_for(w, r))

    def test_war(self):
        r = Stencil(Component("a", WeightArray([[1]])), "b", INTERIOR)
        w = Stencil(LAP5, "a", INTERIOR)
        kinds = cross_stencil_dependence(r, w, shapes_for(r, w))
        assert "WAR" in kinds and "RAW" not in kinds

    def test_waw(self):
        s1 = Stencil(LAP5, "a", INTERIOR)
        s2 = Stencil(Component("v", WeightArray([[1]])), "a", INTERIOR)
        assert "WAW" in cross_stencil_dependence(s1, s2, shapes_for(s1, s2))

    def test_independent_grids(self):
        s1 = Stencil(LAP5, "a", INTERIOR)
        s2 = Stencil(Component("v", WeightArray([[1]])), "b", INTERIOR)
        assert cross_stencil_dependence(s1, s2, shapes_for(s1, s2)) == set()

    def test_disjoint_regions_same_grid(self):
        # two stencils updating disjoint patches of one grid from another
        body = Component("src", WeightArray([[1]]))
        s1 = Stencil(body, "dst", RectDomain((1, 1), (8, 8)))
        s2 = Stencil(body, "dst", RectDomain((8, 8), (17, 17)))
        assert cross_stencil_dependence(s1, s2, shapes_for(s1, s2)) == set()

    def test_red_then_black_depend(self):
        red, black = gsrb_stencils(2, cc_laplacian(2, 0.1), lam=0.1)
        kinds = cross_stencil_dependence(red, black, shapes_for(red, black))
        assert "RAW" in kinds  # black reads the red points just written

    def test_boundary_then_interior_depend(self):
        bc = boundary_stencils(2, "u")[0]
        interior = Stencil(LAP5, "out", INTERIOR)
        kinds = cross_stencil_dependence(bc, interior, shapes_for(bc, interior))
        assert "RAW" in kinds

    def test_interior_writer_does_not_block_far_face(self):
        # the paper's finite-domain claim: an interior stencil that stays
        # 2 cells from the face cannot conflict with the face update.
        deep = RectDomain((2, 2), (-2, -2))
        w = Stencil(LAP5, "u", deep)
        bc = boundary_stencils(2, "u")[0]  # writes row 0, reads row 1
        assert cross_stencil_dependence(w, bc, shapes_for(w, bc)) == set()

    def test_restriction_interp_roundtrip_dependences(self):
        restrict = restriction_stencil(2)
        shapes = {"res": (18, 18), "coarse_rhs": (10, 10)}
        # restriction reads res, writes coarse_rhs: no self-hazard
        assert is_parallel_safe(restrict, shapes)


class TestGroupDependences:
    def test_matrix_shape(self):
        red, black = gsrb_stencils(2, cc_laplacian(2, 0.1), lam=0.1)
        g = StencilGroup([red, black])
        deps = group_dependences(g, shapes_for(red, black))
        assert (0, 1) in deps

    def test_independent_group_is_empty(self):
        s1 = Stencil(LAP5, "a", INTERIOR)
        s2 = Stencil(Component("v", WeightArray([[1]])), "b", INTERIOR)
        assert group_dependences(StencilGroup([s1, s2]), shapes_for(s1, s2)) == {}


def brute_force_hazard(stencil, shapes) -> bool:
    """Reference implementation by enumeration (small domains only)."""
    it_shape = iteration_shape(stencil, shapes)
    pts = [
        p
        for r in stencil.domain.resolve(it_shape)
        for p in r.points()
    ]
    om = stencil.output_map
    writes = {om.apply(p): p for p in pts}
    for p in pts:
        for read in stencil.flat.reads():
            if read.grid != stencil.output:
                continue
            idx = tuple(
                s * i + o for s, i, o in zip(read.scale, p, read.offset)
            )
            if idx in writes and writes[idx] != p:
                return True
    # WAW
    seen = {}
    for p in pts:
        w = om.apply(p)
        if w in seen and seen[w] != p:
            return True
        seen[w] = p
    return False


@settings(max_examples=120, deadline=None)
@given(
    off=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    stride=st.sampled_from([1, 2, 3]),
    start=st.tuples(st.integers(1, 3), st.integers(1, 3)),
)
def test_intra_hazard_matches_brute_force(off, stride, start):
    dom = RectDomain(start, (-1, -1), (stride, stride))
    body = Component("u", {(0, 0): 1.0, off: 0.5})
    s = Stencil(body, "u", dom)
    shapes = {"u": (12, 12)}
    got = not is_parallel_safe(s, shapes)
    want = brute_force_hazard(s, shapes)
    # exactness for identity write maps (the analysis may only be
    # conservative for exotic scaled writes, not these)
    assert got == want


def brute_force_cross(first, second, shapes) -> set[str]:
    """RAW/WAR/WAW of ``second`` on ``first`` by enumeration (small
    domains only): the cells each writes and reads, intersected."""

    def touched(s):
        pts = [
            p
            for r in s.domain.resolve(iteration_shape(s, shapes))
            for p in r.points()
        ]
        writes = {(s.output, s.output_map.apply(p)) for p in pts}
        reads = {
            (r.grid, tuple(sc * i + o for sc, i, o in zip(r.scale, p, r.offset)))
            for p in pts
            for r in s.flat.reads()
        }
        return writes, reads

    (wa, ra), (wb, rb) = touched(first), touched(second)
    return {
        kind
        for kind, hit in (("RAW", wa & rb), ("WAR", ra & wb), ("WAW", wa & wb))
        if hit
    }


@settings(max_examples=150, deadline=None)
@given(data=st.data(), ndim=st.sampled_from([2, 3]))
def test_scaled_write_dependences_match_brute_force(data, ndim):
    # the verdicts the fusion of the interpolation rests on, exact for
    # scale-2 output maps: two members of one phase on random children,
    # each with no fine read, the in-place read or a read of another
    # child's point, over random strided boxes
    child = st.tuples(*[st.integers(0, 1)] * ndim)
    members, local = [], True
    for name in ("a", "b"):
        c = data.draw(child)
        kind = data.draw(st.sampled_from(["none", "own", "other"]))
        read = data.draw(child) if kind == "other" else (
            c if kind == "own" else None
        )
        local = local and read in (None, c)
        members.append(interp_child(
            c, read,
            start=data.draw(st.tuples(*[st.integers(1, 2)] * ndim)),
            stride=data.draw(st.sampled_from([1, 2, 3])),
            name=name,
        ))
    a, b = members
    n = 6 if ndim == 2 else 5
    shapes = {"coarse_x": (n,) * ndim, "x": (2 * n - 2,) * ndim}
    for s in members:
        assert (not is_parallel_safe(s, shapes)) == brute_force_hazard(s, shapes)
    want = brute_force_cross(a, b, shapes)
    assert cross_stencil_dependence(a, b, shapes) == want
    # fusion trusts exactly these verdicts: it chains the pair iff the
    # two share a domain, write different children and read the fine
    # grid only at their own points, and then neither touches a cell
    # the other writes
    fused = fusion_chains(StencilGroup(members), shapes) == [[0, 1]]
    assert fused == (
        a.domain == b.domain and a.output_map != b.output_map and local
    )
    if fused:
        assert want == set()
