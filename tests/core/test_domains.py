"""Domains: resolution semantics, membership, unions, lattice queries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domains import DomainUnion, RectDomain, ResolvedRect, as_domain


class TestResolve:
    def test_dense_interior(self):
        r = RectDomain((1, 1), (-1, -1)).resolve((10, 12))
        assert r.lows == (1, 1)
        assert r.counts == (8, 10)
        assert r.strides == (1, 1)

    def test_negative_indices_are_size_relative(self):
        r = RectDomain((2,), (-3,)).resolve((10,))
        # end -3 -> 7 exclusive: points 2..6
        assert list(r.points()) == [(2,), (3,), (4,), (5,), (6,)]

    def test_stride_2_red_box(self):
        r = RectDomain((1,), (-1,), (2,)).resolve((8,))
        # indices 1,3,5 (end = 7 exclusive)
        assert list(r.points()) == [(1,), (3,), (5,)]

    def test_pinned_dimension(self):
        r = RectDomain((0, 1), (1, -1), (0, 1)).resolve((6, 6))
        assert r.counts == (1, 4)
        assert [p for p in r.points()] == [(0, j) for j in range(1, 5)]

    def test_pinned_negative(self):
        r = RectDomain((-1,), (-1,), (0,)).resolve((6,))
        assert list(r.points()) == [(5,)]

    def test_pinned_out_of_bounds_is_empty(self):
        r = RectDomain((9,), (10,), (0,)).resolve((6,))
        assert r.is_empty()

    def test_empty_when_start_past_end(self):
        r = RectDomain((5,), (3,)).resolve((10,))
        assert r.is_empty()
        assert r.npoints == 0

    def test_end_clamped_to_size(self):
        r = RectDomain((0,), (100,)).resolve((5,))
        assert r.counts == (5,)

    def test_dimensionality_mismatch(self):
        with pytest.raises(ValueError):
            RectDomain((1, 1), (-1, -1)).resolve((10,))

    def test_whole_grid(self):
        r = RectDomain((0, 0), (6, 6)).resolve((6, 6))
        assert r.npoints == 36


class TestRectDomainValidation:
    def test_negative_stride_rejected(self):
        with pytest.raises(ValueError):
            RectDomain((0,), (5,), (-1,))

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError):
            RectDomain((), ())

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            RectDomain((0, 0), (5,))

    def test_immutable(self):
        d = RectDomain((0,), (5,))
        with pytest.raises(AttributeError):
            d.start = (1,)

    def test_equality_hash(self):
        assert RectDomain((1,), (-1,), (2,)) == RectDomain((1,), (-1,), (2,))
        assert hash(RectDomain((1,), (-1,))) == hash(RectDomain((1,), (-1,)))


class TestResolvedRect:
    def test_contains(self):
        r = RectDomain((1,), (-1,), (2,)).resolve((10,))
        assert r.contains((3,))
        assert not r.contains((4,))
        assert not r.contains((9,))

    def test_contains_wrong_dims(self):
        r = RectDomain((1,), (-1,)).resolve((10,))
        with pytest.raises(ValueError):
            r.contains((1, 2))

    def test_highs(self):
        r = RectDomain((1,), (8,), (3,)).resolve((10,))
        assert r.highs() == (7,)  # 1, 4, 7

    def test_ranges_match_points(self):
        r = RectDomain((1, 0), (-1, 5), (2, 0)).resolve((9, 9))
        from itertools import product

        # rows 1, 3, 5, 7; stride 0 pins the column at 0
        assert list(product(range(1, 8, 2), [0])) == list(r.points())


class TestUnion:
    def test_plus_operator(self):
        u = RectDomain((1, 1), (-1, -1), (2, 2)) + RectDomain(
            (2, 2), (-1, -1), (2, 2)
        )
        assert isinstance(u, DomainUnion)
        assert len(u) == 2

    def test_union_plus_rect_and_rect_plus_union(self):
        a, b, c = (RectDomain((i,), (-1,)) for i in (1, 2, 3))
        assert len((a + b) + c) == 3
        assert len(a + (b + c)) == 3

    def test_union_requires_same_ndim(self):
        with pytest.raises(ValueError):
            DomainUnion([RectDomain((1,), (-1,)), RectDomain((1, 1), (-1, -1))])

    def test_empty_union_rejected(self):
        with pytest.raises(ValueError):
            DomainUnion([])

    def test_npoints_and_points(self):
        u = RectDomain((0,), (4,)) + RectDomain((4,), (8,))
        assert u.npoints((8,)) == 8
        assert sorted(u.points((8,))) == [(i,) for i in range(8)]

    def test_contains(self):
        u = RectDomain((0,), (2,)) + RectDomain((6,), (8,))
        assert u.contains((7,), (8,))
        assert not u.contains((3,), (8,))

    def test_as_domain(self):
        r = RectDomain((0,), (5,))
        assert isinstance(as_domain(r), DomainUnion)
        u = DomainUnion([r])
        assert as_domain(u) is u
        with pytest.raises(TypeError):
            as_domain("nope")


class TestColored:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_red_black_partition_interior(self, ndim):
        shape = (9,) * ndim
        red = RectDomain.colored(ndim, 0)
        black = RectDomain.colored(ndim, 1)
        interior = {
            p
            for p in np.ndindex(*shape)
            if all(1 <= c < s - 1 for c, s in zip(p, shape))
        }
        red_pts = set(red.points(shape))
        black_pts = set(black.points(shape))
        assert red_pts | black_pts == interior
        assert not (red_pts & black_pts)

    def test_red_owns_corner(self):
        red = RectDomain.colored(2, 0)
        assert red.contains((1, 1), (8, 8))

    def test_colors_are_checkerboard(self):
        red = RectDomain.colored(2, 0)
        for p in red.points((10, 10)):
            assert (p[0] + p[1]) % 2 == 0

    def test_bad_parity(self):
        with pytest.raises(ValueError):
            RectDomain.colored(2, 2)


class TestIntersects:
    def test_disjoint_strided(self):
        a = RectDomain((1,), (-1,), (2,)).resolve((10,))
        b = RectDomain((2,), (-1,), (2,)).resolve((10,))
        assert not a.intersects(b)

    def test_same_lattice(self):
        a = RectDomain((1,), (-1,), (2,)).resolve((10,))
        assert a.intersects(a)

    def test_overlapping_boxes(self):
        a = RectDomain((0, 0), (5, 5)).resolve((10, 10))
        b = RectDomain((4, 4), (8, 8)).resolve((10, 10))
        assert a.intersects(b)
        c = RectDomain((5, 5), (8, 8)).resolve((10, 10))
        assert not a.intersects(c)

    @settings(max_examples=200, deadline=None)
    @given(
        s1=st.integers(0, 6), t1=st.integers(0, 4), n1=st.integers(1, 6),
        s2=st.integers(0, 6), t2=st.integers(0, 4), n2=st.integers(1, 6),
    )
    def test_intersects_matches_brute_force_1d(self, s1, t1, n1, s2, t2, n2):
        a = ResolvedRect((s1,), (t1,), (n1 if t1 else 1,))
        b = ResolvedRect((s2,), (t2,), (n2 if t2 else 1,))
        pts_a = set(a.points())
        pts_b = set(b.points())
        assert a.intersects(b) == bool(pts_a & pts_b)

    @settings(max_examples=100, deadline=None)
    @given(
        lows=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        strides=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        counts=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        lows2=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        strides2=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        counts2=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    )
    def test_intersects_matches_brute_force_2d(
        self, lows, strides, counts, lows2, strides2, counts2
    ):
        a = ResolvedRect(lows, strides, counts)
        b = ResolvedRect(lows2, strides2, counts2)
        assert a.intersects(b) == bool(set(a.points()) & set(b.points()))
