"""Numpy backend specifics: views, snapshots, lattice slicing."""

import numpy as np

from repro.backends.numpy_backend import _StencilExec, lattice_slices
from repro.core.components import Component
from repro.core.domains import RectDomain, ResolvedRect
from repro.core.stencil import Stencil
from repro.core.weights import WeightArray
from repro.hpgmg.operators import red_black_domains

INTERIOR = RectDomain((1, 1), (-1, -1))
LAP = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))


class TestLatticeSlices:
    def test_identity_map(self):
        r = ResolvedRect((1, 2), (1, 1), (4, 5))
        slc = lattice_slices(r, (1, 1), (0, 0))
        a = np.arange(100).reshape(10, 10)
        assert a[slc].shape == (4, 5)
        assert a[slc][0, 0] == a[1, 2]

    def test_offset_map(self):
        r = ResolvedRect((1,), (1,), (4,))
        slc = lattice_slices(r, (1,), (2,))
        a = np.arange(10)
        np.testing.assert_array_equal(a[slc], [3, 4, 5, 6])

    def test_strided_map(self):
        r = ResolvedRect((1,), (2,), (3,))
        slc = lattice_slices(r, (1,), (0,))
        a = np.arange(10)
        np.testing.assert_array_equal(a[slc], [1, 3, 5])

    def test_scaled_map(self):
        r = ResolvedRect((1,), (1,), (4,))
        slc = lattice_slices(r, (2,), (-1,))
        a = np.arange(12)
        np.testing.assert_array_equal(a[slc], [1, 3, 5, 7])

    def test_pinned_dim(self):
        r = ResolvedRect((3,), (0,), (1,))
        slc = lattice_slices(r, (1,), (0,))
        a = np.arange(10)
        np.testing.assert_array_equal(a[slc], [3])

    def test_slices_are_views(self):
        r = ResolvedRect((1, 1), (2, 2), (3, 3))
        a = np.zeros((10, 10))
        v = a[lattice_slices(r, (1, 1), (0, 0))]
        assert v.base is a


class TestSnapshotDecision:
    def test_safe_inplace_no_snapshot(self):
        red, _ = red_black_domains(2)
        s = Stencil(LAP, "u", red)
        ex = _StencilExec(s, {"u": (12, 12)})
        assert not ex.needs_snapshot

    def test_hazardous_inplace_snapshots(self):
        s = Stencil(LAP, "u", INTERIOR)
        ex = _StencilExec(s, {"u": (12, 12)})
        assert ex.needs_snapshot

    def test_out_of_place_no_snapshot(self):
        s = Stencil(LAP, "out", INTERIOR)
        ex = _StencilExec(s, {"u": (12, 12), "out": (12, 12)})
        assert not ex.needs_snapshot


class TestExecution:
    def test_does_not_touch_outside_domain(self, rng):
        s = Stencil(LAP, "out", RectDomain((2, 2), (5, 5)))
        u = rng.random((10, 10))
        out = np.full((10, 10), -7.0)
        s.compile(backend="numpy")(u=u, out=out)
        mask = np.full((10, 10), True)
        mask[2:5, 2:5] = False
        assert np.all(out[mask] == -7.0)

    def test_empty_domain_is_noop(self, rng):
        s = Stencil(LAP, "out", RectDomain((5, 5), (2, 2)))
        out = np.zeros((10, 10))
        s.compile(backend="numpy")(u=rng.random((10, 10)), out=out)
        assert not out.any()
