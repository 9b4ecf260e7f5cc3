"""Rank-grid (Cartesian) decomposition equals single-node execution."""

import numpy as np
import pytest

from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import OutputMap, Stencil, StencilGroup
from repro.core.weights import SparseArray, WeightArray
from repro.dmem import DistributedKernel
from repro.hpgmg.highorder import (
    compact_diagonal,
    compact_laplacian,
    multicolor_smooth_group,
)
from repro.hpgmg.operators import (
    boundary_stencils_full,
    smooth_group,
    vc_laplacian,
)

INTERIOR = RectDomain((1, 1), (-1, -1))
LAP = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))


def run_both(group, shape, grid, rng, backend="c"):
    base = {g: rng.random(shape) for g in group.grids()}
    ref = {k: v.copy() for k, v in base.items()}
    group.compile(backend=backend)(**ref)
    got = {k: v.copy() for k, v in base.items()}
    dk = DistributedKernel(group, shape, grid, backend=backend)
    dk(**got)
    return ref, got, dk


class TestEqualsLocal:
    @pytest.mark.parametrize("grid", [(1, 1), (2, 2), (2, 3), (3, 2)])
    def test_laplacian(self, grid, rng):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        ref, got, _ = run_both(g, (20, 20), grid, rng)
        np.testing.assert_allclose(got["out"], ref["out"], atol=1e-14)

    @pytest.mark.parametrize("grid", [(2, 2), (4, 2)])
    def test_gsrb_smoother(self, grid, rng):
        group = smooth_group(2, vc_laplacian(2, 1 / 30), lam="lam")
        shape = (32, 32)
        base = {g: rng.random(shape) for g in group.grids()}
        base["lam"] = 0.01 * np.ones(shape)
        ref = {k: v.copy() for k, v in base.items()}
        group.compile(backend="c")(**ref)
        got = {k: v.copy() for k, v in base.items()}
        DistributedKernel(group, shape, grid, backend="c")(**got)
        np.testing.assert_allclose(got["x"], ref["x"], atol=1e-13)

    def test_corner_ghosts_via_two_phase_exchange(self, rng):
        # the compact 9-point operator reads diagonal neighbours: rank
        # corners must carry remote data, which arrives transitively
        # from the dim-1-then-dim-0 exchange order.
        h = 1 / 30
        mc = StencilGroup(
            boundary_stencils_full(2, "x")
            + list(
                multicolor_smooth_group(
                    2, compact_laplacian(2, h),
                    lam=1 / compact_diagonal(2, h), with_boundaries=False,
                )
            )
        )
        ref, got, dk = run_both(mc, (32, 32), (2, 2), rng)
        np.testing.assert_allclose(got["x"], ref["x"], atol=1e-12)
        assert dk.halo == (1, 1)

    def _cc3d(self, grid, rng):
        from repro.hpgmg.operators import cc_laplacian, interior

        s = Stencil(cc_laplacian(3, 0.1, grid="u"), "out", interior(3))
        g = StencilGroup([s])
        ref, got, dk = run_both(g, (12, 12, 12), grid, rng)
        np.testing.assert_allclose(got["out"], ref["out"], rtol=1e-13)
        return dk

    def test_3d_grid_decomposed_on_two_leading_dims(self, rng):
        assert self._cc3d((2, 2), rng).halo == (1, 1)

    def test_3d_grid_decomposed_on_all_three_dims(self, rng):
        assert self._cc3d((2, 2, 2), rng).halo == (1, 1, 1)

    def test_uneven_rank_grid(self, rng):
        g = StencilGroup([Stencil(LAP, "u", INTERIOR)])  # in-place hazard
        ref, got, _ = run_both(g, (22, 26), (3, 2), rng)
        np.testing.assert_allclose(got["u"], ref["u"], atol=1e-14)


class TestValidation:
    def test_needs_two_dims(self):
        s = Stencil(Component("u", WeightArray([1.0, 0, 1.0])), "out",
                    RectDomain((1,), (-1,)))
        with pytest.raises(ValueError, match="2 dims"):
            DistributedKernel(StencilGroup([s]), (16,), (2, 1))

    def test_scaled_output_rejected(self):
        s = Stencil(
            Component("c", WeightArray([[1]])), "f", INTERIOR,
            output_map=OutputMap((2, 2), (0, 0)),
        )
        with pytest.raises(ValueError, match="output maps"):
            DistributedKernel(StencilGroup([s]), (16, 16), (2, 2))

    def test_thin_slabs_rejected(self):
        wide = Component("u", SparseArray({(0, 0): 1.0, (0, 3): 1.0}))
        s = Stencil(wide, "out", RectDomain((3, 3), (-3, -3)))
        with pytest.raises(ValueError, match="fewer"):
            DistributedKernel(StencilGroup([s]), (12, 12), (1, 6))

    def test_missing_grid_at_call(self, rng):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        dk = DistributedKernel(g, (16, 16), (2, 2))
        with pytest.raises(TypeError, match="missing"):
            dk(u=rng.random((16, 16)))


class TestCommVolume:
    def test_message_count_scales_with_interfaces(self, rng):
        g = StencilGroup([Stencil(LAP, "u", INTERIOR)])
        counts = {}
        for grid in ((2, 1), (2, 2)):
            base = {"u": rng.random((24, 24))}
            dk = DistributedKernel(g, (24, 24), grid)
            dk(**base)
            counts[grid] = dk.comm_stats.messages
        # (2,1): one dim-0 interface -> 2 messages per exchanged grid;
        # (2,2): dim-0 and dim-1 interfaces -> 4x as many directed sends
        assert counts[(2, 2)] == 4 * counts[(2, 1)]
