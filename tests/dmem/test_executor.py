"""Distributed execution equals single-node execution, exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _helpers import owner_of

from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import OutputMap, Stencil, StencilGroup
from repro.core.weights import SparseArray, WeightArray
from repro.dmem import BlockDecomposition, DistributedKernel
from repro.hpgmg.operators import (
    boundary_stencils,
    restriction_stencil,
    smooth_group,
    vc_laplacian,
)

INTERIOR = RectDomain((1, 1), (-1, -1))
LAP = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))


class TestBlockDecomposition:
    def test_even_split(self):
        d = BlockDecomposition(16, 4, halo=1)
        assert [(s.own_lo, s.own_hi) for s in d.slabs] == [
            (0, 4), (4, 8), (8, 12), (12, 16)
        ]

    def test_uneven_split_front_loads(self):
        d = BlockDecomposition(10, 3, halo=0)
        assert [(s.own_lo, s.own_hi) for s in d.slabs] == [
            (0, 4), (4, 7), (7, 10)
        ]

    def test_halo_clipped_at_ends(self):
        d = BlockDecomposition(16, 4, halo=2)
        assert d.slabs[0].base == 0
        assert d.slabs[0].stop == 6
        assert d.slabs[1].base == 2
        assert d.slabs[-1].stop == 16

    def test_owner_of(self):
        d = BlockDecomposition(8, 2, halo=1)
        assert owner_of(d, 0) == 0
        assert owner_of(d, 7) == 1
        with pytest.raises(IndexError):
            owner_of(d, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockDecomposition(2, 4, halo=0)
        with pytest.raises(ValueError):
            BlockDecomposition(8, 0, halo=0)
        with pytest.raises(ValueError):
            BlockDecomposition(8, 2, halo=-1)


def run_both(group, shape, nranks, rng, backend="c"):
    base = {g: rng.random(shape) for g in group.grids()}
    ref = {k: v.copy() for k, v in base.items()}
    group.compile(backend=backend)(**ref)
    got = {k: v.copy() for k, v in base.items()}
    dk = DistributedKernel(group, shape, nranks, backend=backend)
    dk(**got)
    return ref, got, dk


class TestDistributedEqualsLocal:
    @pytest.mark.parametrize("nranks", [1, 2, 3, 5])
    def test_laplacian(self, nranks, rng):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        ref, got, _ = run_both(g, (20, 20), nranks, rng)
        np.testing.assert_allclose(got["out"], ref["out"], atol=1e-14)

    @pytest.mark.parametrize("nranks", [2, 4])
    def test_gsrb_smoother_with_boundaries(self, nranks, rng):
        group = smooth_group(2, vc_laplacian(2, 1 / 30), lam="lam")
        shape = (32, 32)
        base = {g: rng.random(shape) for g in group.grids()}
        base["lam"] = 0.01 + 0.001 * rng.random(shape)
        ref = {k: v.copy() for k, v in base.items()}
        group.compile(backend="c")(**ref)
        got = {k: v.copy() for k, v in base.items()}
        DistributedKernel(group, shape, nranks, backend="c")(**got)
        np.testing.assert_allclose(got["x"], ref["x"], atol=1e-13)

    def test_3d(self, rng):
        from repro.hpgmg.operators import cc_laplacian, interior

        s = Stencil(cc_laplacian(3, 0.1, grid="u"), "out", interior(3))
        g = StencilGroup([s])
        ref, got, _ = run_both(g, (12, 12, 12), 3, rng)
        np.testing.assert_allclose(got["out"], ref["out"], rtol=1e-13)

    def test_sequential_chain_across_stencils(self, rng):
        # second stencil reads what the first wrote across rank borders
        s1 = Stencil(LAP, "a", INTERIOR, name="s1")
        s2 = Stencil(Component("a", WeightArray([[0, 1, 0], [1, 0, 1], [0, 1, 0]])),
                     "b", RectDomain((2, 2), (-2, -2)), name="s2")
        g = StencilGroup([s1, s2])
        ref, got, dk = run_both(g, (24, 24), 4, rng)
        np.testing.assert_allclose(got["b"], ref["b"], atol=1e-14)
        assert dk.comm_stats.messages > 0  # the exchange actually happened

    def test_wide_offset_needs_wide_halo(self, rng):
        body = Component("u", SparseArray({(0, 0): 1.0, (-2, 0): 0.5, (2, 1): 0.25}))
        s = Stencil(body, "out", RectDomain((2, 2), (-2, -2)))
        g = StencilGroup([s])
        dk_probe = DistributedKernel(g, (24, 24), 2)
        assert dk_probe.halo == (2,)
        ref, got, _ = run_both(g, (24, 24), 3, rng)
        np.testing.assert_allclose(got["out"], ref["out"], atol=1e-14)

    def test_inplace_hazard_distributed(self, rng):
        # gather-semantics snapshot happens per rank; halo rows carry the
        # pre-stencil neighbour values, so results match single node.
        blur = Component("u", WeightArray([[0, 0.25, 0], [0.25, 0, 0.25],
                                           [0, 0.25, 0]]))
        s = Stencil(blur, "u", INTERIOR)
        g = StencilGroup([s])
        ref, got, _ = run_both(g, (16, 16), 2, rng)
        np.testing.assert_allclose(got["u"], ref["u"], atol=1e-14)

    @settings(max_examples=10, deadline=None)
    @given(nranks=st.integers(1, 4), seed=st.integers(0, 99))
    def test_property_random_ranks(self, nranks, seed):
        rng = np.random.default_rng(seed)
        g = StencilGroup(boundary_stencils(2, "u") + [
            Stencil(LAP, "u" if seed % 2 else "out", INTERIOR)
        ])
        ref, got, _ = run_both(g, (16, 16), nranks, rng)
        for k in ref:
            np.testing.assert_allclose(got[k], ref[k], atol=1e-13)


class TestRestrictionsAndErrors:
    def test_scaled_output_map_rejected(self):
        s = Stencil(
            Component("c", WeightArray([[1]])), "f", INTERIOR,
            output_map=OutputMap((2, 2), (0, 0)),
        )
        with pytest.raises(ValueError, match="output maps"):
            DistributedKernel(StencilGroup([s]), (16, 16), 2)

    def test_scaled_dim0_read_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            DistributedKernel(
                StencilGroup([restriction_stencil(2)]), (16, 16), 2
            )

    def test_too_many_ranks_for_halo(self):
        wide = Component("u", SparseArray({(0, 0): 1.0, (2, 0): 1.0, (-2, 0): 1.0}))
        g = StencilGroup([Stencil(wide, "out", RectDomain((2, 2), (-2, -2)))])
        with pytest.raises(ValueError, match="fewer"):
            DistributedKernel(g, (8, 8), 8)  # 1 row each < halo 2

    def test_missing_grid_at_call(self, rng):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        dk = DistributedKernel(g, (16, 16), 2)
        with pytest.raises(TypeError, match="missing"):
            dk(u=rng.random((16, 16)))

    def test_wrong_shape_at_call(self, rng):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        dk = DistributedKernel(g, (16, 16), 2)
        with pytest.raises(ValueError, match="shape"):
            dk(u=rng.random((8, 8)), out=np.zeros((8, 8)))


@pytest.mark.parametrize("ranks", [3, (3,), (2, 2)])
class TestOneContract:
    """Slabs and rank grids are one class: they refuse the same inputs
    with the same words and keep the same memory discipline."""

    def dk(self, ranks):
        g = StencilGroup([Stencil(LAP, "u", INTERIOR)])
        return DistributedKernel(g, (12, 12), ranks, backend="numpy")

    def test_wrong_shape_refused(self, ranks, rng):
        with pytest.raises(ValueError, match=(
            r"grid 'u' has shape \(16, 16\), kernel built for \(12, 12\)"
        )):
            self.dk(ranks)(u=rng.random((16, 16)))

    def test_wrong_dtype_refused(self, ranks, rng):
        u = rng.random((12, 12)).astype(np.float32)
        with pytest.raises(
            TypeError, match="kernel compiled for dtype float64, got float32"
        ):
            self.dk(ranks)(u=u)

    def test_missing_grid_refused(self, ranks):
        with pytest.raises(TypeError, match=r"missing grids: \['u'\]"):
            self.dk(ranks)()

    def test_rank_blocks_never_share_memory(self, ranks, rng):
        # distributed memory means no aliasing: not with the caller's
        # array, and not between ranks whose blocks overlap in the halo
        u = rng.random((12, 12))
        dk = self.dk(ranks)
        dk.scatter(u=u)
        blocks = [loc["u"] for loc in dk._locals]
        for i, b in enumerate(blocks):
            assert not np.shares_memory(b, u)
            assert not any(np.shares_memory(b, o) for o in blocks[:i])

    def test_gather_writes_owned_cells_only(self, ranks, rng):
        u = rng.random((12, 12))
        want = u + 100.0
        dk = self.dk(ranks)
        dk.scatter(u=u)
        for slabs, loc in zip(dk.slabs, dk._locals):
            owned = tuple(
                slice(s.local_own_lo, s.local_own_hi) for s in slabs
            )
            keep = loc["u"][owned] + 100.0
            loc["u"][...] = -999.0  # poison every halo cell...
            loc["u"][owned] = keep
        dk.gather(u=u)
        np.testing.assert_array_equal(u, want)  # ...none leaks out


class TestCommVolume:
    def test_messages_scale_with_ranks_and_stencils(self, rng):
        group = smooth_group(2, vc_laplacian(2, 1 / 30), lam="lam")
        shape = (32, 32)
        arrays = {g: rng.random(shape) for g in group.grids()}
        arrays["lam"] = 0.01 * np.ones(shape)
        counts = {}
        for nranks in (2, 4):
            dk = DistributedKernel(group, shape, nranks)
            dk(**{k: v.copy() for k, v in arrays.items()})
            counts[nranks] = dk.comm_stats.messages
        # messages grow linearly in the number of rank interfaces
        assert counts[4] == 3 * counts[2]


class TestPersistentMode:
    def test_scatter_run_gather_equals_repeated_calls(self, rng):
        group = smooth_group(2, vc_laplacian(2, 1 / 30), lam="lam")
        shape = (32, 32)
        base = {g: rng.random(shape) for g in group.grids()}
        base["lam"] = 0.01 * np.ones(shape)

        # reference: 3 sequential single-node applications
        ref = {k: v.copy() for k, v in base.items()}
        kernel = group.compile(backend="c")
        for _ in range(3):
            kernel(**ref)

        dk = DistributedKernel(group, shape, 3, backend="c")
        got = {k: v.copy() for k, v in base.items()}
        dk.scatter(**got)
        dk.run(times=3)
        dk.gather(**got)
        np.testing.assert_allclose(got["x"], ref["x"], atol=1e-13)

    def test_rank_grid_scatter_run_gather(self, rng):
        g = StencilGroup([Stencil(LAP, "u", INTERIOR)])
        u0 = rng.random((16, 16))
        ref = u0.copy()
        kernel = g.compile(backend="numpy")
        for _ in range(3):
            kernel(u=ref)
        dk = DistributedKernel(g, (16, 16), (2, 2), backend="numpy")
        got = u0.copy()
        dk.scatter(u=got)
        dk.run(times=3)
        dk.gather(u=got)
        np.testing.assert_array_equal(got, ref)

    def test_run_before_scatter_rejected(self):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        dk = DistributedKernel(g, (16, 16), 2)
        with pytest.raises(RuntimeError, match="scatter"):
            dk.run()
        with pytest.raises(RuntimeError, match="scatter"):
            dk.gather(out=np.zeros((16, 16)))

    def test_gather_requires_output_grids(self, rng):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        dk = DistributedKernel(g, (16, 16), 2)
        dk.scatter(u=rng.random((16, 16)), out=np.zeros((16, 16)))
        dk.run()
        with pytest.raises(TypeError, match="output grid"):
            dk.gather(u=np.zeros((16, 16)))

    def test_persistent_avoids_rescatter_traffic(self, rng):
        # run(times=3) exchanges halos 3x but never re-scatters; the
        # message count should be exactly 3x the single-run count.
        group = smooth_group(2, vc_laplacian(2, 1 / 30), lam="lam")
        shape = (32, 32)
        arrays = {g: rng.random(shape) for g in group.grids()}
        arrays["lam"] = 0.01 * np.ones(shape)
        dk = DistributedKernel(group, shape, 2, backend="c")
        dk.scatter(**arrays)
        dk.run()
        one = dk.comm_stats.messages
        dk.run(times=3)
        assert dk.comm_stats.messages == 4 * one
