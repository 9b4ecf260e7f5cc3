"""Block decomposition edge cases: halo clipping, tiny slabs, ownership."""

import pytest

from repro.dmem.decompose import BlockDecomposition


class TestPartition:
    def test_ownership_is_an_exact_partition(self):
        d = BlockDecomposition(17, 4, halo=1)
        covered = []
        for s in d.slabs:
            covered.extend(range(s.own_lo, s.own_hi))
        assert covered == list(range(17))

    def test_uneven_split_front_loads_extra_rows(self):
        d = BlockDecomposition(10, 3, halo=0)
        assert [s.own_hi - s.own_lo for s in d.slabs] == [4, 3, 3]

    def test_too_many_ranks_rejected(self):
        with pytest.raises(ValueError):
            BlockDecomposition(3, 4, halo=0)

    def test_negative_halo_rejected(self):
        with pytest.raises(ValueError):
            BlockDecomposition(8, 2, halo=-1)


class TestHaloClipping:
    def test_halo_wider_than_smallest_slab_still_clips_to_bounds(self):
        # rank slabs own 4/3/3 rows; a halo of 5 exceeds every slab.
        # The stored window must clip to the global array, never
        # extend past it.
        d = BlockDecomposition(10, 3, halo=5)
        for s in d.slabs:
            assert s.base == max(s.own_lo - 5, 0)
            assert s.stop == min(s.own_hi + 5, 10)
            assert 0 <= s.base <= s.own_lo
            assert s.own_hi <= s.stop <= 10

    def test_edge_ranks_have_one_sided_halo(self):
        d = BlockDecomposition(12, 3, halo=2)
        first, last = d.slabs[0], d.slabs[-1]
        assert first.base == 0  # no ghost rows before the array start
        assert last.stop == 12  # none past the end
        mid = d.slabs[1]
        assert mid.base == mid.own_lo - 2
        assert mid.stop == mid.own_hi + 2

    def test_local_coordinates_consistent(self):
        d = BlockDecomposition(20, 4, halo=3)
        for s in d.slabs:
            assert s.local_own_lo == s.own_lo - s.base
            assert s.local_own_hi - s.local_own_lo == s.own_hi - s.own_lo
            assert s.rows == s.stop - s.base
            assert s.to_local(s.own_lo) == s.local_own_lo


class TestSingleRank:
    def test_single_rank_owns_everything(self):
        d = BlockDecomposition(9, 1, halo=2)
        (s,) = d.slabs
        assert (s.own_lo, s.own_hi) == (0, 9)
        assert (s.base, s.stop) == (0, 9)  # halo fully clipped away


class TestOwnerOf:
    def test_boundary_rows(self):
        d = BlockDecomposition(10, 3, halo=1)  # owns [0,4), [4,7), [7,10)
        assert d.owner_of(0) == 0
        assert d.owner_of(3) == 0
        assert d.owner_of(4) == 1  # first row of the next slab
        assert d.owner_of(6) == 1
        assert d.owner_of(7) == 2
        assert d.owner_of(9) == 2

    def test_out_of_range_raises(self):
        d = BlockDecomposition(10, 3, halo=1)
        with pytest.raises(IndexError):
            d.owner_of(10)
        with pytest.raises(IndexError):
            d.owner_of(-1)

    def test_every_row_has_exactly_one_owner(self):
        d = BlockDecomposition(23, 5, halo=2)
        owners = [d.owner_of(i) for i in range(23)]
        assert owners == sorted(owners)
        assert set(owners) == set(range(5))
