"""Block decomposition of one grid axis: the per-axis slab table.

Along the axis each rank owns a contiguous slab of rows plus a ``halo``
of ghost rows each side (clipped at the global array ends — the
*physical* boundary ghosts belong to the edge ranks and are updated by
the user's boundary stencils, not by exchange).
:class:`~repro.dmem.executor.DistributedKernel` composes one table per
decomposed dimension into its Cartesian rank grid.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BlockDecomposition"]


@dataclass(frozen=True)
class RankSlab:
    """One rank's slice of the axis's global index space."""

    rank: int
    own_lo: int          # first owned global row
    own_hi: int          # one past last owned global row
    base: int            # first *stored* global row (own_lo - halo, clipped)
    stop: int            # one past last stored global row

    @property
    def local_own_lo(self) -> int:
        return self.own_lo - self.base

    @property
    def local_own_hi(self) -> int:
        return self.own_hi - self.base

    @property
    def rows(self) -> int:
        return self.stop - self.base

    def to_local(self, global_row: int) -> int:
        return global_row - self.base


class BlockDecomposition:
    """Split one axis of ``n_rows`` across ``size`` ranks with a ``halo`` overlap."""

    def __init__(self, n_rows: int, size: int, halo: int) -> None:
        if size < 1:
            raise ValueError("need at least one rank")
        if halo < 0:
            raise ValueError("halo must be non-negative")
        if n_rows < size:
            raise ValueError(
                f"cannot split {n_rows} rows across {size} ranks"
            )
        self.n_rows = int(n_rows)
        self.size = int(size)
        self.halo = int(halo)
        self.slabs: list[RankSlab] = []
        base_rows = n_rows // size
        extra = n_rows % size
        lo = 0
        for r in range(size):
            rows = base_rows + (1 if r < extra else 0)
            hi = lo + rows
            self.slabs.append(
                RankSlab(
                    rank=r,
                    own_lo=lo,
                    own_hi=hi,
                    base=max(lo - halo, 0),
                    stop=min(hi + halo, n_rows),
                )
            )
            lo = hi

    def owner_of(self, global_row: int) -> int:
        for s in self.slabs:
            if s.own_lo <= global_row < s.own_hi:
                return s.rank
        raise IndexError(global_row)
