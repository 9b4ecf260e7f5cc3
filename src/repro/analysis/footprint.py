"""Access footprints: which grid cells does a stencil touch?

The crucial closure property: applying an affine access map
``idx = scale * i + offset`` to a strided box of iteration points yields
*another* strided box of grid indices — so footprints of Snowflake
stencils are exactly representable as :class:`ResolvedRect` lattices, and
footprint-intersection questions stay in the linear Diophantine fragment
solved by :mod:`repro.util.diophantine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..core.domains import ResolvedRect
from ..core.stencil import Stencil
from ..core.validate import iteration_shape

__all__ = [
    "Access",
    "stencil_accesses",
    "StencilAccesses",
    "access_conflicts",
    "access_conflict_details",
]


@dataclass(frozen=True)
class Access:
    """One lattice of touched cells on one grid."""

    grid: str
    lattice: ResolvedRect
    is_write: bool

    def intersects(self, other: "Access") -> bool:
        if self.grid != other.grid:
            return False
        return self.lattice.intersects(other.lattice)


def map_lattice(
    rect: ResolvedRect, scale: Sequence[int], offset: Sequence[int]
) -> ResolvedRect:
    """Image of iteration lattice ``rect`` under ``scale*i + offset``.

    ``{s*(lo + st*k) + o} = {(s*lo + o) + (s*st)*k}`` — still a lattice.
    """
    lows = tuple(s * lo + o for s, lo, o in zip(scale, rect.lows, offset))
    strides = tuple(s * st for s, st in zip(scale, rect.strides))
    return ResolvedRect(lows, strides, rect.counts)


@dataclass(frozen=True)
class StencilAccesses:
    """All footprints of one stencil resolved against concrete shapes."""

    writes: tuple[Access, ...]
    reads: tuple[Access, ...]

    def all(self) -> tuple[Access, ...]:
        return self.writes + self.reads

    def grids_read(self) -> set[str]:
        return {a.grid for a in self.reads}


def stencil_accesses(
    stencil: Stencil, shapes: Mapping[str, Sequence[int]]
) -> StencilAccesses:
    """Resolve every read/write of ``stencil`` into concrete lattices."""
    return accesses_of(
        stencil, stencil.domain.resolve(iteration_shape(stencil, shapes))
    )


def accesses_of(
    stencil: Stencil, rects: Sequence[ResolvedRect]
) -> StencilAccesses:
    """:func:`stencil_accesses` over the stencil's resolved domain
    ``rects`` (empty boxes are skipped)."""
    writes: list[Access] = []
    reads: list[Access] = []
    om = stencil.output_map
    distinct_reads = stencil.flat.reads()
    for rect in rects:
        if rect.is_empty():
            continue
        writes.append(
            Access(stencil.output, map_lattice(rect, om.scale, om.offset), True)
        )
        for read in distinct_reads:
            reads.append(
                Access(read.grid, map_lattice(rect, read.scale, read.offset), False)
            )
    return StencilAccesses(tuple(writes), tuple(reads))


def access_conflict_details(
    a: StencilAccesses,
    b: StencilAccesses,
    meets: Callable[[Access, Access], bool] = Access.intersects,
) -> dict[str, frozenset[str]]:
    """Dependence kinds *and the grids carrying them* between two stencils.

    Returns ``{kind: grids}`` with kind in ``{"RAW", "WAR", "WAW"}``
    where *a* is the earlier stencil: RAW = b reads what a wrote, WAR =
    b overwrites what a read, WAW = both write the same cell.  Unlike
    :func:`access_conflicts` this scans every access pair — the grid
    sets are complete, which is what provenance reports
    (:mod:`repro.explain`, ``ExecutionPlan.describe``) need to name
    *every* grid that forced a barrier.  ``meets`` is the intersection
    test, called once per access pair.
    """
    kinds: dict[str, set[str]] = {}
    for w in a.writes:
        for r in b.reads:
            if meets(w, r):
                kinds.setdefault("RAW", set()).add(w.grid)
    for r in a.reads:
        for w in b.writes:
            if meets(r, w):
                kinds.setdefault("WAR", set()).add(w.grid)
    for w1 in a.writes:
        for w2 in b.writes:
            if meets(w1, w2):
                kinds.setdefault("WAW", set()).add(w1.grid)
    return {k: frozenset(v) for k, v in kinds.items()}


def access_conflicts(a: StencilAccesses, b: StencilAccesses) -> set[str]:
    """Dependence kinds forcing an ordering between two stencils.

    Returns a subset of ``{"RAW", "WAR", "WAW"}`` where *a* is the earlier
    stencil: RAW = b reads what a wrote, WAR = b overwrites what a read,
    WAW = both write the same cell.
    """
    kinds: set[str] = set()
    for w in a.writes:
        for r in b.reads:
            if w.intersects(r):
                kinds.add("RAW")
                break
        if "RAW" in kinds:
            break
    for r in a.reads:
        for w in b.writes:
            if r.intersects(w):
                kinds.add("WAR")
                break
        if "WAR" in kinds:
            break
    for w1 in a.writes:
        for w2 in b.writes:
            if w1.intersects(w2):
                kinds.add("WAW")
                break
        if "WAW" in kinds:
            break
    return kinds
