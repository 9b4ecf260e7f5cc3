"""Dependence analysis within and across stencils (paper SectionIII).

Two questions are answered exactly, over *finite* domains:

1. **Intra-stencil** — may one stencil application be parallelized over
   its own iteration domain?  Hazardous iff some iteration writes a cell
   that a *different* iteration reads (loop-carried).  This is what makes
   naive parallel in-place GSRB over the full interior illegal, while the
   red- and black-colored sub-stencils are each provably safe.

2. **Cross-stencil** — must stencil ``j`` wait for stencil ``i`` in a
   group?  Classic RAW/WAR/WAW on footprint lattices.

Both reduce to lattice-intersection queries solved by extended-gcd
arithmetic; no enumeration of points ever happens, so a 512**3 domain
costs the same as an 8**3 one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..core.domains import ResolvedRect
from ..core.stencil import Stencil, StencilGroup
from ..core.validate import iteration_shape
from ..telemetry import tracing
from .footprint import (
    access_conflict_details,
    access_conflicts,
    map_lattice,
    stencil_accesses,
)

__all__ = [
    "Hazard",
    "intra_stencil_hazards",
    "is_parallel_safe",
    "cross_stencil_dependence",
    "group_dependences",
    "group_dependence_details",
]


@dataclass(frozen=True)
class Hazard:
    """A loop-carried conflict inside one stencil application."""

    grid: str
    kind: str  # "RAW/WAR" (read lattice meets write lattice) or "WAW"
    write_rect: int  # index of writing domain box
    other_rect: int  # index of the conflicting domain box
    detail: str

    def __str__(self) -> str:  # pragma: no cover - message formatting
        return f"{self.kind} hazard on {self.grid!r}: {self.detail}"


def _maps_equal(
    scale_a: Sequence[int], off_a: Sequence[int],
    scale_b: Sequence[int], off_b: Sequence[int],
) -> bool:
    return tuple(scale_a) == tuple(scale_b) and tuple(off_a) == tuple(off_b)


def intra_stencil_hazards(
    stencil: Stencil, shapes: Mapping[str, Sequence[int]]
) -> list[Hazard]:
    """Loop-carried hazards of applying ``stencil`` fully in parallel.

    A write by iteration ``p1`` conflicting with a read by iteration
    ``p2 != p1`` is a hazard.  When the read's affine map equals the
    write's map *and* both iterations range over the same domain box, the
    only solutions of ``map(p1) == map(p2)`` are the diagonal ``p1 == p2``
    (affine maps with positive scales are injective), which is harmless —
    an iteration may read its own cell.  Distinct boxes of a
    :class:`DomainUnion` never share iteration points if they intersect
    only off-diagonally; any lattice intersection there is reported.

    This rule is exact for identity write maps (all smoothers, boundary
    stencils) and errs conservative for exotic scaled self-references.
    """
    return hazards_of(
        stencil, stencil.domain.resolve(iteration_shape(stencil, shapes))
    )


def hazards_of(
    stencil: Stencil,
    resolved: Sequence[ResolvedRect],
    meets: Callable[[ResolvedRect, ResolvedRect], bool] = ResolvedRect.intersects,
) -> list[Hazard]:
    """:func:`intra_stencil_hazards` over the stencil's resolved domain
    boxes ``resolved`` (empty boxes are skipped, as there); ``meets`` is
    the lattice-intersection test."""
    rects = [r for r in resolved if not r.is_empty()]
    om = stencil.output_map
    hazards: list[Hazard] = []

    write_lattices = [map_lattice(r, om.scale, om.offset) for r in rects]

    # write vs read of the same grid
    for read in stencil.flat.reads():
        if read.grid != stencil.output:
            continue
        same_map = _maps_equal(om.scale, om.offset, read.scale, read.offset)
        for wi, (wrect, wlat) in enumerate(zip(rects, write_lattices)):
            for ri, rrect in enumerate(rects):
                if wi == ri and same_map:
                    continue  # diagonal-only: safe self-read
                rlat = map_lattice(rrect, read.scale, read.offset)
                if not meets(wlat, rlat):
                    continue
                if same_map and not meets(wrect, rrect):
                    # p1 in box wi, p2 in box ri with map(p1)==map(p2)
                    # forces p1==p2 (injective), impossible across
                    # disjoint boxes.
                    continue
                hazards.append(
                    Hazard(
                        stencil.output,
                        "RAW/WAR",
                        wi,
                        ri,
                        f"write lattice of box {wi} meets read "
                        f"{read.signature()} over box {ri}",
                    )
                )
    # write vs write (overlapping union boxes writing the same cells)
    for wi in range(len(rects)):
        for wj in range(wi + 1, len(rects)):
            if meets(write_lattices[wi], write_lattices[wj]):
                hazards.append(
                    Hazard(
                        stencil.output,
                        "WAW",
                        wi,
                        wj,
                        f"domain boxes {wi} and {wj} write overlapping cells",
                    )
                )
    return hazards


def is_parallel_safe(
    stencil: Stencil, shapes: Mapping[str, Sequence[int]]
) -> bool:
    """True when the stencil may be applied in parallel over its domain."""
    return not intra_stencil_hazards(stencil, shapes)


def cross_stencil_dependence(
    first: Stencil,
    second: Stencil,
    shapes: Mapping[str, Sequence[int]],
) -> set[str]:
    """Dependence kinds requiring ``second`` to wait for ``first``."""
    return access_conflicts(
        stencil_accesses(first, shapes), stencil_accesses(second, shapes)
    )


def group_dependences(
    group: StencilGroup, shapes: Mapping[str, Sequence[int]]
) -> dict[tuple[int, int], set[str]]:
    """All pairwise dependences ``(i, j) -> kinds`` for ``i < j``.

    Footprints are computed once per stencil; the pairwise tests are pure
    lattice arithmetic.
    """
    acc = [stencil_accesses(s, shapes) for s in group]
    out: dict[tuple[int, int], set[str]] = {}
    with tracing.span(
        "dependences", cat="analysis", group=group.name, stencils=len(group)
    ):
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                kinds = access_conflicts(acc[i], acc[j])
                if kinds:
                    out[(i, j)] = kinds
    return out


def group_dependence_details(
    group: StencilGroup, shapes: Mapping[str, Sequence[int]]
) -> dict[tuple[int, int], dict[str, frozenset[str]]]:
    """Pairwise dependences with the grids that carry each kind.

    Same edges as :func:`group_dependences`, but each ``(i, j)`` maps to
    ``{kind: grids}`` — the provenance an :class:`ExecutionPlan` records
    so barrier placement stays explainable after the fact.
    """
    acc = [stencil_accesses(s, shapes) for s in group]
    out: dict[tuple[int, int], dict[str, frozenset[str]]] = {}
    with tracing.span(
        "dependence-details", cat="analysis", group=group.name,
        stencils=len(group),
    ):
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                details = access_conflict_details(acc[i], acc[j])
                if details:
                    out[(i, j)] = details
    return out
