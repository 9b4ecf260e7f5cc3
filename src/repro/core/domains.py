"""Iteration domains: :class:`RectDomain` and :class:`DomainUnion`.

The organizing principle of the Snowflake language (paper SectionII) is
that a stencil is applied over an arbitrary union of strided
hyperrectangles.  Interiors, red/black colorings, and boundary faces are
all just domains — there is no special boundary machinery.

``RectDomain(start, end, stride)`` describes, per dimension, the index
set ``{start, start+stride, ...} ∩ [start, end)``.  Negative ``start`` or
``end`` values are *grid-size relative* (Python-style: ``-1`` resolves to
``size - 1``), which lets one domain object be reused across the
exponentially-varying level sizes of a multigrid hierarchy.  A stride of
``0`` pins the dimension to the single index ``start`` — the idiom for
face domains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ..util.diophantine import (
    count_lattice_points,
    first_lattice_point,
    lattice_ranges_intersect_nonempty,
)

__all__ = ["RectDomain", "DomainUnion", "ResolvedRect", "as_domain"]


@dataclass(frozen=True)
class ResolvedRect:
    """A :class:`RectDomain` bound to a concrete grid shape.

    ``lows[d] + strides[d] * k`` for ``k in [0, counts[d])`` enumerates
    dimension ``d``; a pinned dimension has ``strides[d] == 0`` and
    ``counts[d] == 1``.
    """

    lows: tuple[int, ...]
    strides: tuple[int, ...]
    counts: tuple[int, ...]

    @property
    def ndim(self) -> int:
        return len(self.lows)

    @property
    def npoints(self) -> int:
        n = 1
        for c in self.counts:
            n *= c
        return n

    def is_empty(self) -> bool:
        return any(c == 0 for c in self.counts)

    def highs(self) -> tuple[int, ...]:
        """Largest index per dimension (undefined for empty domains)."""
        return tuple(
            lo + st * (ct - 1) if ct > 0 else lo
            for lo, st, ct in zip(self.lows, self.strides, self.counts)
        )

    def contains(self, point: Sequence[int]) -> bool:
        if len(point) != self.ndim:
            raise ValueError("point dimensionality mismatch")
        for p, lo, st, ct in zip(point, self.lows, self.strides, self.counts):
            if first_lattice_point(lo, st, ct, int(p)) is None:
                return False
        return True

    def points(self) -> Iterator[tuple[int, ...]]:
        """Enumerate lattice points in row-major order."""
        axes = [
            range(lo, lo + max(st, 1) * ct, max(st, 1)) if ct > 0 else range(0)
            for lo, st, ct in zip(self.lows, self.strides, self.counts)
        ]
        return itertools.product(*axes)

    def intersects(self, other: "ResolvedRect") -> bool:
        """Exact lattice-intersection test (per-dimension Diophantine)."""
        if other.ndim != self.ndim:
            raise ValueError("dimensionality mismatch")
        if self.is_empty() or other.is_empty():
            return False
        return all(
            lattice_ranges_intersect_nonempty(
                l1, s1, c1, l2, s2, c2
            )
            for l1, s1, c1, l2, s2, c2 in zip(
                self.lows, self.strides, self.counts,
                other.lows, other.strides, other.counts,
            )
        )


def _resolve_index(v: int, size: int) -> int:
    return v if v >= 0 else size + v


class RectDomain:
    """A strided hyperrectangle ``[start : end : stride]`` per dimension."""

    __slots__ = ("start", "end", "stride")

    def __init__(
        self,
        start: Sequence[int],
        end: Sequence[int],
        stride: Sequence[int] | None = None,
    ) -> None:
        st = tuple(int(v) for v in start)
        en = tuple(int(v) for v in end)
        if stride is None:
            sd = (1,) * len(st)
        else:
            sd = tuple(int(v) for v in stride)
        if not (len(st) == len(en) == len(sd)):
            raise ValueError("start/end/stride dimensionality mismatch")
        if len(st) == 0:
            raise ValueError("domains must have at least one dimension")
        if any(s < 0 for s in sd):
            raise ValueError("strides must be non-negative (0 pins a dim)")
        object.__setattr__(self, "start", st)
        object.__setattr__(self, "end", en)
        object.__setattr__(self, "stride", sd)

    def __setattr__(self, *a):
        raise AttributeError("RectDomain is immutable")

    @property
    def ndim(self) -> int:
        return len(self.start)

    def __add__(self, other: "RectDomain | DomainUnion") -> "DomainUnion":
        """Domain union, written ``+`` as in the paper (Fig.4 line11)."""
        return DomainUnion([self]) + other

    def resolve(self, shape: Sequence[int]) -> ResolvedRect:
        """Bind to a grid shape, producing concrete lattice parameters."""
        shape = tuple(int(s) for s in shape)
        if len(shape) != self.ndim:
            raise ValueError(
                f"domain is {self.ndim}-D but shape {shape} is {len(shape)}-D"
            )
        return self.bind(shape)

    def bind(self, shape: Sequence) -> ResolvedRect:
        """:meth:`resolve` without normalizing ``shape``: its extents may
        be any integer-like values with ``+``, ``//`` and comparisons
        (the symbolic extents of :mod:`repro.analysis.structure` run
        the same arithmetic and branches)."""
        lows, strides, counts = [], [], []
        for st, en, sd, size in zip(self.start, self.end, self.stride, shape):
            lo = _resolve_index(st, size)
            hi = _resolve_index(en, size)
            if sd == 0:
                # Pinned: a single index at `lo`; must be a valid cell.
                ct = 1 if 0 <= lo < size else 0
            else:
                lo_c = lo
                hi_c = min(hi, size)
                if lo_c < 0:
                    # shift start up to the first in-bounds lattice point
                    k = (-lo_c + sd - 1) // sd
                    lo_c += k * sd
                ct = count_lattice_points(lo_c, hi_c, sd)
                lo = lo_c
            lows.append(lo)
            strides.append(sd)
            counts.append(ct)
        return ResolvedRect(tuple(lows), tuple(strides), tuple(counts))

    def signature(self) -> str:
        return f"R[{list(self.start)}:{list(self.end)}:{list(self.stride)}]"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RectDomain)
            and other.start == self.start
            and other.end == self.end
            and other.stride == self.stride
        )

    def __hash__(self) -> int:
        return hash(("RectDomain", self.start, self.end, self.stride))

    def __repr__(self) -> str:  # pragma: no cover
        return self.signature()

    # -- convenience constructors ------------------------------------------

    @staticmethod
    def interior(ndim: int, ghost: int = 1) -> "RectDomain":
        """The interior of a grid with a ``ghost``-cell halo on every side."""
        return RectDomain((ghost,) * ndim, (-ghost,) * ndim, (1,) * ndim)

    @staticmethod
    def colored(ndim: int, parity: int, ghost: int = 1) -> "DomainUnion":
        """Checkerboard color over the interior: points with
        ``sum(i) % 2 == (parity + ndim*ghost) % 2`` relative to the corner.

        Built, as in the paper, as a union of 2^(ndim-1) stride-2 boxes.
        """
        if parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        rects = []
        for offs in itertools.product((0, 1), repeat=ndim):
            if sum(offs) % 2 != parity % 2:
                continue
            start = tuple(ghost + o for o in offs)
            rects.append(
                RectDomain(start, (-ghost,) * ndim, (2,) * ndim)
            )
        return DomainUnion(rects)


class DomainUnion:
    """A finite union of :class:`RectDomain` — colorings, AMR patches."""

    __slots__ = ("rects",)

    def __init__(self, rects: Iterable[RectDomain]) -> None:
        rl = tuple(rects)
        if not rl:
            raise ValueError("DomainUnion requires at least one RectDomain")
        if any(not isinstance(r, RectDomain) for r in rl):
            raise TypeError("DomainUnion members must be RectDomain")
        nd = rl[0].ndim
        if any(r.ndim != nd for r in rl):
            raise ValueError("all union members must share dimensionality")
        object.__setattr__(self, "rects", rl)

    def __setattr__(self, *a):
        raise AttributeError("DomainUnion is immutable")

    @property
    def ndim(self) -> int:
        return self.rects[0].ndim

    def __add__(self, other: "RectDomain | DomainUnion") -> "DomainUnion":
        if isinstance(other, RectDomain):
            return DomainUnion(self.rects + (other,))
        if isinstance(other, DomainUnion):
            return DomainUnion(self.rects + other.rects)
        return NotImplemented

    def __radd__(self, other: "RectDomain") -> "DomainUnion":
        if isinstance(other, RectDomain):
            return DomainUnion((other,) + self.rects)
        return NotImplemented

    def __iter__(self) -> Iterator[RectDomain]:
        return iter(self.rects)

    def __len__(self) -> int:
        return len(self.rects)

    def resolve(self, shape: Sequence[int]) -> list[ResolvedRect]:
        return [r.resolve(shape) for r in self.rects]

    def npoints(self, shape: Sequence[int]) -> int:
        """Total points counted with multiplicity (unions are expected to
        be disjoint; :mod:`repro.analysis.colors` verifies that)."""
        return sum(r.npoints for r in self.resolve(shape))

    def points(self, shape: Sequence[int]) -> Iterator[tuple[int, ...]]:
        for rr in self.resolve(shape):
            yield from rr.points()

    def contains(self, point: Sequence[int], shape: Sequence[int]) -> bool:
        return any(rr.contains(point) for rr in self.resolve(shape))

    def signature(self) -> str:
        return "U(" + "|".join(r.signature() for r in self.rects) + ")"

    def __eq__(self, other) -> bool:
        return isinstance(other, DomainUnion) and other.rects == self.rects

    def __hash__(self) -> int:
        return hash(("DomainUnion", self.rects))

    def __repr__(self) -> str:  # pragma: no cover
        return self.signature()


def as_domain(obj: "RectDomain | DomainUnion") -> DomainUnion:
    """Normalize any domain to a union (possibly of one box)."""
    if isinstance(obj, DomainUnion):
        return obj
    if isinstance(obj, RectDomain):
        return DomainUnion([obj])
    raise TypeError(f"cannot interpret {obj!r} as a domain")
