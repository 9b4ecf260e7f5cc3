"""Structure keys: the extent above which a group's verdicts stop changing.

The dependence analysis (paper SectionIII) answers lattice questions over
*finite* boxes, so each verdict is taken at one extent.  Past the extent
where every box is longer than the access spans it meets, the verdicts
stop changing.  This module computes that threshold n0 per group and
shape family, and keys on the family above it, so a multigrid hierarchy
pays for one analysis per operator instead of one per level.

**Shape family.**  A unit's shapes are read as members of a family in
one integer ``m``, the smallest extent: every extent is ``a*m + b`` with
``a = round(e/m)``.  The levels of a hierarchy share a family.  A
smoother's grids are all ``m``, and a restriction's fine grid is
``2m - 2`` over a coarse ``m``.

**Residue class.**  Let ``M`` be the least common multiple of every
lattice stride (access scale times domain stride), times that of the
scales a scaled write without an iteration grid divides by.  Write
``m = r + M*t``.  Every quantity the analysis computes is then an exact
affine function of ``t`` (a :class:`Lin`): iteration extents, box lows
and counts, footprint ends, Diophantine witnesses and interval ends.
Every low moves by a multiple of every lattice stride as ``t`` grows,
so no congruence depends on ``t``.

**Threshold.**  The analysis runs once on those affine values, through
the same functions the per-extent analysis calls.  Each comparison it
makes resolves to its truth for large ``t`` and records the first ``t``
from which that truth holds.  A box intersection is a conjunction over
dimensions and a dependence kind a disjunction over access pairs, so
their thresholds combine as the earliest settling of a deciding part,
not the latest comparison made.  Past the resulting ``t0`` every
decision the verdict rests on has its large-``t`` value, so the
analysis at any such ``t`` returns the same dependences, hazards and
bounds verdict, and ``n0 = r + M*t0``.  A step outside the affine fragment (a product of two
extents, a division that does not divide the slope) raises
:class:`Unbounded`, and the group stays per extent.  The key is
``(signature, family, r)``; the per-extent analysis still runs below
``n0``.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..core.stencil import StencilGroup
from ..core.validate import (
    ValidationError,
    check_footprints,
    check_group,
    iteration_extents,
)
from ..core.domains import ResolvedRect
from ..util.diophantine import T_UNBOUNDED, lattice_ranges_intersect_nonempty
from .dependence import Hazard, hazards_of
from .footprint import (
    Access,
    StencilAccesses,
    access_conflict_details,
    accesses_of,
)

__all__ = [
    "Unbounded", "Lin", "Verdict", "verdict", "check_once", "first_meeting",
]


class Unbounded(Exception):
    """A quantity left the affine fragment: the group has no threshold."""


_OPS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
}
_MIRROR = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "==": "==", "!=": "!="}
_LOCAL = threading.local()


def _settle(a: int, b: int, op: str) -> bool:
    """The truth of ``a*t + b <op> 0`` for large ``t`` (``a != 0``),
    recording on the active run the first ``t`` from which it holds."""
    if a < 0:
        a, b, op = -a, -b, _MIRROR[op]
    if op in ("==", "!="):  # false past the root, if there is one
        t0 = -b // a + 1 if b % a == 0 else 0
    elif op in (">", "<="):  # settled once a*t + b > 0
        t0 = -b // a + 1
    else:  # settled once a*t + b >= 0
        t0 = -(b // a)
    run = _LOCAL.run
    run.t0 = max(run.t0, t0)
    return op in (">", ">=", "!=")


def _lin(a: int, b: int):
    return Lin(a, b) if a else b


def _parts(x) -> tuple[int, int]:
    if type(x) is Lin:
        return x.a, x.b
    if isinstance(x, int):
        return 0, x
    raise Unbounded(f"{type(x).__name__} operand")


class Lin:
    """``a*t + b`` with ``a != 0``: an extent-derived integer along the
    residue class of a symbolic run (constants stay plain ints).

    Arithmetic stays affine or raises :class:`Unbounded`; a comparison
    returns its truth for large ``t`` and records where that begins.
    Only meaningful inside :func:`verdict`'s run.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b

    def __add__(self, o):
        if type(o) is int:
            return Lin(self.a, self.b + o)
        oa, ob = _parts(o)
        return _lin(self.a + oa, self.b + ob)

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is int:
            return Lin(self.a, self.b - o)
        oa, ob = _parts(o)
        return _lin(self.a - oa, self.b - ob)

    def __rsub__(self, o):
        oa, ob = _parts(o)
        return _lin(oa - self.a, ob - self.b)

    def __neg__(self):
        return Lin(-self.a, -self.b)

    def __mul__(self, k):
        if not isinstance(k, int):
            raise Unbounded("product with an extent")
        return _lin(self.a * k, self.b * k)

    __rmul__ = __mul__

    def _divisor(self, k) -> int:
        if not isinstance(k, int) or k == 0 or self.a % k:
            raise Unbounded(f"({self!r}) / {k!r} is not affine")
        return k

    def __floordiv__(self, k):
        k = self._divisor(k)
        return _lin(self.a // k, self.b // k)

    def __mod__(self, k):
        return self.b % self._divisor(k)

    def __rfloordiv__(self, o):
        raise Unbounded("division by an extent")

    __rmod__ = __rfloordiv__

    def _cmp(self, o, op: str):
        if type(o) is Lin:
            a, b = self.a - o.a, self.b - o.b
        elif isinstance(o, int):
            if abs(o) >= T_UNBOUNDED:
                return _OPS[op](0, o)  # the Diophantine stand-in for infinity
            a, b = self.a, self.b - o
        else:
            return NotImplemented
        return _settle(a, b, op) if a else _OPS[op](b, 0)

    def __lt__(self, o):
        return self._cmp(o, "<")

    def __le__(self, o):
        return self._cmp(o, "<=")

    def __gt__(self, o):
        return self._cmp(o, ">")

    def __ge__(self, o):
        return self._cmp(o, ">=")

    def __eq__(self, o):
        return self._cmp(o, "==")

    def __ne__(self, o):
        return self._cmp(o, "!=")

    def __bool__(self) -> bool:
        return _settle(self.a, self.b, "!=")

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __index__(self) -> int:
        raise Unbounded("an extent used as a concrete integer")

    __int__ = __index__

    def __repr__(self) -> str:
        return f"{self.a}t{self.b:+d}"


class _Run:
    """One symbolic run: its threshold so far."""

    __slots__ = ("t0",)

    def __init__(self) -> None:
        self.t0 = 0


@dataclass(frozen=True)
class Verdict:
    """A group's analysis over one shape family, valid at every member
    with ``m >= n0``: the pairwise dependence details and per-stencil
    hazards :func:`repro.analysis.plan` reads, under ``key``; ``extra``
    is what the ``extra`` decisions of :func:`verdict` returned, equally
    valid there."""

    key: tuple
    n0: int
    details: Mapping[tuple[int, int], Mapping[str, frozenset[str]]]
    hazards: tuple[tuple[Hazard, ...], ...]
    extra: object = None


def _family(shapes: Mapping[str, tuple[int, ...]]):
    """``(m, family)``: the smallest extent and, per grid, ``(a, b)``
    per dimension with ``extent == a*m + b``; ``None`` without extents."""
    m = min((e for s in shapes.values() for e in s), default=0)
    if m < 1:
        return None
    fam = []
    for g in sorted(shapes):
        ab = []
        for e in shapes[g]:
            a = max(1, round(e / m))
            ab.append((a, e - a * m))
        fam.append((g, tuple(ab)))
    return m, tuple(fam)


def _modulus(group: StencilGroup) -> int:
    """``M``: the lcm of every lattice stride (access scale times domain
    stride), times the lcm of the scales a scaled write without an
    iteration grid divides its output extent by."""
    strides = scales = 1
    for s in group:
        maps = (s.output_map, *s.flat.reads())
        if s.iteration_grid is None:
            for sc in s.output_map.scale:
                scales = math.lcm(scales, sc)
        for box in s.domain.rects:
            for mp in maps:
                for sc, st in zip(mp.scale, box.stride):
                    strides = math.lcm(strides, sc * max(st, 1))
    return strides * scales


def _affine_shapes(fam, r: int, M: int) -> dict[str, tuple]:
    return {
        g: tuple(_lin(a * M, a * r + b) for a, b in ab) for g, ab in fam
    }


def _settled(run_body: Callable[[], object]) -> tuple[int, object] | None:
    """``(t0, result)`` of ``run_body()`` run symbolically, or ``None``
    when it leaves the affine fragment, refuses the shapes (a bounds
    check that fails for large extents, a grid missing from them: every
    extent is then checked, and refused, on its own) or meets anything
    else it cannot take symbolically."""
    run = _LOCAL.run = _Run()
    _LOCAL.memo = {}  # one-dimensional intersections, by their terms
    try:
        result = run_body()
    except (Unbounded, ValidationError, LookupError, TypeError, ArithmeticError):
        return None
    finally:
        del _LOCAL.run, _LOCAL.memo
    return run.t0, result


def _own_threshold(fn: Callable[[], bool]) -> tuple[bool, int]:
    """``fn()`` and the threshold of its comparisons alone, kept off the
    active run."""
    outer, inner = _LOCAL.run, _Run()
    _LOCAL.run = inner
    try:
        return fn(), inner.t0
    finally:
        _LOCAL.run = outer


def _meets(x: ResolvedRect, y: ResolvedRect) -> tuple[bool, int]:
    """:meth:`~repro.core.domains.ResolvedRect.intersects` with the
    thresholds of a conjunction: true once every dimension meets; false
    from the earliest ``t`` some dimension stops meeting.

    Both boxes are non-empty: every caller draws them from boxes that
    passed the emptiness filter on the run itself."""
    memo = _LOCAL.memo
    hits, misses = [0], []
    for q in zip(x.lows, x.strides, x.counts, y.lows, y.strides, y.counts):
        found = memo.get(q)
        if found is None:
            found = memo[q] = _own_threshold(
                lambda: lattice_ranges_intersect_nonempty(*q)
            )
        (hits if found[0] else misses).append(found[1])
    return (False, min(misses)) if misses else (True, max(hits))


def _meets_settled(x: ResolvedRect, y: ResolvedRect) -> bool:
    hit, t0 = _meets(x, y)
    run = _LOCAL.run
    run.t0 = max(run.t0, t0)
    return hit


def first_meeting(
    pairs: Sequence[tuple[ResolvedRect, ResolvedRect]],
) -> int | None:
    """The index of a pair of boxes in ``pairs`` that intersect, or
    ``None``, in a symbolic run.  Only whether one meets is settled,
    with the thresholds of a disjunction: from the earliest ``t`` one
    of the meeting pairs meets (that pair's index is returned), or,
    when none meets, the latest ``t`` from which every pair misses."""
    run = _LOCAL.run
    best = misses = None
    for k, (x, y) in enumerate(pairs):
        hit, t0 = _meets(x, y)
        if not hit:
            misses = t0 if misses is None else max(misses, t0)
        elif t0 <= run.t0:
            return k  # settled no later than the run already is
        elif best is None or t0 < best[0]:
            best = (t0, k)
    if best is None:
        run.t0 = max(run.t0, misses or 0)
        return None
    run.t0 = best[0]
    return best[1]


_KINDS = {(True, False): "RAW", (False, True): "WAR", (True, True): "WAW"}


def _details(accesses: Sequence[StencilAccesses]) -> dict:
    """:func:`~repro.analysis.footprint.access_conflict_details` for
    every pair ``i < j``, with the thresholds of a disjunction: a grid
    carries a kind when *some* access pair on it intersects, which holds
    from the earliest ``t`` one of those pairs does; it carries none
    once every pair has stopped intersecting."""
    run = _LOCAL.run
    out: dict[tuple[int, int], dict[str, frozenset[str]]] = {}
    for i, a in enumerate(accesses):
        for j in range(i + 1, len(accesses)):
            hits: dict[tuple, list[int]] = {}
            misses: dict[tuple, list[int]] = {}

            def meets(x: Access, y: Access) -> bool:
                if x.grid != y.grid:
                    return False
                hit, t0 = _meets(x.lattice, y.lattice)
                kind = (_KINDS[x.is_write, y.is_write], x.grid)
                (hits if hit else misses).setdefault(kind, []).append(t0)
                return hit

            d = access_conflict_details(a, accesses[j], meets)
            for kind, ts in misses.items():
                if kind not in hits:
                    run.t0 = max(run.t0, *ts)
            for ts in hits.values():
                run.t0 = max(run.t0, min(ts))
            if d:
                out[(i, j)] = d
    return out


def _bound_rects(group: StencilGroup, shapes: Mapping[str, tuple]):
    return [
        [box.bind(iteration_extents(s, shapes)) for box in s.domain.rects]
        for s in group
    ]


def _analyse(group: StencilGroup, shapes: Mapping[str, tuple]):
    """The pairwise dependence details, the hazards and the bounds check,
    through the functions the per-extent analysis calls."""
    if not all(e > 0 for dims in shapes.values() for e in dims):
        raise Unbounded("an empty grid")
    rects = _bound_rects(group, shapes)
    accesses = [accesses_of(s, rs) for s, rs in zip(group, rects)]
    details = _details(accesses)
    hazards = tuple(
        tuple(hazards_of(s, rs, _meets_settled)) for s, rs in zip(group, rects)
    )
    for s, rs in zip(group, rects):
        check_footprints(s, rs, shapes)
    return details, hazards


_VERDICTS: OrderedDict[tuple, Verdict | None] = OrderedDict()
_MODULI: dict[str, int] = {}
_LOCK = threading.Lock()
_CAP = 256


def _memo(key: tuple, compute: Callable[[], Verdict | None]):
    with _LOCK:
        if key in _VERDICTS:
            _VERDICTS.move_to_end(key)
            return _VERDICTS[key]
    v = compute()
    with _LOCK:
        _VERDICTS[key] = v
        while len(_VERDICTS) > _CAP:
            _VERDICTS.popitem(last=False)
    return v


def verdict(
    group: StencilGroup,
    shapes: Mapping[str, Sequence[int]],
    extra: tuple = (),
) -> Verdict | None:
    """The structure :class:`Verdict` holding at ``shapes``, or ``None``
    when ``shapes`` lie below the family's ``n0`` or the group has no
    threshold: then analyse this extent on its own.

    ``extra`` is ``(fn, *args)``, a further set of decisions to settle:
    ``fn(group, shapes, rects, *args)`` runs symbolically on the affine
    shapes and every stencil's bound domain boxes (a backend's emitter
    decisions, say).  It joins the key, its threshold raises ``n0``, and
    what it returns is the verdict's ``extra``.
    """
    norm = {g: tuple(int(x) for x in s) for g, s in shapes.items()}
    found = _family(norm)
    if found is None:
        return None
    m, fam = found
    sig = group.signature()
    M = _MODULI.get(sig)
    if M is None:
        M = _MODULI[sig] = _modulus(group)
    r = m % M
    key = (sig, fam, r)

    def analyse() -> Verdict | None:
        from .. import telemetry

        telemetry.count("analysis.plans")
        telemetry.count("analysis.plans.keyed")
        with telemetry.tracing.span(
            "structure", cat="analysis", group=group.name,
            stencils=len(group),
        ):
            out = _settled(lambda: _analyse(group, _affine_shapes(fam, r, M)))
        if out is None:
            return None
        t0, (details, hazards) = out
        return Verdict(key, r + M * max(t0, 0), details, hazards)

    v = _memo(key, analyse)
    if v is not None and extra:

        def settle_extra() -> Verdict | None:
            shapes = _affine_shapes(fam, r, M)
            out = _settled(lambda: extra[0](
                group, shapes, _bound_rects(group, shapes), *extra[1:]
            ))
            if out is None:
                return None
            n0 = max(v.n0, r + M * max(out[0], 0))
            return Verdict(key + (extra,), n0, v.details, v.hazards, out[1])

        v = _memo(key + (extra,), settle_extra)
    if v is None or m < v.n0:
        return None
    return v


_CHECKED: OrderedDict[tuple, None] = OrderedDict()


def check_once(
    group: StencilGroup, shapes: Mapping[str, Sequence[int]]
) -> None:
    """:func:`~repro.core.validate.check_group`, run once per structure
    key above ``n0`` and once per exact shapes below it: a passing check
    is remembered, a refusal raises every time."""
    v = verdict(group, shapes)
    key = v.key if v is not None else (
        group.signature(),
        tuple(sorted((g, tuple(int(x) for x in s)) for g, s in shapes.items())),
    )
    with _LOCK:
        if key in _CHECKED:
            _CHECKED.move_to_end(key)
            return
    check_group(group, shapes)
    with _LOCK:
        _CHECKED[key] = None
        while len(_CHECKED) > _CAP:
            _CHECKED.popitem(last=False)
