"""Lowering: frontend analysis -> :class:`~repro.schedule.ir.Schedule`.

This is the one place fusion legality, snapshot decisions and
checkerboard recognition run; the backends and emitters consume the
:class:`~repro.schedule.ir.Schedule` it builds and decide none of it
themselves.  Each legality rule is one function — :func:`fusion_refusals`
("may these stencils share a loop nest"), :func:`step_flags` (a
step's parallel and snapshot flags) and :func:`plane_lag_verdict`
("how many axis-0 planes must each step trail the ones before it";
asked of a time tile's steps listed twice, it also says how many each
application must trail the one before it) — called alike by the
lowering and by :func:`verify_schedule`, the one check every schedule
passes: once at the end of :func:`build_schedule`, and wherever a
hand-built :class:`~repro.schedule.ir.Schedule` enters, in
:func:`as_schedule`.

Chains are computed *within* dependence phases, which closes a latent
race in the legacy OpenMP path: a program-order chain could straddle a
barrier (its tail independent of the phase-mate it got glued to but not
of an earlier phase member), hoisting stores across a ``taskwait``.
Phase-local chains make that impossible by construction.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from dataclasses import replace
from typing import Callable, Iterator, Mapping, Sequence

from ..analysis.dag import ExecutionPlan, plan
from ..analysis.footprint import map_lattice
from ..analysis.structure import first_meeting, verdict
from ..core.domains import ResolvedRect
from ..core.stencil import Stencil, StencilGroup
from ..core.validate import iteration_shape
from ..telemetry import tracing
from ..util.diophantine import lattice_ranges_intersect_nonempty
from .ir import (
    Evidence,
    ParityClass,
    Schedule,
    SchedulePhase,
    Step,
    detect_parity_class,
)
from .options import ScheduleOptions

__all__ = [
    "ScheduleError",
    "step_flags",
    "fusion_refusals",
    "fusion_chains",
    "plane_lag_verdict",
    "plane_lag_facts",
    "lag_fact_args",
    "verify_schedule",
    "build_schedule",
    "schedule_for",
    "as_schedule",
]


class ScheduleError(ValueError):
    """An illegal schedule, with the refusing evidence.

    Subclasses :class:`ValueError` so callers that treat schedule
    refusals as value errors (the tuner, the backends) need nothing
    else.  ``refusals`` is the full list of refusing
    :class:`~repro.schedule.ir.Evidence`; ``evidence`` is its first.
    """

    def __init__(self, message: str, refusals: Sequence[Evidence]) -> None:
        super().__init__(message)
        self.refusals = tuple(refusals)
        self.evidence = self.refusals[0]


def step_flags(
    group: StencilGroup, chain: Sequence[int], hazards: Sequence
) -> tuple[bool, bool]:
    """The snapshot and parallel rule: ``(parallel, snapshot)`` of a step.

    A step runs in parallel iff no member carries a loop-carried hazard.
    It takes a gather snapshot iff it is one in-place stencil with a
    hazard — copying the output grid restores gather semantics.  A
    fused step never takes one: :func:`fusion_refusals` refuses a member
    whose own step would.
    """
    parallel = all(not hazards[i] for i in chain)
    head = chain[0]
    snapshot = (
        len(chain) == 1 and group[head].is_inplace() and bool(hazards[head])
    )
    return parallel, snapshot


def _stray_reads(reader: Stencil, writer: Stencil) -> list[str]:
    """The reads of ``reader`` that touch ``writer``'s output grid
    anywhere but ``reader``'s own write point (its own output grid,
    through its own output map)."""
    om = reader.output_map
    own = (reader.output, om.scale, om.offset)
    return [
        r.signature() for r in reader.flat.reads()
        if r.grid == writer.output and (r.grid, r.scale, r.offset) != own
    ]


def fusion_refusals(
    group: StencilGroup,
    chain: Sequence[int],
    deps: Mapping[tuple[int, int], set],
    hazards: Sequence,
) -> Iterator[Evidence]:
    """The fusion rule: why ``chain`` may not share one loop nest.

    Yields one ``fuse-refused`` :class:`Evidence` per violation (none ==
    legal): every member shares the head's domain, no member needs a
    gather snapshot, and no two members carry a RAW, WAR or WAW
    dependence (transitive safety — pairwise adjacency is not enough
    once three stencils share one nest; a WAR pair run point by point
    lets the later member overwrite a cell before the earlier one reads
    it at a later point).  Members may write through different
    output maps (the interpolation's ``fine[2i - 1 + c]``, one member
    per child ``c``) when they also share the head's iteration grid and
    each reads the others' output grids only at its own write point:
    with the writes pairwise disjoint (no WAW), no member then reads a
    cell another one writes, so running them point by point in one nest
    equals running them one after another.  Lazy, so a caller that only
    asks *whether* stops at the first refusal.
    """
    head = group[chain[0]]
    for j in chain[1:]:
        if group[j].domain != head.domain:
            yield Evidence(
                "fuse-refused",
                f"{group[j].name} and {head.name} iterate different domains",
            )
        if group[j].output_map != head.output_map and (
            head.iteration_grid is None
            or group[j].iteration_grid != head.iteration_grid
        ):
            yield Evidence(
                "fuse-refused",
                f"{group[j].name} and {head.name} write through different "
                "output maps over different iteration grids",
            )
    for i in chain:
        if step_flags(group, (i,), hazards)[1]:
            yield Evidence(
                "fuse-refused",
                f"{group[i].name} needs a gather snapshot (loop-carried "
                "hazard); fused chains must be snapshot-free",
            )
    ordered = sorted(chain)  # dependence edges point forward
    for a, i in enumerate(ordered):
        for j in ordered[a + 1:]:
            why = []
            bad = {"RAW", "WAR", "WAW"} & set(deps.get((i, j), ()))
            if bad:
                why.append(
                    f"carries {sorted(bad)} dependence (lattice "
                    "intersection)"
                )
            if group[i].output_map != group[j].output_map:
                why += [
                    f"{group[r].name} reads {sig} off its own write point"
                    for r, w in ((i, j), (j, i))
                    for sig in _stray_reads(group[r], group[w])
                ]
            if why:
                yield Evidence(
                    "fuse-refused",
                    f"{group[i].name} -> {group[j].name} "
                    + "; ".join(why) + "; members must be independent",
                )


def fusion_chains(
    group: StencilGroup,
    shapes: Mapping[str, tuple[int, ...]],
    exec_plan: ExecutionPlan | None = None,
) -> list[list[int]]:
    """Maximal runs of adjacent stencils legal to fuse into one nest.

    A stencil joins the current chain when the extended chain passes
    :func:`fusion_refusals`.  Chains stay within the phases of
    ``exec_plan`` (planned here when not given) and read its dependence
    edges and hazards.
    """
    if exec_plan is None:
        exec_plan = plan(group, shapes)
    deps, hazards = exec_plan.dependences, exec_plan.hazards
    chains: list[list[int]] = []
    for seq in exec_plan.phases:
        if not seq:
            continue
        current = [seq[0]]
        for j in seq[1:]:
            refusal = fusion_refusals(group, current + [j], deps, hazards)
            if next(refusal, None) is None:
                current.append(j)
            else:
                chains.append(current)
                current = [j]
        chains.append(current)
    return chains


def _hazard_refusals(
    group: StencilGroup, steps: Sequence[Step]
) -> list[Evidence]:
    """The steps that may not be split into planes: a loop-carried
    hazard (or the gather snapshot it takes) orders a step's own
    points."""
    return [
        Evidence(
            "lag-refused",
            f"step [{', '.join(group[i].name for i in s.stencils)}] "
            "carries a loop-carried hazard"
            + (" (gather snapshot)" if s.snapshot else "")
            + ": its points cannot be split into planes",
        )
        for s in steps if s.snapshot or not s.parallel
    ]


def _lag_refusals(
    group: StencilGroup,
    shapes: Mapping[str, tuple[int, ...]],
    steps: Sequence[Step],
) -> list[Evidence]:
    """Why the accesses of ``steps`` allow no constant plane distance
    (none == they do)."""
    if group[steps[0].head].ndim < 2:
        return [Evidence(
            "lag-refused",
            "a 1-d grid's plane is one point: one plane loop would "
            "unvectorize every step",
        )]
    written = {group[i].output for s in steps for i in s.stencils}
    refusals: list[Evidence] = []
    for step in steps:
        names = ", ".join(group[i].name for i in step.stencils)
        for i in step.stencils:
            st = group[i]
            if any(s != 1 for s in st.output_map.scale):
                refusals.append(Evidence(
                    "lag-refused",
                    f"step [{names}] writes through scaled output map "
                    f"{st.output_map.signature()}: its planes are not the "
                    "planes it writes",
                ))
                continue
            for read in st.flat.reads():
                if read.grid not in written:
                    continue
                if any(s != 1 for s in read.scale):
                    refusals.append(Evidence(
                        "lag-refused",
                        f"step [{names}] reads written grid {read.grid!r} "
                        f"through scaled map {read.signature()}: no "
                        "constant plane distance",
                    ))
                elif 2 * abs(read.offset[0]) > shapes[read.grid][0]:
                    refusals.append(Evidence(
                        "lag-refused",
                        f"step [{names}] reads {read.grid!r} at axis-0 "
                        f"offset {read.offset[0]}, beyond half the grid "
                        "extent: a wrap-around footprint, not a halo",
                    ))
    return refusals


_KIND = {(True, False): "RAW", (False, True): "WAR", (True, True): "WAW"}


def _meeting_test() -> Callable[[list], int | None]:
    """A ``first_meeting`` for concrete lattices: the index of the first
    pair that intersects, or ``None``, with the per-dimension
    Diophantine answers memoized (a stencil's boxes and offsets repeat
    a few one-dimensional questions many times)."""
    memo: dict[tuple, bool] = {}

    def meets(x: ResolvedRect, y: ResolvedRect) -> bool:
        for q in zip(x.lows, x.strides, x.counts, y.lows, y.strides,
                     y.counts):
            hit = memo.get(q)
            if hit is None:
                hit = memo[q] = lattice_ranges_intersect_nonempty(*q)
            if not hit:
                return False
        return True

    return lambda pairs: next(
        (k for k, (x, y) in enumerate(pairs) if meets(x, y)), None
    )


def _plane_distances(
    group: StencilGroup,
    shapes: Mapping[str, tuple[int, ...]],
    steps: Sequence[Step],
    deps: Mapping[tuple[int, int], object],
    rects: Sequence[Sequence[ResolvedRect]] | None,
    first_meeting: Callable[[list], int | None],
) -> dict[tuple[int, int], tuple[int, str]]:
    """``{(q0, q): (distance, what)}`` over step pairs ``q0 < q`` whose
    members share a dependence edge: the largest ``p0 - p`` over the
    point pairs (plane ``p0`` of step ``q0``, plane ``p`` of step ``q``)
    that touch one cell of a written grid, at least one of them writing.

    With identity-scale maps a cell ``c = x0 + o0 = x + o`` gives
    ``p0 - p = o[0] - o0[0]``: one constant per pair of accesses, so the
    distance is the largest such constant whose two footprint lattices
    meet.  Distances are tried largest first, each a disjunction over
    its access pairs (``first_meeting``); the first that meets decides.
    ``rects`` are the stencils' domain boxes (resolved at ``shapes``
    when ``None``).
    """
    written = {group[i].output for s in steps for i in s.stencils}
    # per stencil, per access of a written grid: (grid, writes, axis-0
    # offset, the footprint lattice of each box)
    acc: dict[int, list] = {}
    for step in steps:
        for i in step.stencils:
            st = group[i]
            boxes = (
                rects[i] if rects is not None
                else st.domain.resolve(iteration_shape(st, shapes))
            )
            boxes = [r for r in boxes if not r.is_empty()]
            om = st.output_map
            maps = [(st.output, om.scale, om.offset, True)] + [
                (rd.grid, rd.scale, rd.offset, False)
                for rd in st.flat.reads() if rd.grid in written
            ]
            acc[i] = [
                (g, w, off[0], [map_lattice(r, sc, off) for r in boxes])
                for g, sc, off, w in maps
            ]
    out: dict[tuple[int, int], tuple[int, str]] = {}
    for q, step in enumerate(steps):
        for q0 in range(q):
            levels: dict[int, list] = {}
            for i0 in steps[q0].stencils:
                for i in step.stencils:
                    if (i0, i) not in deps:
                        continue
                    for g0, w0, o0, lats0 in acc[i0]:
                        for g, w, o, lats in acc[i]:
                            if g0 != g or not (w0 or w):
                                continue
                            what = (i0, i, w0, w, g)
                            levels.setdefault(o - o0, []).extend(
                                (x, y, what) for x in lats0 for y in lats
                            )
            for d in sorted(levels, reverse=True):
                cands = levels[d]
                k = first_meeting([c[:2] for c in cands])
                if k is not None:
                    i0, i, w0, w, g = cands[k][2]
                    out[(q0, q)] = (d, (
                        f"{group[i0].name} -> {group[i].name} "
                        f"{_KIND[w0, w]} on {g!r}"
                    ))
                    break
    return out


def plane_lag_facts(
    group: StencilGroup,
    shapes: Mapping[str, tuple[int, ...]],
    rects: Sequence[Sequence[ResolvedRect]] | None,
    chains: Sequence[Sequence[int]],
    edges: Sequence[tuple[int, int]],
) -> tuple[list[Evidence], dict[tuple[int, int], tuple[int, str]]]:
    """The extent-dependent half of :func:`plane_lag_verdict`:
    ``(refusals, distances)`` for steps running ``chains`` under the
    dependence ``edges`` — the access refusals, and when there are none
    every step pair's plane distance ``{(q0, q): (d, what)}``.

    Both are extent-independent above a threshold, so this is the
    ``extra`` of :func:`repro.analysis.structure.verdict` that keys them
    on the shape family: there ``rects`` are the stencils' bound boxes
    and each distance is settled as a disjunction over its access pairs
    (:func:`repro.analysis.structure.first_meeting`).  ``rects=None``
    takes the facts at the concrete ``shapes``.
    """
    steps = [Step(tuple(c), parallel=True, snapshot=False) for c in chains]
    refusals = _lag_refusals(group, shapes, steps)
    if refusals:
        return refusals, {}
    return [], _plane_distances(
        group, shapes, steps, dict.fromkeys(edges), rects,
        _meeting_test() if rects is None else first_meeting,
    )


def _lag_facts(
    group: StencilGroup,
    shapes: Mapping[str, tuple[int, ...]],
    steps: Sequence[Step],
    deps: Mapping[tuple[int, int], object],
) -> tuple[list[Evidence], dict[tuple[int, int], tuple[int, str]]]:
    """:func:`plane_lag_facts` at ``shapes``: the shape family's, taken
    once per structure key, at or above its threshold; else this
    extent's own."""
    chains = tuple(s.stencils for s in steps)
    edges = tuple(sorted(deps))
    keyed = verdict(group, shapes, (plane_lag_facts, chains, edges))
    if keyed is not None:
        return keyed.extra
    return plane_lag_facts(group, shapes, None, chains, edges)


def plane_lag_verdict(
    group: StencilGroup,
    shapes: Mapping[str, tuple[int, ...]],
    steps: Sequence[Step],
    deps: Mapping[tuple[int, int], object],
) -> tuple[list[int], list[Evidence], list[Evidence]]:
    """The plane-lag rule: may ``steps`` run in one loop over axis-0
    planes, and how far must each trail the steps before it?

    Returns ``(lags, evidence, refusals)``; ``lags`` (one per step, in
    order) and ``evidence`` (what fixed each lag) are meaningful iff
    ``refusals`` is empty.  In a lagged schedule plane ``t`` of the
    loop runs every step in order, step ``q`` on its plane
    ``t - lags[q]``.  That keeps every dependence ``q0 -> q`` in order
    iff ``lags[q] >= lags[q0] + d`` for its plane distance ``d`` (the
    largest ``p0 - p`` over the cells both touch,
    :func:`_plane_distances`), so ``lags[q]`` is the largest such bound,
    and at least 0.  ``deps`` is the plan's dependence edge set.

    The steps qualify iff every step is hazard-free (so snapshot-free:
    its points may be split into planes), writes through an
    identity-scale map (a scaled write's planes are not the planes it
    writes) and reads each written grid through an identity-scale map
    (a scaled read has no constant plane distance) at an axis-0 offset
    within half the grid extent (a wrap-around read would lag a step by
    the whole grid), and the grids have a second axis, so a plane is a
    loop nest of its own.
    Everything but the hazards depends on the extents only below a
    threshold, and is taken once per shape family above it
    (:func:`plane_lag_facts`).
    """
    refusals = _hazard_refusals(group, steps)
    if refusals:
        return [], [], refusals
    refusals, need = _lag_facts(group, shapes, steps, deps)
    if refusals:
        return [], [], refusals
    lags: list[int] = []
    evidence: list[Evidence] = []
    for q in range(len(steps)):
        best = None
        for q0 in range(q):
            found = need.get((q0, q))
            if found is not None and (
                best is None or lags[q0] + found[0] > best[0]
            ):
                best = (lags[q0] + found[0], q0, *found)
        if best is None:
            lags.append(0)
            evidence.append(Evidence(
                "lag", "0, independent of every earlier step"
            ))
            continue
        bound, q0, d, what = best
        lags.append(max(bound, 0))
        names = ", ".join(group[i].name for i in steps[q0].stencils)
        evidence.append(Evidence(
            "lag",
            f"{lags[-1]} {'=' if bound >= 0 else '>'} lag {lags[q0]} of "
            f"[{names}] + plane distance {d} ({what})",
        ))
    return lags, evidence, refusals


def _all_pairs(group: StencilGroup) -> dict[tuple[int, int], None]:
    """Every ordered stencil pair, each stencil with itself too: the
    edges between two applications, where any stencil may touch what
    any stencil of the application before it wrote."""
    n = len(group)
    return dict.fromkeys((i, j) for i in range(n) for j in range(n))


def _lagged_applications(
    group: StencilGroup,
    shapes: Mapping[str, tuple[int, ...]],
    steps: Sequence[Step],
) -> tuple[list[int], list[Evidence], int, Evidence | None, list[Evidence]]:
    """:func:`plane_lag_verdict` on ``steps`` listed twice, every stencil
    pair an edge: ``(lags, evidence, delta, why, refusals)``, all but
    ``refusals`` meaningful iff it is empty.

    The first copy's ``lags`` and ``evidence`` are the steps' own; the
    second copy is the next application of a time tile, so application
    ``a`` may run step ``q`` on plane ``t - lags[q] - a*delta`` with
    ``delta`` the largest ``lag2[m + q] - lags[q]`` (never below 0:
    ``lag2[m] >= 0 = lags[0]``).  ``delta`` legal for consecutive
    applications is legal for every later pair: application ``a + j``
    trails by ``j*delta >= delta``.  ``why`` is the binding step's lag
    evidence, read across the two applications.
    """
    m = len(steps)
    lags, evidence, refusals = plane_lag_verdict(
        group, shapes, [*steps, *steps], _all_pairs(group)
    )
    if refusals:
        return [], [], 0, None, refusals
    gains = [lags[m + q] - lags[q] for q in range(m)]
    delta = max(gains)
    # the first binding step: its lag is fixed by a step of the first copy
    q = gains.index(delta)
    names = ", ".join(group[i].name for i in steps[q].stencils)
    head, _, bound = evidence[m + q].basis.partition(" ")
    why = (
        f"0: [{names}] of the next application is {bound}" if head == "0,"
        else f"{delta} {bound} - lag {lags[q]} of [{names}] of the next "
        "application"
    )
    return lags[:m], evidence[:m], delta, Evidence("app-lag", why), []


def lag_fact_args(sched: Schedule) -> tuple[tuple, tuple]:
    """The ``(chains, edges)`` of the :func:`plane_lag_facts` a lagged
    schedule's lags rest on: its steps under the plan's edges, or, when
    it lags its applications, its steps listed twice under every
    stencil pair (:func:`_lagged_applications`)."""
    chains = tuple(s.stencils for s in sched.steps())
    if sched.app_lag is not None:
        return chains * 2, tuple(_all_pairs(sched.group))
    return chains, tuple(sorted(sched.plan.dependences))


def verify_schedule(sched: Schedule) -> list[Evidence]:
    """Re-validate a schedule against its group's dependence evidence.

    Returns a list of refusing :class:`Evidence` (empty == legal).
    Checks, in order: coverage (every stencil exactly once), barrier
    ordering (no dependence edge between steps of one phase or across
    phases the wrong way), then per step the parallel/snapshot flags
    (:func:`step_flags`), fused-step legality (:func:`fusion_refusals`)
    and sweep correctness against parity-class recognition; then, when
    the steps carry plane lags and passed so far, that every step has
    one, the plane-lag rule admits them and each lag covers every plane
    distance (:func:`plane_lag_verdict`) — or, when the schedule lags
    its applications, that it is a lagged time tile whose step lags are
    the ones the rule gives its steps listed twice and whose ``app_lag``
    is at least the ``delta`` read from them
    (:func:`_lagged_applications`).  A time tile without an
    application lag needs no check: ``k`` applications are the
    verified program run ``k`` times.
    """
    problems: list[Evidence] = []
    group = sched.group
    norm = dict(sched.shapes)
    exec_plan = sched.plan
    n = len(group)

    # coverage: each group index exactly once
    seen: dict[int, int] = {}
    for ph in sched.phases:
        for s in ph.steps:
            for i in s.stencils:
                seen[i] = seen.get(i, 0) + 1
    missing = sorted(i for i in range(n) if i not in seen)
    dup = sorted(i for i, c in seen.items() if c > 1)
    extra = sorted(i for i in seen if not 0 <= i < n)
    if missing:
        problems.append(
            Evidence(
                "coverage-refused",
                f"stencil indices {missing} are executed by no step",
            )
        )
    if dup:
        problems.append(
            Evidence(
                "coverage-refused",
                f"stencil indices {dup} appear in more than one step",
            )
        )
    if extra:
        problems.append(
            Evidence(
                "coverage-refused",
                f"step indices {extra} do not name stencils of group "
                f"{group.name!r} (size {n})",
            )
        )
    if problems:
        return problems  # downstream checks assume a sane index map

    phase_of: dict[int, int] = {}
    step_of: dict[int, object] = {}
    for pi, ph in enumerate(sched.phases):
        for s in ph.steps:
            for i in s.stencils:
                phase_of[i] = pi
                step_of[i] = s

    # barrier ordering: a dependence edge (i, j) must cross a barrier
    # (steps of one phase may run concurrently), unless both ends share
    # a fused step — which the fusion rule judges below.
    deps = exec_plan.dependences
    for (i, j), kinds in sorted(deps.items()):
        if i not in step_of or j not in step_of:
            continue
        if step_of[i] is not step_of[j] and phase_of[i] >= phase_of[j]:
            problems.append(
                Evidence(
                    "order-refused",
                    f"dependence {group[i].name} -> {group[j].name} "
                    f"({sorted(kinds)}) requires a barrier between "
                    f"them, but they sit in phases {phase_of[i]} and "
                    f"{phase_of[j]}",
                )
            )

    # per-step flags and fusion against the hazard lattices + sweep
    # recognition
    hazards = exec_plan.hazards
    for ph in sched.phases:
        for s in ph.steps:
            names = ", ".join(group[i].name for i in s.stencils)
            expect_par, expect_snap = step_flags(group, s.stencils, hazards)
            if s.parallel != expect_par:
                problems.append(
                    Evidence(
                        "parallel-refused",
                        f"step [{names}] is marked "
                        f"{'parallel' if s.parallel else 'serialized'} "
                        "but the hazard lattices say "
                        f"{'parallel' if expect_par else 'serialized'}",
                    )
                )
            if s.snapshot != expect_snap:
                problems.append(
                    Evidence(
                        "snapshot-refused",
                        f"step [{names}] snapshot flag is {s.snapshot} "
                        f"but the hazard analysis requires {expect_snap}",
                    )
                )
            if s.fused:
                problems.extend(
                    fusion_refusals(group, s.stencils, deps, hazards)
                )
            if s.sweep is not None:
                want, _ = _sweep_verdict(group, norm, s.head)
                if want != s.sweep:
                    problems.append(
                        Evidence(
                            "multicolor-refused",
                            f"step [{names}] claims a parity-class "
                            "sweep the domain union does not form",
                        )
                    )

    if (sched.lagged or sched.app_lag is not None) and not problems:
        # lags are distances between steps: judged on legal steps only
        problems.extend(_lag_problems(sched))

    return problems


def _lag_problems(sched: Schedule) -> list[Evidence]:
    """The plane-lag part of :func:`verify_schedule`."""
    group = sched.group
    steps = list(sched.steps())

    def names(q: int) -> str:
        return ", ".join(group[i].name for i in steps[q].stencils)

    if sched.app_lag is not None:
        k, delta = sched.options.time_tile, sched.app_lag
        if k == 1 or not sched.lagged:
            return [Evidence(
                "lag-refused",
                f"application lag {delta} without "
                + ("a time tile" if k == 1 else "plane lags")
                + ": only a time tile's plane loop lags applications",
            )]
        lags, _, need, why, refusals = _lagged_applications(
            group, sched.shapes, steps
        )
        if refusals:
            return refusals
        problems = [
            Evidence(
                "lag-refused",
                f"step [{names(q)}] has lag {s.lag}, not the {lag} the "
                "plane-lag rule gives it on the steps listed twice",
            )
            for q, (s, lag) in enumerate(zip(steps, lags)) if s.lag != lag
        ]
        if delta < need:
            problems.append(Evidence(
                "lag-refused",
                f"application lag {delta} is short: it needs {why.basis}",
            ))
        return problems
    bare = [q for q, s in enumerate(steps) if s.lag is None]
    if bare:
        return [Evidence(
            "lag-refused",
            f"step(s) {[names(q) for q in bare]} carry no plane lag while "
            "others do: one plane loop runs every step",
        )]
    refusals = _hazard_refusals(group, steps)
    if refusals:
        return refusals
    refusals, need = _lag_facts(
        group, sched.shapes, steps, sched.plan.dependences
    )
    if refusals:
        return refusals
    problems = [
        Evidence(
            "lag-refused",
            f"step [{names(q)}] has negative lag {s.lag}: its first "
            "planes would never run",
        )
        for q, s in enumerate(steps) if s.lag < 0
    ]
    for (q0, q), (d, what) in sorted(need.items()):
        if steps[q].lag < steps[q0].lag + d:
            problems.append(Evidence(
                "lag-refused",
                f"step [{names(q)}] at lag {steps[q].lag} must trail "
                f"[{names(q0)}] (lag {steps[q0].lag}) by plane distance "
                f"{d} ({what}): it needs lag >= {steps[q0].lag + d}",
            ))
    return problems


def _with_lags(
    phases: Sequence[SchedulePhase],
    lags: Sequence[int],
    evidence: Sequence[Evidence],
) -> list[SchedulePhase]:
    """``phases`` with each step's plane lag and its evidence attached,
    in step order."""
    lagged = iter(zip(lags, evidence))
    return [
        SchedulePhase(ph.index, tuple(
            replace(s, lag=lag, evidence=s.evidence + (ev,))
            for s, (lag, ev) in zip(ph.steps, lagged)
        ))
        for ph in phases
    ]


def _lag_steps(
    group: StencilGroup,
    shapes: Mapping[str, tuple[int, ...]],
    phases: Sequence[SchedulePhase],
    deps: Mapping[tuple[int, int], object],
) -> list[SchedulePhase]:
    """``phases`` with every step's plane lag and its evidence attached,
    when there are several steps and :func:`plane_lag_verdict` admits
    them; else ``phases`` unchanged."""
    steps = [s for ph in phases for s in ph.steps]
    if len(steps) < 2:
        return list(phases)
    lags, evidence, refusals = plane_lag_verdict(group, shapes, steps, deps)
    if refusals:
        return list(phases)
    return _with_lags(phases, lags, evidence)


#: per-core L2s of grids above which lagged applications beat ``k``
#: whole sweeps.  Not a cache level: the knee measured on the reference
#: host (2 MiB L2, an L3 that sysfs lists as 300 MiB but other tenants
#: share), where every paper operator's lagged ``time_tile=4`` call was
#: slower with 30.9 MB of grids or less and faster with 35.2 MB or more
#: (DESIGN decision 7).  Below it, whole sweeps re-read grids a cache
#: still holds, and the lagged body read 1.03-1.12x their time.
LAG_KNEE_L2S = 16


def _lag_applications(
    group: StencilGroup,
    shapes: Mapping[str, tuple[int, ...]],
    phases: list[SchedulePhase],
    k: int,
) -> tuple[list[SchedulePhase], int | None, tuple[Evidence, ...]]:
    """A time tile's lowering: ``(phases, app_lag, evidence)``.

    ``k > 1`` applications are lagged in the steps' plane loop when the
    grids the group touches exceed :data:`LAG_KNEE_L2S` per-core L2s
    (the L2 read once, by :func:`repro.machine.l2_bytes`), so ``k``
    whole sweeps would stream them from memory ``k`` times, and the
    plane-lag rule admits the steps listed twice
    (:func:`_lagged_applications`); the steps then get the first copy's
    lags.  Otherwise the phases are unchanged and the tile stays ``k``
    whole sweeps.  The evidence says which, and why.
    """
    if k == 1:
        return phases, None, ()
    # imported here: repro.machine imports the backends, which import
    # this module
    from ..machine.specs import l2_bytes

    # the schedule knows no dtype: 8 bytes a point, float64's width
    touched = 8 * sum(math.prod(shapes[g]) for g in group.grids())
    l2 = l2_bytes()

    def whole(why: str) -> tuple[list[SchedulePhase], None, tuple]:
        return phases, None, (
            Evidence("app-lag-select", f"{k} whole sweeps: {why}"),
        )

    if l2 is None:
        return whole("no per-core L2 size is listed")
    knee = f"{LAG_KNEE_L2S} per-core L2s of {l2} B"
    if touched <= LAG_KNEE_L2S * l2:
        return whole(f"the grids touch {touched} B, within {knee}")
    lags, evidence, delta, why, refusals = _lagged_applications(
        group, shapes, [s for ph in phases for s in ph.steps]
    )
    if refusals:
        return whole(refusals[0].basis)
    return _with_lags(phases, lags, evidence), delta, (
        Evidence(
            "app-lag-select",
            f"applications lagged: the grids touch {touched} B, more "
            f"than {knee}",
        ),
        why,
    )


def build_schedule(
    group: StencilGroup,
    shapes: Mapping[str, Sequence[int]],
    options: ScheduleOptions | None = None,
) -> Schedule:
    """Lower ``group`` to a :class:`Schedule` under ``options``, in one pass.

    The dependence plan runs once (edges and per-stencil hazards); each
    plan phase is then stepped as its :func:`fusion_chains`
    (``fuse=True``) or as singletons, every step tagged with its
    parallel/snapshot verdict and, under ``multicolor=True``, its
    parity-class sweep; a time tile whose grids exceed
    :data:`LAG_KNEE_L2S` per-core L2s gets its application lag and its
    steps' plane lags from one :func:`plane_lag_verdict`
    (:func:`_lag_applications`); otherwise several steps that the rule
    admits get their plane lags.
    The result carries ``options`` verbatim (``time_tile`` is read from
    there) and passes :func:`verify_schedule` once, or
    :class:`ScheduleError` is raised.
    """
    options = options or ScheduleOptions()
    norm = {g: tuple(int(x) for x in s) for g, s in shapes.items()}
    with tracing.span(
        "schedule", cat="analysis", group=group.name,
        policy=options.policy, fuse=options.fuse,
        multicolor=options.multicolor,
    ):
        exec_plan = plan(group, norm, policy=options.policy)
        chain_of = (
            {c[0]: c for c in fusion_chains(group, norm, exec_plan)}
            if options.fuse else {}
        )
        phases: list[SchedulePhase] = []
        for pi, phase in enumerate(exec_plan.phases):
            steps = []
            emitted: set[int] = set()
            for si in phase:
                if si in emitted:
                    continue
                chain = chain_of.get(si, [si])
                emitted.update(chain)
                steps.append(
                    _make_step(
                        group, norm, chain, exec_plan.hazards, options
                    )
                )
            phases.append(SchedulePhase(pi, tuple(steps)))
        phases, app_lag, evidence = _lag_applications(
            group, norm, phases, options.time_tile
        )
        if app_lag is None:
            phases = _lag_steps(group, norm, phases, exec_plan.dependences)
        sched = Schedule(
            group, norm, options, exec_plan, tuple(phases), app_lag,
            evidence,
        )
        problems = verify_schedule(sched)
    if problems:
        raise ScheduleError(
            f"lowering {options.describe()} produced an illegal schedule "
            f"for group {group.name!r}: "
            + "; ".join(str(p) for p in problems),
            problems,
        )
    _VERIFIED.add(sched)
    return sched


def _sweep_verdict(
    group: StencilGroup,
    shapes: Mapping[str, tuple[int, ...]],
    head_index: int,
) -> tuple[ParityClass | None, Evidence | None]:
    """Checkerboard recognition for one step head: ``(sweep, evidence)``.

    ``(None, None)`` when the head's domain is not a parity class —
    recognition simply does not apply (that is not a refusal).
    """
    head = group[head_index]
    it_shape = iteration_shape(head, shapes)
    rects = [r for r in head.domain.resolve(it_shape) if not r.is_empty()]
    sweep = detect_parity_class(rects)
    if sweep is None:
        return None, None
    ev = Evidence(
        "multicolor",
        f"{len(rects)} stride-2 boxes exactly tile parity "
        f"{sweep.parity} of the dense box "
        f"{list(sweep.base)}..{list(sweep.high)}; reordered "
        "into one parity-corrected sweep",
    )
    return sweep, ev


def _make_step(group, shapes, chain, hazards, options) -> Step:
    si = chain[0]
    evidence: list[Evidence] = []
    parallel, snapshot = step_flags(group, chain, hazards)
    if parallel:
        evidence.append(
            Evidence("parallel", "no loop-carried lattice intersection")
        )
    else:
        evidence.append(
            Evidence(
                "serialized",
                "; ".join(str(h) for i in chain for h in hazards[i]),
            )
        )
    if snapshot:
        evidence.append(
            Evidence(
                "snapshot",
                "gather semantics restored by reading the output grid "
                "through a copy: " + "; ".join(str(h) for h in hazards[si]),
            )
        )
    if len(chain) > 1:
        maps = {group[i].output_map.signature() for i in chain}
        shared = (
            "domain and output map" if len(maps) == 1 else
            f"domain and iteration grid, their {len(maps)} output maps "
            "write pairwise disjoint points, and each member reads the "
            "output only at its own write point"
        )
        evidence.append(
            Evidence(
                "fuse",
                f"{len(chain)} stencils share {shared}; no RAW/WAR/WAW "
                "lattice intersection among members; all snapshot-free",
            )
        )
    sweep: ParityClass | None = None
    if options.multicolor:
        sweep, sweep_ev = _sweep_verdict(group, shapes, si)
        if sweep_ev is not None:
            evidence.append(sweep_ev)
    return Step(
        stencils=tuple(chain),
        parallel=parallel,
        snapshot=snapshot,
        sweep=sweep,
        evidence=tuple(evidence),
    )


# ---------------------------------------------------------------------------
# memoized construction (the backends' entry points)
# ---------------------------------------------------------------------------


_CACHE: OrderedDict[tuple, Schedule] = OrderedDict()
_CACHE_LOCK = threading.Lock()
_CACHE_CAP = 128
#: per-key build locks so concurrent misses on the *same* key build once
_BUILDING: dict[tuple, threading.Lock] = {}
#: every schedule :func:`build_schedule` made, so verified already
_VERIFIED: "weakref.WeakSet[Schedule]" = weakref.WeakSet()


def schedule_for(
    group: StencilGroup,
    shapes: Mapping[str, Sequence[int]],
    options: ScheduleOptions | None = None,
) -> Schedule:
    """Memoized :func:`build_schedule` (keyed on signature/shapes/options).

    The memo is a true LRU: a hit refreshes the entry's recency, so hot
    schedules survive eviction while cold ones age out.  Concurrent
    misses on the same key serialize on a per-key build lock (one build,
    everyone else waits for the memo), while builds for *different* keys
    still proceed in parallel.

    ``options=None`` is ``ScheduleOptions()``: which schedule comes back
    depends on the arguments alone.
    """
    options = options or ScheduleOptions()
    norm = {g: tuple(int(x) for x in s) for g, s in shapes.items()}
    key = (group.signature(), tuple(sorted(norm.items())), options)
    with _CACHE_LOCK:
        sched = _CACHE.get(key)
        if sched is not None:
            _CACHE.move_to_end(key)
            return sched
        build_lock = _BUILDING.setdefault(key, threading.Lock())
    with build_lock:
        try:
            # re-check: another thread may have finished the build while
            # we waited on its lock
            with _CACHE_LOCK:
                sched = _CACHE.get(key)
                if sched is not None:
                    _CACHE.move_to_end(key)
                    return sched
            sched = build_schedule(group, norm, options)
            with _CACHE_LOCK:
                _CACHE[key] = sched
                _CACHE.move_to_end(key)
                while len(_CACHE) > _CACHE_CAP:
                    _CACHE.popitem(last=False)
        finally:
            # a refused build leaves no lock behind either
            with _CACHE_LOCK:
                _BUILDING.pop(key, None)
    return sched


def as_schedule(
    spec: "Schedule | ScheduleOptions | None",
    group: StencilGroup,
    shapes: Mapping[str, Sequence[int]],
) -> Schedule:
    """The :class:`Schedule` an emitter runs for ``spec``.

    ``spec`` is a prebuilt :class:`Schedule` (checked against this
    group/shapes and, unless :func:`build_schedule` made it and so has
    verified it, by :func:`verify_schedule`, refusing with
    :class:`ScheduleError`), a :class:`ScheduleOptions`, or ``None`` for
    the defaults.  Loose keyword options and policy strings are resolved
    before this point, by
    :meth:`repro.backends.base.Backend.pop_schedule`.
    """
    norm = {g: tuple(int(x) for x in s) for g, s in shapes.items()}
    if isinstance(spec, Schedule):
        # a prebuilt schedule may have been assembled by hand: it passes
        # the same check a lowered one does before anything runs it
        if spec.group.signature() != group.signature():
            raise ValueError(
                f"schedule was built for group {spec.group.name!r} "
                f"(different signature than {group.name!r})"
            )
        if dict(spec.shapes) != norm:
            raise ValueError(
                f"schedule was built for shapes {dict(spec.shapes)}, "
                f"asked to execute with {norm}"
            )
        problems = [] if spec in _VERIFIED else verify_schedule(spec)
        if problems:
            raise ScheduleError(
                f"prebuilt schedule for group {group.name!r} is illegal: "
                + "; ".join(str(p) for p in problems),
                problems,
            )
        return spec
    if spec is not None and not isinstance(spec, ScheduleOptions):
        raise TypeError(
            f"schedule must be a Schedule or ScheduleOptions, "
            f"got {type(spec).__name__}"
        )
    return schedule_for(group, norm, spec)
