"""Lowering: frontend analysis -> :class:`~repro.schedule.ir.Schedule`.

This is the one place fusion legality, snapshot decisions and
checkerboard recognition run; the backends and emitters consume the
:class:`~repro.schedule.ir.Schedule` it builds and decide none of it
themselves.

Chains are computed *within* dependence phases, which closes a latent
race in the legacy OpenMP path: a program-order chain could straddle a
barrier (its tail independent of the phase-mate it got glued to but not
of an earlier phase member), hoisting stores across a ``taskwait``.
Phase-local chains make that impossible by construction.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Mapping, Sequence

from ..analysis.dag import plan
from ..analysis.dependence import group_dependences, intra_stencil_hazards
from ..analysis.footprint import map_lattice
from ..core.stencil import StencilGroup
from ..core.validate import iteration_shape
from ..telemetry import tracing
from .ir import (
    Evidence,
    ParityClass,
    Schedule,
    SchedulePhase,
    Step,
    TimeTile,
    detect_parity_class,
)
from .options import ScheduleOptions

__all__ = [
    "fusion_chains",
    "time_tile_verdict",
    "base_schedule",
    "build_schedule",
    "schedule_for",
    "as_schedule",
]


def fusion_chains(
    group: StencilGroup,
    shapes: Mapping[str, tuple[int, ...]],
    *,
    deps: Mapping[tuple[int, int], frozenset] | None = None,
    within: Sequence[Sequence[int]] | None = None,
) -> list[list[int]]:
    """Maximal runs of adjacent stencils legal to fuse into one nest.

    A stencil joins the current chain when it shares the chain's domain
    and output map, has no RAW/WAW dependence with *any* chain member
    (transitive safety — pairwise adjacency is not enough once three
    stencils share one loop nest), and needs no gather snapshot.

    ``within`` restricts chains to the given phases (each a sequence of
    group indices); ``None`` chains over full program order.
    """
    if deps is None:
        deps = group_dependences(group, shapes)

    def needs_snapshot(i: int) -> bool:
        return group[i].is_inplace() and bool(
            intra_stencil_hazards(group[i], shapes)
        )

    sequences = (
        [list(range(len(group)))]
        if within is None
        else [list(seq) for seq in within if seq]
    )
    chains: list[list[int]] = []
    for seq in sequences:
        current = [seq[0]]
        for j in seq[1:]:
            head = group[current[0]]
            ok = (
                group[j].domain == head.domain
                and group[j].output_map == head.output_map
                and not needs_snapshot(j)
                and not needs_snapshot(current[0])
                and all(
                    not ({"RAW", "WAW"} & set(deps.get((i, j), ())))
                    for i in current
                )
            )
            if ok:
                current.append(j)
            else:
                chains.append(current)
                current = [j]
        chains.append(current)
    return chains


def time_tile_verdict(
    group: StencilGroup,
    shapes: Mapping[str, tuple[int, ...]],
    steps: Sequence[Step],
) -> tuple[int, list[Evidence], list[Evidence]]:
    """Decide whether ``k`` successive group applications may be fused.

    Returns ``(slope, evidence, refusals)``.  The schedule is
    time-tileable iff ``refusals`` is empty; ``slope`` is then the
    maximal cross-application RAW halo and ``evidence`` carries the
    per-step Diophantine facts.

    A step is time-tileable iff

    * it needs no gather snapshot (a snapshot per application would
      have to be re-taken inside the tile — the transform's whole point
      is to *not* round-trip the grid per application);
    * its output map is the identity scale (a scaled write footprint
      moves per application, so the halo is unbounded);
    * every read of a grid written by the schedule is an identity-scale
      read whose offset stays a *bounded halo* — at most half the grid
      extent per dimension.  Whole-grid wrap-around reads (periodic
      boundaries) are refused: their footprint spans the domain, so no
      cache-sized tile covers the dependence.

    The halo a read contributes is refined by the same lattice
    arithmetic the snapshot analysis uses: a read whose lattice never
    meets the writer's lattice (e.g. the red half-sweep reading its
    *black* neighbours) carries no cross-application dependence and
    contributes slope 0.
    """
    written: dict[str, list[int]] = {}
    for step in steps:
        for i in step.stencils:
            written.setdefault(group[i].output, []).append(i)
    write_lattices: dict[int, list] = {}
    for idxs in written.values():
        for j in idxs:
            st = group[j]
            it_shape = iteration_shape(st, shapes)
            rects = [
                r for r in st.domain.resolve(it_shape) if not r.is_empty()
            ]
            om = st.output_map
            write_lattices[j] = [
                map_lattice(r, om.scale, om.offset) for r in rects
            ]

    slope = 0
    evidence: list[Evidence] = []
    refusals: list[Evidence] = []
    for step in steps:
        names = ", ".join(group[i].name for i in step.stencils)
        if step.snapshot:
            refusals.append(
                Evidence(
                    "time-tile-refused",
                    f"step [{names}] requires a gather snapshot each "
                    "application (loop-carried hazard); a time tile "
                    "cannot re-snapshot mid-tile",
                )
            )
            continue
        step_halo = 0
        for i in step.stencils:
            st = group[i]
            if any(s != 1 for s in st.output_map.scale):
                refusals.append(
                    Evidence(
                        "time-tile-refused",
                        f"step [{names}] writes through scaled output "
                        f"map {st.output_map.signature()}: the write "
                        "footprint moves per application (unbounded "
                        "halo)",
                    )
                )
                continue
            it_shape = iteration_shape(st, shapes)
            rects = [
                r for r in st.domain.resolve(it_shape) if not r.is_empty()
            ]
            for read in st.flat.reads():
                if read.grid not in written:
                    continue
                if any(s != 1 for s in read.scale):
                    refusals.append(
                        Evidence(
                            "time-tile-refused",
                            f"step [{names}] reads written grid "
                            f"{read.grid!r} through scaled map "
                            f"{read.signature()}: footprint is not a "
                            "bounded halo",
                        )
                    )
                    continue
                halo = max((abs(o) for o in read.offset), default=0)
                limit = min(
                    x // 2 for x in shapes[read.grid]
                )
                if halo > limit:
                    refusals.append(
                        Evidence(
                            "time-tile-refused",
                            f"step [{names}] reads {read.grid!r} at "
                            f"offset {list(read.offset)} — beyond half "
                            "the grid extent, an unbounded (wrap-"
                            "around) footprint, not a halo",
                        )
                    )
                    continue
                if halo == 0:
                    continue  # centre read: per-point recurrence
                # Lattice refinement: does this read ever touch cells
                # another schedule member writes?  (Reads of the *own*
                # stencil's writes are diagonal-only — proven by the
                # snapshot analysis, or the step would carry one.)
                carried = False
                for j in written[read.grid]:
                    if j == i:
                        continue
                    rl = [
                        map_lattice(r, read.scale, read.offset)
                        for r in rects
                    ]
                    if any(
                        a.intersects(b)
                        for a in rl
                        for b in write_lattices[j]
                    ):
                        carried = True
                        break
                if carried:
                    step_halo = max(step_halo, halo)
        slope = max(slope, step_halo)
        evidence.append(
            Evidence(
                "time-tile",
                f"step [{names}]: snapshot-free, RAW footprint per "
                f"application is a bounded halo (radius {step_halo})",
            )
        )
    return slope, evidence, refusals


def _plan_time_tile(
    group: StencilGroup,
    shapes: Mapping[str, tuple[int, ...]],
    phases: Sequence[SchedulePhase],
    k: int,
) -> TimeTile:
    """Legalize ``time_tile=k`` over the lowered phases, or raise."""
    steps = [s for ph in phases for s in ph.steps]
    slope, evidence, refusals = time_tile_verdict(group, shapes, steps)
    if refusals:
        detail = "; ".join(e.basis for e in refusals)
        from .. import telemetry
        from ..transform.base import TransformError

        telemetry.count("schedule.time_tile.refusals")
        telemetry.event(
            "schedule.time_tile.refused",
            group=group.name, k=k, detail=detail,
        )
        raise TransformError(
            f"time_tile={k} is not legal for group {group.name!r}: {detail}",
            refusals=tuple(refusals),
        )
    evidence.append(
        Evidence(
            "time-tile",
            f"{len(steps)} step(s), cross-application halo {slope}: "
            "fused outer time loop (barriers intact per application); "
            "traffic reduction from whole-grid cache residency",
        )
    )
    return TimeTile(k=k, slope=slope, evidence=tuple(evidence))


def base_schedule(
    group: StencilGroup,
    shapes: Mapping[str, Sequence[int]],
    policy: str = "greedy",
) -> Schedule:
    """The untransformed schedule: the dependence plan, nothing else.

    One singleton step per stencil in plan-phase order, each tagged with
    its parallel/snapshot verdict; no fusion, no sweep recognition, no
    tiling.  This is the starting point every
    :class:`~repro.transform.base.Transform` rewrites — and what
    :func:`build_schedule` feeds the preset pipeline.
    """
    norm = {g: tuple(int(x) for x in s) for g, s in shapes.items()}
    options = ScheduleOptions(policy=policy, multicolor=False)
    exec_plan = plan(group, norm, policy=policy)
    hazards = [intra_stencil_hazards(s, norm) for s in group]
    phases: list[SchedulePhase] = []
    for pi, phase in enumerate(exec_plan.phases):
        steps = tuple(
            _make_step(group, norm, [si], hazards, options) for si in phase
        )
        phases.append(SchedulePhase(pi, steps))
    return Schedule(group, norm, options, exec_plan, tuple(phases), None)


def build_schedule(
    group: StencilGroup,
    shapes: Mapping[str, Sequence[int]],
    options: ScheduleOptions | None = None,
) -> Schedule:
    """Lower ``group`` to a :class:`Schedule` under ``options``.

    A thin preset over the transform API: :func:`base_schedule` runs the
    dependence plan and per-stencil hazard (snapshot) analysis, then the
    pipeline :func:`repro.transform.preset.preset_pipeline` renders from
    ``options`` applies fusion chaining, checkerboard recognition,
    tiling and temporal blocking — every rewrite re-validated and tagged
    with its legalizing evidence.
    """
    options = options or ScheduleOptions()
    norm = {g: tuple(int(x) for x in s) for g, s in shapes.items()}
    from ..transform.preset import preset_pipeline

    with tracing.span(
        "schedule", cat="analysis", group=group.name,
        policy=options.policy, fuse=options.fuse,
        multicolor=options.multicolor,
    ):
        sched = base_schedule(group, norm, options.policy)
        sched = preset_pipeline(options)(sched)
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
    head = group[si]
    evidence: list[Evidence] = []
    parallel = all(not hazards[i] for i in chain)
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
    snapshot = len(chain) == 1 and head.is_inplace() and bool(hazards[si])
    if snapshot:
        evidence.append(
            Evidence(
                "snapshot",
                "gather semantics restored by reading the output grid "
                "through a copy: " + "; ".join(str(h) for h in hazards[si]),
            )
        )
    if len(chain) > 1:
        evidence.append(
            Evidence(
                "fuse",
                f"{len(chain)} stencils share domain and output map; "
                "no RAW/WAW lattice intersection among members; all "
                "snapshot-free",
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
        # re-check: another thread may have finished the build while we
        # waited on its lock
        with _CACHE_LOCK:
            sched = _CACHE.get(key)
            if sched is not None:
                _CACHE.move_to_end(key)
                _BUILDING.pop(key, None)
                return sched
        sched = build_schedule(group, norm, options)
        with _CACHE_LOCK:
            _CACHE[key] = sched
            _CACHE.move_to_end(key)
            while len(_CACHE) > _CACHE_CAP:
                _CACHE.popitem(last=False)
            _BUILDING.pop(key, None)
    return sched


def as_schedule(
    spec: "Schedule | ScheduleOptions | None",
    group: StencilGroup,
    shapes: Mapping[str, Sequence[int]],
) -> Schedule:
    """The :class:`Schedule` an emitter runs for ``spec``.

    ``spec`` is a prebuilt :class:`Schedule` (checked against this
    group/shapes), a :class:`ScheduleOptions`, or ``None`` for the
    defaults.  Loose keyword options and policy strings are resolved
    before this point, by
    :meth:`repro.backends.base.Backend.pop_schedule`.
    """
    norm = {g: tuple(int(x) for x in s) for g, s in shapes.items()}
    if isinstance(spec, Schedule):
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
        return spec
    if spec is not None and not isinstance(spec, ScheduleOptions):
        raise TypeError(
            f"schedule must be a Schedule or ScheduleOptions, "
            f"got {type(spec).__name__}"
        )
    return schedule_for(group, norm, spec)
