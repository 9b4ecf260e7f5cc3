"""Schedule transforms: legality-checked rewrites of the schedule IR.

Each transform here takes a :class:`~repro.schedule.ir.Schedule` and
returns a new one; :func:`verify_schedule` re-validates every result
against the Diophantine/dependence evidence the lowering stage produced
(the :class:`~repro.analysis.dag.ExecutionPlan` edge set, the
intra-stencil hazard lattices, the parity-class recognition and the
time-tile verdict).  :class:`~repro.transform.base.Transform.__call__`
runs the verifier after every application, so an illegal composition
raises :class:`~repro.transform.base.TransformError` carrying the
refusing :class:`~repro.schedule.ir.Evidence` instead of producing a
schedule the backends would execute wrongly.

The lowercase factories (``fuse``, ``split``, ``tile``, ...) are the
public spelling; ``repro.transform.preset.preset_pipeline`` renders a
:class:`~repro.schedule.ScheduleOptions` record as a pipeline of these.
"""

from __future__ import annotations

from dataclasses import replace

from ..analysis.dependence import intra_stencil_hazards
from ..schedule.ir import Evidence, Schedule, SchedulePhase
from ..schedule.lower import (
    _make_step,
    _plan_time_tile,
    _sweep_verdict,
    fusion_chains,
    time_tile_verdict,
)
from .base import Transform, TransformError

__all__ = [
    "verify_schedule",
    "Fuse",
    "Distribute",
    "Split",
    "Reorder",
    "ColorSweep",
    "Tile",
    "Block",
    "Unroll",
    "TimeTile",
    "fuse",
    "distribute",
    "split",
    "reorder",
    "color_sweep",
    "tile",
    "block",
    "unroll",
    "time_tile",
]


# ---------------------------------------------------------------------------
# the verifier: every transform result is checked against the evidence
# ---------------------------------------------------------------------------


def verify_schedule(sched: Schedule) -> list[Evidence]:
    """Re-validate a schedule against its group's dependence evidence.

    Returns a list of refusing :class:`Evidence` (empty == legal).
    Checks, in order: coverage (every stencil exactly once), barrier
    ordering (no dependence edge within or across phases the wrong
    way), fused-step legality (shared domain/output map, snapshot-free,
    no RAW/WAW among members), snapshot/parallel flag correctness
    against the hazard lattices, sweep correctness against parity-class
    recognition, and — when a time tile is attached — the time-tile
    verdict including slope staleness.
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
    # a fused step — where only RAW/WAW is illegal (the fusion rule).
    for (i, j), kinds in sorted(exec_plan.dependences.items()):
        if i not in step_of or j not in step_of:
            continue
        if step_of[i] is step_of[j]:
            bad = {"RAW", "WAW"} & set(kinds)
            if bad:
                problems.append(
                    Evidence(
                        "fuse-refused",
                        f"{group[i].name} and {group[j].name} share a "
                        f"fused step but carry {sorted(bad)} dependence "
                        "(lattice intersection)",
                    )
                )
        elif phase_of[i] >= phase_of[j]:
            problems.append(
                Evidence(
                    "order-refused",
                    f"dependence {group[i].name} -> {group[j].name} "
                    f"({sorted(kinds)}) requires a barrier between "
                    f"them, but they sit in phases {phase_of[i]} and "
                    f"{phase_of[j]}",
                )
            )

    # per-step flags against the hazard lattices + sweep recognition
    hazards = [intra_stencil_hazards(s, norm) for s in group]
    for ph in sched.phases:
        for s in ph.steps:
            names = ", ".join(group[i].name for i in s.stencils)
            expect_par = all(not hazards[i] for i in s.stencils)
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
            expect_snap = (
                len(s.stencils) == 1
                and group[s.head].is_inplace()
                and bool(hazards[s.head])
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
                head = group[s.head]
                for j in s.stencils[1:]:
                    if (
                        group[j].domain != head.domain
                        or group[j].output_map != head.output_map
                    ):
                        problems.append(
                            Evidence(
                                "fuse-refused",
                                f"fused step members {head.name} and "
                                f"{group[j].name} differ in domain or "
                                "output map",
                            )
                        )
                snapshot_members = [
                    group[i].name
                    for i in s.stencils
                    if group[i].is_inplace() and hazards[i]
                ]
                if snapshot_members:
                    problems.append(
                        Evidence(
                            "fuse-refused",
                            f"fused step [{names}] contains members "
                            f"needing a gather snapshot: "
                            f"{snapshot_members}",
                        )
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

    if sched.time_tile is not None:
        steps = list(sched.steps())
        slope, _, refusals = time_tile_verdict(group, norm, steps)
        problems.extend(refusals)
        if not refusals and slope != sched.time_tile.slope:
            problems.append(
                Evidence(
                    "time-tile-refused",
                    f"attached time tile assumes cross-application halo "
                    f"{sched.time_tile.slope} but the current steps "
                    f"prove slope {slope}; re-plan the tile after "
                    "restructuring",
                )
            )
    return problems


# ---------------------------------------------------------------------------
# structural transforms
# ---------------------------------------------------------------------------


class Fuse(Transform):
    """Fuse same-phase chains of independent stencils into single steps.

    ``chains=None`` (the default) fuses exactly what
    :func:`~repro.schedule.lower.fusion_chains` proves legal — the
    preset behaviour of ``ScheduleOptions(fuse=True)``.  Explicit
    ``chains`` (sequences of group indices) are validated against the
    same rules and refused with ``fuse-refused`` evidence on any
    violation: barrier straddle, domain/output-map mismatch, snapshot
    member, or RAW/WAW among members.
    """

    name = "fuse"

    def __init__(self, chains=None) -> None:
        self.chains = (
            None
            if chains is None
            else tuple(tuple(int(i) for i in c) for c in chains)
        )

    def describe(self) -> str:
        if self.chains is None:
            return "fuse()"
        return f"fuse({[list(c) for c in self.chains]})"

    def apply_schedule(self, sched: Schedule) -> Schedule:
        group = sched.group
        norm = dict(sched.shapes)
        exec_plan = sched.plan
        hazards = [intra_stencil_hazards(s, norm) for s in group]
        opts = replace(sched.options, fuse=True)
        if self.chains is None:
            chains = fusion_chains(
                group, norm, deps=exec_plan.dependences,
                within=exec_plan.phases,
            )
        else:
            chains = [list(c) for c in self.chains]
            problems = _check_chains(group, norm, exec_plan, hazards, chains)
            if problems:
                raise TransformError(
                    f"{self.describe()} is illegal: "
                    + "; ".join(str(p) for p in problems),
                    refusals=tuple(problems),
                )
        chain_of_head = {c[0]: c for c in chains}
        phases: list[SchedulePhase] = []
        for pi, phase in enumerate(exec_plan.phases):
            steps = []
            emitted: set[int] = set()
            for si in phase:
                if si in emitted:
                    continue
                chain = chain_of_head.get(si, [si])
                emitted.update(chain)
                steps.append(_make_step(group, norm, chain, hazards, opts))
            phases.append(SchedulePhase(pi, tuple(steps)))
        return replace(sched, options=opts, phases=tuple(phases))


def _check_chains(group, norm, exec_plan, hazards, chains) -> list[Evidence]:
    """Validate explicit fusion chains; returns refusing evidence."""
    problems: list[Evidence] = []
    phase_of = {
        i: pi for pi, ph in enumerate(exec_plan.phases) for i in ph
    }
    deps = exec_plan.dependences
    taken: set[int] = set()
    for c in chains:
        if not c:
            problems.append(Evidence("fuse-refused", "empty chain"))
            continue
        if any(not 0 <= i < len(group) for i in c):
            problems.append(
                Evidence(
                    "fuse-refused",
                    f"chain {list(c)} names stencils outside group "
                    f"{group.name!r} (size {len(group)})",
                )
            )
            continue
        overlap = sorted(set(c) & taken)
        if overlap:
            problems.append(
                Evidence(
                    "fuse-refused",
                    f"chain {list(c)} overlaps another chain on "
                    f"indices {overlap}",
                )
            )
        taken.update(c)
        if list(c) != sorted(set(c)):
            problems.append(
                Evidence(
                    "fuse-refused",
                    f"chain {list(c)} is not strictly increasing "
                    "program order",
                )
            )
            continue
        chain_phases = sorted({phase_of[i] for i in c})
        if len(chain_phases) > 1:
            problems.append(
                Evidence(
                    "fuse-refused",
                    f"chain {list(c)} straddles a barrier: members "
                    f"span phases {chain_phases}",
                )
            )
        head = group[c[0]]
        for j in c[1:]:
            if group[j].domain != head.domain:
                problems.append(
                    Evidence(
                        "fuse-refused",
                        f"{group[j].name} and {head.name} iterate "
                        "different domains",
                    )
                )
            if group[j].output_map != head.output_map:
                problems.append(
                    Evidence(
                        "fuse-refused",
                        f"{group[j].name} and {head.name} write through "
                        "different output maps",
                    )
                )
        for i in c:
            if group[i].is_inplace() and hazards[i]:
                problems.append(
                    Evidence(
                        "fuse-refused",
                        f"{group[i].name} needs a gather snapshot "
                        "(loop-carried hazard); fused chains must be "
                        "snapshot-free",
                    )
                )
        for a in range(len(c)):
            for b in range(a + 1, len(c)):
                bad = {"RAW", "WAW"} & set(deps.get((c[a], c[b]), ()))
                if bad:
                    problems.append(
                        Evidence(
                            "fuse-refused",
                            f"{group[c[a]].name} -> {group[c[b]].name} "
                            f"carries {sorted(bad)} dependence (lattice "
                            "intersection); members must be independent",
                        )
                    )
    return problems


class Distribute(Transform):
    """Undo fusion: every step becomes a run of singleton steps."""

    name = "distribute"

    def apply_schedule(self, sched: Schedule) -> Schedule:
        group = sched.group
        norm = dict(sched.shapes)
        hazards = [intra_stencil_hazards(s, norm) for s in group]
        opts = replace(sched.options, fuse=False)
        phases: list[SchedulePhase] = []
        for ph in sched.phases:
            steps = []
            for s in ph.steps:
                for i in s.stencils:
                    steps.append(_make_step(group, norm, [i], hazards, opts))
            phases.append(SchedulePhase(ph.index, tuple(steps)))
        return replace(sched, options=opts, phases=tuple(phases))


class Split(Transform):
    """Split one fused step into two at a chain position.

    ``step_index`` is the flat step ordinal (over
    :meth:`~repro.schedule.ir.Schedule.steps`); ``at`` is the chain
    position the second half starts at (``1 <= at < len(chain)``).
    Splitting a singleton, or at an out-of-range position, is refused
    with ``split-refused`` evidence.
    """

    name = "split"

    def __init__(self, step_index: int, at: int) -> None:
        self.step_index = int(step_index)
        self.at = int(at)

    def describe(self) -> str:
        return f"split({self.step_index}, {self.at})"

    def apply_schedule(self, sched: Schedule) -> Schedule:
        flat = list(sched.steps())
        if not 0 <= self.step_index < len(flat):
            raise TransformError(
                f"{self.describe()}: no such step",
                evidence=Evidence(
                    "split-refused",
                    f"step index {self.step_index} out of range "
                    f"(schedule has {len(flat)} steps)",
                ),
            )
        target = flat[self.step_index]
        names = ", ".join(sched.group[i].name for i in target.stencils)
        if len(target.stencils) < 2:
            raise TransformError(
                f"{self.describe()}: step [{names}] is a singleton",
                evidence=Evidence(
                    "split-refused",
                    f"step [{names}] holds one stencil; nothing to split",
                ),
            )
        if not 1 <= self.at < len(target.stencils):
            raise TransformError(
                f"{self.describe()}: split point out of range",
                evidence=Evidence(
                    "split-refused",
                    f"split point {self.at} outside "
                    f"1..{len(target.stencils) - 1} for step [{names}]",
                ),
            )
        group = sched.group
        norm = dict(sched.shapes)
        hazards = [intra_stencil_hazards(s, norm) for s in group]
        left = _make_step(
            group, norm, list(target.stencils[: self.at]), hazards,
            sched.options,
        )
        right = _make_step(
            group, norm, list(target.stencils[self.at:]), hazards,
            sched.options,
        )
        k = 0
        phases: list[SchedulePhase] = []
        for ph in sched.phases:
            steps = []
            for s in ph.steps:
                if k == self.step_index:
                    steps.extend((left, right))
                else:
                    steps.append(s)
                k += 1
            phases.append(SchedulePhase(ph.index, tuple(steps)))
        return replace(sched, phases=tuple(phases))


class Reorder(Transform):
    """Permute the steps of one phase (steps of a phase are unordered).

    A sequence that is not a permutation of the phase's step indices is
    refused with ``reorder-refused`` evidence; the post-verify catches
    any dependence the new order would violate (it cannot — same-phase
    steps are independent by construction — but hand-built schedules
    are re-checked all the same).
    """

    name = "reorder"

    def __init__(self, phase_index: int, permutation) -> None:
        self.phase_index = int(phase_index)
        self.permutation = tuple(int(i) for i in permutation)

    def describe(self) -> str:
        return f"reorder({self.phase_index}, {list(self.permutation)})"

    def apply_schedule(self, sched: Schedule) -> Schedule:
        if not 0 <= self.phase_index < len(sched.phases):
            raise TransformError(
                f"{self.describe()}: no such phase",
                evidence=Evidence(
                    "reorder-refused",
                    f"phase index {self.phase_index} out of range "
                    f"(schedule has {len(sched.phases)} phases)",
                ),
            )
        ph = sched.phases[self.phase_index]
        if sorted(self.permutation) != list(range(len(ph.steps))):
            raise TransformError(
                f"{self.describe()}: not a permutation",
                evidence=Evidence(
                    "reorder-refused",
                    f"{list(self.permutation)} is not a permutation of "
                    f"0..{len(ph.steps) - 1} (phase {self.phase_index} "
                    f"has {len(ph.steps)} steps)",
                ),
            )
        steps = tuple(ph.steps[i] for i in self.permutation)
        phases = list(sched.phases)
        phases[self.phase_index] = SchedulePhase(ph.index, steps)
        return replace(sched, phases=tuple(phases))


class ColorSweep(Transform):
    """Recognize checkerboard domain unions as parity-class sweeps.

    Steps whose domain union is not a parity class pass through
    untouched — recognition is opportunistic, exactly as
    ``ScheduleOptions(multicolor=True)`` behaves.
    """

    name = "color_sweep"

    def apply_schedule(self, sched: Schedule) -> Schedule:
        group = sched.group
        norm = dict(sched.shapes)
        opts = replace(sched.options, multicolor=True)
        phases: list[SchedulePhase] = []
        for ph in sched.phases:
            steps = []
            for s in ph.steps:
                if s.sweep is None:
                    sweep, ev = _sweep_verdict(group, norm, s.head)
                    if sweep is not None:
                        s = replace(
                            s, sweep=sweep, evidence=s.evidence + (ev,)
                        )
                steps.append(s)
            phases.append(SchedulePhase(ph.index, tuple(steps)))
        return replace(sched, options=opts, phases=tuple(phases))


# ---------------------------------------------------------------------------
# knob transforms (rewrite the options record; backends read it)
# ---------------------------------------------------------------------------


class _Knob(Transform):
    """Base for option-field transforms; validation errors become typed."""

    field = ""

    def __init__(self, value) -> None:
        self.value = value

    def describe(self) -> str:
        return f"{self.name}({self.value!r})"

    def apply_schedule(self, sched: Schedule) -> Schedule:
        try:
            opts = replace(sched.options, **{self.field: self.value})
        except ValueError as e:
            raise TransformError(
                f"{self.describe()}: {e}",
                evidence=Evidence(f"{self.name}-refused", str(e)),
            ) from e
        return replace(sched, options=opts)


class Tile(_Knob):
    """Cache-block / task-granularity size on the outermost free loop."""

    name = "tile"
    field = "tile"

    def describe(self) -> str:
        return f"tile({self.value})"


class Block(_Knob):
    """2-D thread-block shape for the CUDA target."""

    name = "block"
    field = "block"

    def describe(self) -> str:
        b = self.value
        try:
            return f"block(({int(b[0])}, {int(b[1])}))"
        except (TypeError, ValueError, IndexError):
            return f"block({b!r})"


class Unroll(_Knob):
    """Innermost-loop unroll factor hint for the C-family targets."""

    name = "unroll"
    field = "unroll"

    def describe(self) -> str:
        return f"unroll({self.value})"


class TimeTile(Transform):
    """Temporal blocking: fuse ``k`` group applications into one call.

    Legalized by :func:`~repro.schedule.lower.time_tile_verdict`; a
    schedule whose steps need per-application snapshots, write through
    scaled maps, or read unbounded (wrap-around) footprints refuses with
    the full ``time-tile-refused`` evidence list.  ``k = 1`` removes an
    attached tile.
    """

    name = "time_tile"

    def __init__(self, k: int) -> None:
        self.k = int(k)

    def describe(self) -> str:
        return f"time_tile({self.k})"

    def apply_schedule(self, sched: Schedule) -> Schedule:
        try:
            opts = replace(sched.options, time_tile=self.k)
        except ValueError as e:
            raise TransformError(
                f"{self.describe()}: {e}",
                evidence=Evidence("time-tile-refused", str(e)),
            ) from e
        if self.k <= 1:
            return replace(sched, options=opts, time_tile=None)
        tt = _plan_time_tile(
            sched.group, dict(sched.shapes), sched.phases, self.k
        )
        return replace(sched, options=opts, time_tile=tt)


# ---------------------------------------------------------------------------
# factories (the public spelling)
# ---------------------------------------------------------------------------


def fuse(chains=None) -> Fuse:
    return Fuse(chains)


def distribute() -> Distribute:
    return Distribute()


def split(step_index: int, at: int) -> Split:
    return Split(step_index, at)


def reorder(phase_index: int, permutation) -> Reorder:
    return Reorder(phase_index, permutation)


def color_sweep() -> ColorSweep:
    return ColorSweep()


def tile(n: int) -> Tile:
    return Tile(n)


def block(b) -> Block:
    return Block(b)


def unroll(n: int) -> Unroll:
    return Unroll(n)


def time_tile(k: int) -> TimeTile:
    return TimeTile(k)
