"""The schedule IR: legality-checked structure every backend consumes.

A :class:`Schedule` is the contract between the analysis layer and the
micro-compilers (paper SectionIV's narrow interface, made explicit):

* **phases** — barrier-separated groups from the Diophantine dependence
  plan (:class:`~repro.analysis.dag.ExecutionPlan`);
* **steps** — within a phase, each step is one loop nest / kernel
  launch: a maximal fused chain of independent same-domain stencils
  (or a singleton), tagged with its snapshot decision and, when the
  stencil's domain union is a checkerboard, the dense
  :class:`ParityClass` sweep that replaces the strided color sweeps;
* **evidence** — every non-trivial decision carries the analysis fact
  that legalizes it, so ``repro.explain`` can print the chain of
  custody instead of re-deriving it.

Backends never re-run fusion or multicolor detection: they walk the
phases/steps and emit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from ..analysis.dag import ExecutionPlan
from ..core.domains import ResolvedRect
from ..core.stencil import StencilGroup
from .options import ScheduleOptions

__all__ = [
    "ParityClass",
    "detect_parity_class",
    "Evidence",
    "TimeTile",
    "Step",
    "SchedulePhase",
    "Schedule",
]


# ---------------------------------------------------------------------------
# multicolor (parity-class) detection — single implementation, moved here
# from the C emitter so every backend shares it
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParityClass:
    """A union of stride-2 boxes equal to one parity class of a dense box."""

    base: tuple[int, ...]
    high: tuple[int, ...]  # inclusive
    parity: int


def detect_parity_class(rects: Sequence[ResolvedRect]) -> ParityClass | None:
    """Recognize checkerboard unions so they can be loop-fused.

    Requirements: >=2 boxes, all strides exactly 2, box lows differ from
    the per-dim minimum by 0/1, offsets enumerate every combination with
    one fixed total parity, and each box exactly fills its residue class
    of the common dense bounding box.
    """
    if len(rects) < 2:
        return None
    ndim = rects[0].ndim
    for r in rects:
        if any(st != 2 for st in r.strides):
            return None
    base = tuple(min(r.lows[d] for r in rects) for d in range(ndim))
    high = tuple(max(r.highs()[d] for r in rects) for d in range(ndim))
    offsets = set()
    for r in rects:
        off = tuple(r.lows[d] - base[d] for d in range(ndim))
        if any(o not in (0, 1) for o in off):
            return None
        if off in offsets:
            return None
        offsets.add(off)
        # exact residue fill of [base, high]
        for d in range(ndim):
            lo = r.lows[d]
            want_hi = lo + 2 * ((high[d] - lo) // 2)
            if r.highs()[d] != want_hi:
                return None
    parities = {sum(o) % 2 for o in offsets}
    if len(parities) != 1:
        return None
    parity = parities.pop()
    expected = {
        off
        for off in _binary_offsets(ndim)
        if sum(off) % 2 == parity
        and all(base[d] + off[d] <= high[d] for d in range(ndim))
    }
    if offsets != expected:
        return None
    return ParityClass(base, high, parity)


def _binary_offsets(ndim: int):
    import itertools

    return itertools.product((0, 1), repeat=ndim)


# ---------------------------------------------------------------------------
# the IR proper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Evidence:
    """One analysis fact legalizing one scheduling decision."""

    claim: str  # e.g. "fuse", "multicolor", "snapshot", "parallel"
    basis: str  # the Diophantine fact, human-readable

    def __str__(self) -> str:
        return f"{self.claim}: {self.basis}"


@dataclass(frozen=True)
class TimeTile:
    """The schedule's temporal-blocking dimension.

    ``k`` successive applications of the whole group are fused into one
    kernel invocation: every CPU backend lowers it to one outer time
    loop around the whole phase sequence (barriers intact per
    application), so the loop structure is read from the schedule's
    steps alone.  It buys ``k - 1`` call round trips; DRAM traffic only
    drops when the whole working set is cache resident
    (:func:`repro.kernel.cost.swept_cost`).

    ``slope`` is the maximal cross-application RAW halo and
    ``evidence`` carries the per-step Diophantine facts that legalize
    the fusion.
    """

    k: int
    slope: int = 0
    evidence: tuple[Evidence, ...] = ()

    def describe(self) -> str:
        return f"time tile: k={self.k} slope={self.slope}"

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "slope": self.slope,
            "evidence": [str(e) for e in self.evidence],
        }


@dataclass(frozen=True)
class Step:
    """One loop nest / kernel launch: a fused chain or a singleton.

    ``stencils`` are indices into the originating group, program order.
    ``snapshot`` means the (single) member is an in-place stencil with a
    proven loop-carried hazard and must read its output grid through a
    gather snapshot; fused chains are snapshot-free by construction.
    ``sweep`` is the dense parity-class nest replacing the member's
    strided color boxes, when recognized and enabled.
    """

    stencils: tuple[int, ...]
    parallel: bool
    snapshot: bool
    sweep: ParityClass | None = None
    evidence: tuple[Evidence, ...] = ()

    @property
    def head(self) -> int:
        return self.stencils[0]

    @property
    def fused(self) -> bool:
        return len(self.stencils) > 1


@dataclass(frozen=True)
class SchedulePhase:
    """Steps between two barriers; steps of a phase may run concurrently."""

    index: int
    steps: tuple[Step, ...]

    def stencils(self) -> tuple[int, ...]:
        return tuple(i for s in self.steps for i in s.stencils)


@dataclass(eq=False)
class Schedule:
    """The complete, legality-checked execution recipe for one group.

    Built once by :func:`repro.schedule.build_schedule`; consumed by all
    six backends.  ``plan`` keeps the underlying
    :class:`~repro.analysis.dag.ExecutionPlan` (dependence edges and
    barrier provenance); ``phases`` refine it with fusion, snapshot and
    sweep decisions.
    """

    group: StencilGroup
    shapes: Mapping[str, tuple[int, ...]]
    options: ScheduleOptions
    plan: ExecutionPlan
    phases: tuple[SchedulePhase, ...] = field(default_factory=tuple)
    #: temporal-blocking decision; ``None`` means one sweep per call
    time_tile: "TimeTile | None" = None

    def steps(self) -> Iterator[Step]:
        for ph in self.phases:
            yield from ph.steps

    def stencil_order(self) -> list[int]:
        """Group indices in execution order (interpreter backends)."""
        return [i for s in self.steps() for i in s.stencils]

    @property
    def n_steps(self) -> int:
        return sum(len(ph.steps) for ph in self.phases)

    def step_for(self, stencil_index: int) -> Step:
        for s in self.steps():
            if stencil_index in s.stencils:
                return s
        raise KeyError(f"stencil {stencil_index} not in schedule")

    def _names(self, idxs: Sequence[int]) -> str:
        return ", ".join(self.group[i].name for i in idxs)

    def describe(self) -> str:
        """Human-readable schedule with the evidence for each decision."""
        lines = [
            f"schedule for group {self.group.name!r}: "
            f"{len(self.group)} stencil(s), {len(self.phases)} phase(s), "
            f"{self.n_steps} step(s) [{self.options.describe()}]"
        ]
        if self.time_tile is not None:
            lines.append(self.time_tile.describe())
            for ev in self.time_tile.evidence:
                lines.append(f"  - {ev}")
        for ph in self.phases:
            lines.append(f"phase {ph.index}:")
            for s in ph.steps:
                kind = "fused chain" if s.fused else "step"
                tags = []
                if s.sweep is not None:
                    tags.append("multicolor sweep")
                if s.snapshot:
                    tags.append("snapshot")
                if s.parallel:
                    tags.append("parallel")
                tag = f" ({', '.join(tags)})" if tags else ""
                lines.append(
                    f"  {kind} {list(s.stencils)}: {self._names(s.stencils)}{tag}"
                )
                for ev in s.evidence:
                    lines.append(f"    - {ev}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-able view for dashboards and ``repro explain --json``."""
        return {
            "group": self.group.name,
            "options": self.options.to_dict(),
            "time_tile": (
                None if self.time_tile is None else self.time_tile.to_dict()
            ),
            "phases": [
                {
                    "index": ph.index,
                    "steps": [
                        {
                            "stencils": list(s.stencils),
                            "names": [
                                self.group[i].name for i in s.stencils
                            ],
                            "fused": s.fused,
                            "parallel": s.parallel,
                            "snapshot": s.snapshot,
                            "sweep": (
                                None
                                if s.sweep is None
                                else {
                                    "base": list(s.sweep.base),
                                    "high": list(s.sweep.high),
                                    "parity": s.sweep.parity,
                                }
                            ),
                            "evidence": [str(e) for e in s.evidence],
                        }
                        for s in ph.steps
                    ],
                }
                for ph in self.phases
            ],
        }
