"""The single scheduling-option vocabulary shared by every backend.

The fields of :class:`ScheduleOptions` are the scheduling options of all
six built-in backends, whichever way they are spelled: loose keyword
arguments to ``compile`` (``tile=8``, ``schedule="wavefront"``) and
``schedule=ScheduleOptions(...)`` go through the same check in
:meth:`repro.backends.base.Backend.pop_schedule`.

There are two kinds of field.

*Hints* — ``policy``, ``fuse``, ``multicolor``, ``tile``, ``block``,
``unroll`` — reorder or decorate the loops and never change a result.  A
backend with no lowering for a hint accepts it and ignores it, so the
same options can be handed to every link of a fallback chain.

``time_tile`` is the one *semantic* field: a kernel built with
``time_tile=k`` performs ``k`` applications per call.  Every built-in
backend honours it on every group (the bound call runs the one-application
kernel ``k`` times, or on ``c`` the kernel lags the applications in
one plane loop), and none drops it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["POLICIES", "ScheduleOptions"]

#: barrier-placement policies understood by :func:`repro.analysis.dag.plan`
POLICIES = ("greedy", "wavefront", "serial")


@dataclass(frozen=True)
class ScheduleOptions:
    """Every decision :func:`~repro.schedule.build_schedule` can make.

    ``policy``
        Barrier placement: ``greedy`` (the paper's in-order policy),
        ``wavefront`` (ASAP reordering), or ``serial``.
    ``fuse``
        Fuse runs of independent stencils *within a phase* into one
        loop nest / kernel: members share a domain and either one output
        map or one iteration grid with their writes proven pairwise
        disjoint (:func:`~repro.schedule.lower.fusion_refusals`).  On by
        default on ``c`` and ``openmp``.
    ``multicolor``
        Recognize checkerboard domain unions and emit one
        parity-corrected dense sweep instead of 2^(d-1) strided sweeps.
    ``tile``
        Cache-block / task-granularity size on the outermost free loop
        (CPU targets only; ``None`` disables tiling).
    ``block``
        2-D thread-block shape for the CUDA target (``None`` keeps the
        backend default).
    ``time_tile``
        Temporal blocking: this many successive applications of the
        whole group in one kernel invocation, ``1`` (the default) a
        single sweep.  The bound call runs the one-application kernel
        ``k`` times, so ``k > 1`` is ``k`` calls by construction, legal
        on every group;
        where the grids pass the measured knee, ``c`` runs the
        applications in one plane loop instead, each its proven
        application lag behind the last (still ``k`` calls bit for bit).
    ``unroll``
        Innermost-loop unroll factor hint for the C-family targets
        (emitted as ``#pragma GCC unroll N``); a pure performance hint
        — the generated arithmetic is unchanged, so results stay
        bitwise identical.  ``None`` (the default) emits no pragma.
    """

    policy: str = "greedy"
    fuse: bool = False
    multicolor: bool = True
    tile: int | None = None
    block: tuple[int, int] | None = None
    time_tile: int = 1
    unroll: int | None = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown scheduling policy {self.policy!r}; "
                f"choose from {POLICIES}"
            )
        object.__setattr__(self, "fuse", bool(self.fuse))
        object.__setattr__(self, "multicolor", bool(self.multicolor))
        if self.tile is not None:
            t = int(self.tile)
            if t < 1:
                raise ValueError(f"tile must be a positive int, got {self.tile!r}")
            object.__setattr__(self, "tile", t)
        if self.block is not None:
            b = tuple(int(x) for x in self.block)
            if len(b) != 2 or any(x < 1 for x in b):
                raise ValueError(
                    f"block must be a pair of positive ints, got {self.block!r}"
                )
            object.__setattr__(self, "block", b)
        k = int(self.time_tile)
        if k < 1:
            raise ValueError(
                f"time_tile must be a positive int, got {self.time_tile!r}"
            )
        object.__setattr__(self, "time_tile", k)
        if self.unroll is not None:
            u = int(self.unroll)
            if u < 1:
                raise ValueError(
                    f"unroll must be a positive int, got {self.unroll!r}"
                )
            object.__setattr__(self, "unroll", u)

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "fuse": self.fuse,
            "multicolor": self.multicolor,
            "tile": self.tile,
            "block": list(self.block) if self.block is not None else None,
            "time_tile": self.time_tile,
            "unroll": self.unroll,
        }

    def describe(self) -> str:
        parts = [f"policy={self.policy}"]
        for f in ("fuse", "multicolor"):
            parts.append(f"{f}={'on' if getattr(self, f) else 'off'}")
        if self.tile is not None:
            parts.append(f"tile={self.tile}")
        if self.block is not None:
            parts.append(f"block={self.block[0]}x{self.block[1]}")
        if self.time_tile > 1:
            parts.append(f"time_tile={self.time_tile}")
        if self.unroll is not None:
            parts.append(f"unroll={self.unroll}")
        return " ".join(parts)
