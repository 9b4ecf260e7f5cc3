"""Checkpoint/restart for the distributed executor.

A rank crash (the ``comm.rank.crash`` fault, surfacing as
:class:`~repro.dmem.comm.RankFailure`) would otherwise lose every
rank's in-flight sweep.  This module gives
:class:`~repro.dmem.executor.DistributedKernel` the classic
coordinated-checkpoint protocol:

* every ``interval`` sweeps, :class:`Checkpoint` captures a deep copy
  of each rank's local blocks and the sweep counter;
* each captured block is fingerprinted with
  :func:`~repro.resilience.guards.halo_crc`, and every restore
  re-verifies every fingerprint plus the dtype/shape invariants the
  runtime guards check, so a corrupted checkpoint can never be silently
  replayed;
* on a :class:`RankFailure`, :class:`RecoveryManager` revives the dead
  ranks, resets the reliable transport (rolling back invalidates every
  in-flight message and sequence number — all ranks restart from one
  consistent cut), restores the snapshot, and replays from the
  checkpointed sweep.  Restarts are bounded by
  :class:`RecoveryPolicy.max_restarts`; exhausting them raises
  :class:`RecoveryExhausted` carrying the failure history.

Because the per-rank kernels are deterministic and the snapshot is the
*complete* rank state, a replayed run is bitwise-identical to one that
never crashed — the acceptance property the dmem fault matrix asserts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import telemetry
from ..resilience.guards import halo_crc

__all__ = [
    "RecoveryPolicy",
    "Checkpoint",
    "CheckpointError",
    "RecoveryExhausted",
    "RecoveryManager",
]


class CheckpointError(RuntimeError):
    """A snapshot failed verification at restore time."""


class RecoveryExhausted(RuntimeError):
    """The bounded restart budget ran out; carries the failure log."""

    def __init__(self, restarts: int, history: list[str]) -> None:
        self.restarts = restarts
        self.history = list(history)
        lines = "\n".join(f"  {h}" for h in self.history)
        super().__init__(
            f"gave up after {restarts} restart(s); failures:\n{lines}"
        )


@dataclass(frozen=True)
class RecoveryPolicy:
    """How a distributed run checkpoints and restarts.

    ``interval`` — sweeps between snapshots (1 = after every sweep);
    ``max_restarts`` — crash recoveries tolerated per ``run()`` before
    :class:`RecoveryExhausted`.  A restore always re-verifies block
    CRCs and grid invariants; the fault-injection schedule is never
    re-armed (a replayed crash would loop the recovery it triggered).
    """

    interval: int = 1
    max_restarts: int = 3

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError("checkpoint interval must be >= 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")


@dataclass
class Checkpoint:
    """One coordinated snapshot of every rank's state."""

    sweep: int
    blocks: list[dict[str, np.ndarray]]
    crcs: list[dict[str, int]]

    @classmethod
    def capture(
        cls, sweep: int, locals_: list[dict[str, np.ndarray]]
    ) -> "Checkpoint":
        blocks = [
            {g: np.array(a, copy=True) for g, a in rank.items()}
            for rank in locals_
        ]
        crcs = [
            {g: halo_crc(a) for g, a in rank.items()} for rank in blocks
        ]
        telemetry.count("dmem.recovery.checkpoints")
        telemetry.event("dmem.checkpoint", sweep=sweep, ranks=len(blocks))
        return cls(sweep=sweep, blocks=blocks, crcs=crcs)

    def verify(self) -> None:
        """Re-fingerprint every captured block; a mismatch means the
        snapshot itself was corrupted since capture."""
        for r, (rank, want) in enumerate(zip(self.blocks, self.crcs)):
            for g, a in rank.items():
                got = halo_crc(a)
                if got != want[g]:
                    raise CheckpointError(
                        f"checkpoint at sweep {self.sweep}: rank {r} "
                        f"grid {g!r} failed CRC "
                        f"({want[g]:#010x} -> {got:#010x}) — snapshot "
                        "corrupted, refusing to restore"
                    )

    def restore_into(self, locals_: list[dict[str, np.ndarray]]) -> None:
        """Copy the snapshot back over the live rank state.

        The block CRCs are re-checked first, and every target grid must
        still satisfy the dtype/shape invariants the runtime guards
        watch — a restore may never scribble a differently-shaped
        timeline over live arrays.
        """
        self.verify()
        if len(locals_) != len(self.blocks):
            raise CheckpointError(
                f"checkpoint spans {len(self.blocks)} rank(s), live "
                f"state has {len(locals_)}"
            )
        for r, (live, snap) in enumerate(zip(locals_, self.blocks)):
            if set(live) != set(snap):
                raise CheckpointError(
                    f"rank {r}: grid set changed since checkpoint "
                    f"({sorted(snap)} -> {sorted(live)})"
                )
            for g, a in snap.items():
                tgt = live[g]
                if tgt.dtype != a.dtype or tgt.shape != a.shape:
                    raise CheckpointError(
                        f"rank {r} grid {g!r} invariants changed since "
                        f"checkpoint: dtype {a.dtype}->{tgt.dtype}, "
                        f"shape {a.shape}->{tgt.shape}"
                    )
                tgt[...] = a


class RecoveryManager:
    """Drives a :class:`DistributedKernel`'s sweeps under a policy.

    Owned by :meth:`DistributedKernel.run`; kept separate so the
    executor's hot path stays free of recovery bookkeeping.
    """

    def __init__(self, kernel, policy: RecoveryPolicy) -> None:
        self.kernel = kernel
        self.policy = policy
        self.restarts = 0
        self.history: list[str] = []

    def run(self, times: int) -> None:
        from .comm import RankFailure

        dk = self.kernel
        locals_ = dk._locals
        ckpt = Checkpoint.capture(0, locals_)
        sweep = 0
        while sweep < times:
            try:
                dk._sweep(locals_)
            except RankFailure as f:
                self.restarts += 1
                self.history.append(
                    f"sweep {sweep + 1}: {f} (restored to sweep "
                    f"{ckpt.sweep})"
                )
                telemetry.count("dmem.recovery.rank_failures")
                telemetry.event(
                    "dmem.rank.failure",
                    sweep=sweep + 1, rank=f.rank,
                    restored_to=ckpt.sweep, restart=self.restarts,
                )
                if self.restarts > self.policy.max_restarts:
                    raise RecoveryExhausted(
                        self.restarts - 1, self.history
                    ) from f
                self._restore(ckpt)
                sweep = ckpt.sweep
                continue
            sweep += 1
            if sweep < times and sweep % self.policy.interval == 0:
                ckpt = Checkpoint.capture(sweep, locals_)

    def _restore(self, ckpt: Checkpoint) -> None:
        dk = self.kernel
        with telemetry.tracing.span(
            "recovery.restore", cat="dmem", sweep=ckpt.sweep,
            restart=self.restarts,
        ):
            comm = dk.comms[0]
            for r in sorted(comm.dead_ranks()):
                comm.revive(r)
            purged = dk.transport[0].reset()
            ckpt.restore_into(dk._locals)
            comm.stats.restores += 1
            telemetry.count("dmem.restores")
            telemetry.event(
                "dmem.restore",
                sweep=ckpt.sweep, restart=self.restarts,
                purged_messages=purged,
            )
