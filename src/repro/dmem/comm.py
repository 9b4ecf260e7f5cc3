"""SimComm: an in-process, MPI-shaped message-passing fabric.

Mirrors the mpi4py calling convention for the subset a halo-exchange
backend needs — ``send``/``recv`` of numpy arrays addressed by
``(source, dest, tag)``, and a barrier.  Because every rank runs in one
process under a lock-step driver, a ``recv`` with no matching message
is a *provable* deadlock and raises immediately instead of hanging;
tests use that to assert exchange protocols are complete.

Traffic accounting (`bytes_sent`, `messages`) stands in for the wire:
the distributed benchmarks report communication volume per sweep,
which is platform-independent truth even on a simulated fabric.

Fault injection (:mod:`repro.resilience.faults`) models an unreliable
wire: ``comm.send.drop`` loses a message on the send side,
``comm.recv.drop`` discards it at delivery, and
``comm.payload.corrupt`` bit-flips the in-flight copy — each
deterministic and site-addressed, so exchange protocols can be tested
against the failures real fabrics produce.  ``barrier(strict=True)``
(or ``world(..., strict_barriers=True)``) turns a barrier into a
protocol audit: any message still undelivered raises :class:`CommError`
instead of being silently counted.

Rank failure is modelled too: :meth:`kill` marks a rank dead (the
``comm.rank.crash`` fault site does this mid-sweep in the distributed
executor).  A dead rank's sends are discarded, and receiving from a
dead rank with nothing in flight raises :class:`RankFailure` — the
in-process stand-in for the recv-timeout/ack-loss detection a real
fabric would use — instead of the provable-deadlock :class:`CommError`,
so callers can distinguish "peer died" (recoverable by
:mod:`repro.dmem.recovery`) from "protocol bug" (never recoverable).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np

from .. import telemetry
from ..resilience.faults import fault_point

__all__ = ["CommError", "RankFailure", "SimComm"]


class CommError(RuntimeError):
    """Protocol violation: missing message, bad rank, type mismatch."""


class RankFailure(RuntimeError):
    """A peer rank has crashed (detected via recv timeout / ack loss).

    Carries the dead rank in ``.rank``.  Unlike :class:`CommError`
    (a protocol bug that no amount of retrying fixes), a
    ``RankFailure`` is the signal the checkpoint/restart layer
    (:mod:`repro.dmem.recovery`) recovers from.
    """

    def __init__(self, rank: int, detail: str = "") -> None:
        self.rank = rank
        super().__init__(
            f"rank {rank} has failed"
            + (f": {detail}" if detail else "")
        )


@dataclass
class _Stats:
    messages: int = 0
    bytes_sent: int = 0
    barriers: int = 0
    dropped: int = 0  # messages lost to injected send/recv drops
    corrupted: int = 0  # payloads bit-flipped by injected corruption
    retransmits: int = 0  # reliable-transport re-sends of lost envelopes
    duplicates: int = 0  # duplicate envelopes discarded by dedup
    reordered: int = 0  # envelopes delivered out of sequence order
    acked: int = 0  # envelopes confirmed delivered exactly once
    crc_failures: int = 0  # envelopes rejected by transport CRC
    crashes: int = 0  # ranks killed (comm.rank.crash or kill())
    restores: int = 0  # checkpoint restores performed by recovery
    barrier_failures: int = 0  # strict-barrier audits that found pending msgs

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in _STATS_FIELDS}


_STATS_FIELDS = _Stats.__dataclass_fields__.values()


class _Fabric:
    """Shared mailbox store for one communicator."""

    def __init__(self, size: int, strict_barriers: bool = False) -> None:
        self.size = size
        self.strict_barriers = strict_barriers
        self.boxes: dict[tuple[int, int, int], deque] = defaultdict(deque)
        self.stats = _Stats()
        self.dead: set[int] = set()


class SimComm:
    """One rank's endpoint on a simulated communicator.

    Create the world with :meth:`world`; each element plays the role of
    ``MPI.COMM_WORLD`` on its rank.
    """

    def __init__(self, fabric: _Fabric, rank: int) -> None:
        self._fabric = fabric
        self._rank = rank

    # -- construction --------------------------------------------------------

    @staticmethod
    def world(size: int, *, strict_barriers: bool = False) -> list["SimComm"]:
        """Create all rank endpoints; ``strict_barriers=True`` makes
        every :meth:`barrier` audit for undelivered messages."""
        if size < 1:
            raise ValueError("communicator size must be >= 1")
        fabric = _Fabric(size, strict_barriers=strict_barriers)
        return [SimComm(fabric, r) for r in range(size)]

    # -- mpi4py-flavoured surface ----------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._fabric.size

    def send(self, data: np.ndarray, dest: int, tag: int = 0) -> None:
        """Copy-out send (the wire owns its bytes, as with real MPI).

        Sends addressed to a dead rank vanish into the void, exactly as
        on a real fabric — the sender cannot tell a dead peer from a
        slow one until it waits for a reply.
        """
        self._check_rank(dest)
        if dest == self._rank:
            raise CommError("self-send is always a protocol bug here")
        if dest in self._fabric.dead:
            self._fabric.stats.dropped += 1
            telemetry.count("dmem.dropped")
            return
        arr = np.array(data, copy=True)
        if fault_point("comm.send.drop"):
            self._fabric.stats.dropped += 1
            telemetry.count("dmem.dropped")
            return
        if fault_point("comm.payload.corrupt") and arr.nbytes:
            # deterministic byte-flip on the wire copy: the high byte of
            # the middle element (for floats, the sign/exponent byte —
            # a corruption large enough to matter, not a rounding blip)
            mid = (arr.size // 2) * arr.itemsize + (arr.itemsize - 1)
            arr.view(np.uint8).flat[mid] ^= 0xFF
            self._fabric.stats.corrupted += 1
            telemetry.count("dmem.corrupted")
        self._fabric.boxes[(self._rank, dest, tag)].append(arr)
        self._fabric.stats.messages += 1
        self._fabric.stats.bytes_sent += arr.nbytes
        telemetry.count("dmem.messages")
        telemetry.count("dmem.bytes_sent", arr.nbytes)

    def recv(self, source: int, tag: int = 0) -> np.ndarray:
        """Receive the next matching message; raises on guaranteed deadlock."""
        self._check_rank(source)
        box = self._fabric.boxes.get((source, self._rank, tag))
        if box and fault_point("comm.recv.drop"):
            box.popleft()  # lost at delivery; the CommError below is
            self._fabric.stats.dropped += 1  # how the loss surfaces
            telemetry.count("dmem.dropped")
        if not box:
            if source in self._fabric.dead:
                raise RankFailure(
                    source,
                    f"rank {self._rank} recv(source={source}, tag={tag}) "
                    "timed out — peer is dead and nothing is in flight",
                )
            raise CommError(
                f"rank {self._rank} recv(source={source}, tag={tag}): "
                "no matching message — in a real run this rank would "
                "deadlock"
            )
        return box.popleft()

    def barrier(self, strict: bool | None = None) -> None:
        """Synchronization point (a counter on the lock-step fabric).

        With ``strict=True`` (or a ``strict_barriers`` world), messages
        still undelivered at the barrier are a protocol bug — an
        exchange enqueued sends that nobody received — and raise
        :class:`CommError` naming the offending mailboxes.
        """
        self._fabric.stats.barriers += 1
        telemetry.count("dmem.barriers")
        telemetry.event("dmem.barrier", lane=f"rank {self._rank}")
        if strict is None:
            strict = self._fabric.strict_barriers
        if strict:
            pending = {
                key: len(box)
                for key, box in self._fabric.boxes.items()
                if box
            }
            if pending:
                self._fabric.stats.barrier_failures += 1
                telemetry.count("dmem.barrier_failures")
                detail = ", ".join(
                    f"src={s}->dest={d} tag={t}: {n} msg(s)"
                    for (s, d, t), n in sorted(pending.items())
                )
                raise CommError(
                    f"strict barrier: {sum(pending.values())} message(s) "
                    f"still pending ({detail}) — incomplete exchange "
                    "protocol"
                )

    # -- rank liveness ---------------------------------------------------------

    def kill(self, rank: int) -> None:
        """Mark ``rank`` dead fabric-wide (the crash model)."""
        self._check_rank(rank)
        if rank not in self._fabric.dead:
            self._fabric.dead.add(rank)
            self._fabric.stats.crashes += 1
            telemetry.count("dmem.crashes")
            telemetry.event(
                "dmem.rank.crash", lane=f"rank {rank}", rank=rank
            )

    def revive(self, rank: int) -> None:
        """Bring a dead rank back (a restart under recovery)."""
        self._check_rank(rank)
        self._fabric.dead.discard(rank)

    def alive(self, rank: int) -> bool:
        self._check_rank(rank)
        return rank not in self._fabric.dead

    def dead_ranks(self) -> frozenset[int]:
        return frozenset(self._fabric.dead)

    # -- accounting -----------------------------------------------------------

    @property
    def stats(self) -> _Stats:
        return self._fabric.stats

    def probe(self, source: int, tag: int = 0) -> int:
        """How many messages are waiting on ``(source, self, tag)``
        (the ``MPI_Iprobe`` analogue the reliable transport drains with)."""
        self._check_rank(source)
        box = self._fabric.boxes.get((source, self._rank, tag))
        return len(box) if box else 0

    def purge(self) -> int:
        """Discard every undelivered message fabric-wide; returns the
        count.  Used by recovery: a rollback invalidates in-flight
        traffic from the abandoned timeline."""
        n = sum(len(b) for b in self._fabric.boxes.values())
        self._fabric.boxes.clear()
        return n

    # -- internals -------------------------------------------------------------

    def _check_rank(self, r: int) -> None:
        if not (0 <= r < self._fabric.size):
            raise CommError(
                f"rank {r} out of range for size-{self._fabric.size} world"
            )
