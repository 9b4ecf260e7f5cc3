"""Reliable halo transport: exactly-once delivery over an unreliable wire.

:class:`~repro.dmem.comm.SimComm` models the raw fabric, including its
failure modes — injected send/delivery drops, in-flight corruption,
and (at this layer) duplication and reordering.  :class:`ReliableComm`
turns that lossy wire into the delivery contract a distributed solver
actually needs:

* **sequenced** — every logical message on a ``(src, dest, tag)``
  channel carries a sequence number; receivers deliver in send order,
  stashing early arrivals (``comm.msg.reorder``) until the gap fills;
* **deduplicated** — envelopes already delivered or stashed
  (``comm.msg.duplicate``, or retransmitted copies racing the
  original) are discarded and counted, never delivered twice;
* **integrity-checked** — each envelope is fingerprinted with the same
  CRC32 the halo guards use (:func:`repro.resilience.guards.halo_crc`)
  over header *and* payload, so corruption anywhere in the envelope
  (``comm.payload.corrupt``) is detected, reported through the
  ``halo_checksum`` guard, and healed by retransmission;
* **acked + retransmitted** — senders keep every envelope in a
  per-channel log until the receiver confirms delivery; a receiver
  that comes up empty requests retransmission of the whole unacked
  window, up to ``max_retries`` times, with the retry loop shared with
  the backend fallback machinery
  (:func:`repro.resilience.policy.retry_call`) and no sleep between
  requests — the in-process wire has nothing to wait for;
* **failure-typed** — waiting on a rank the fabric knows is dead
  raises :class:`~repro.dmem.comm.RankFailure` (the in-process
  stand-in for recv timeout / ack loss) so the checkpoint/restart
  layer can distinguish a crashed peer from a protocol bug; loss that
  outlives the retry budget raises :class:`TransportError`.

Guard interaction: with the ``halo_checksum`` guard ``off`` the
transport heals corruption silently; ``warn`` makes every healed
corruption loud; ``raise`` turns any in-flight corruption into a fatal
:class:`~repro.resilience.guards.GuardViolation` — strictness for runs
where a corrupted wire must stop the job, not be papered over.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..resilience.faults import fault_point
from ..resilience.guards import Guards, halo_crc
from .comm import CommError, RankFailure, SimComm

__all__ = ["ReliableComm", "TransportError"]

#: sanity sentinel leading every envelope header
_MAGIC = 0x5AFE_C0DE
#: fixed-width dtype-name field in the envelope header
_DTYPE_FIELD = 16
#: headers never legitimately describe payloads beyond this rank
_MAX_NDIM = 16


class TransportError(CommError):
    """Message loss outlived the retransmission budget."""


class _CorruptEnvelope(Exception):
    """Envelope failed CRC or structural validation (internal)."""


class _LostEnvelope(Exception):
    """Expected sequence number not deliverable yet (internal,
    transient: each occurrence triggers a retransmit request)."""


def _pack(seq: int, payload: np.ndarray) -> np.ndarray:
    """Wrap ``payload`` in a self-describing, CRC-fingerprinted envelope.

    Layout (bytes): ``crc:int64 | magic:int64 seq:int64 ndim:int64
    shape:int64[ndim] | dtype:16s | payload``.  The CRC — the same
    :func:`halo_crc` the guards use — covers everything after itself,
    so a bit-flip in header *or* payload is detected.
    """
    data = np.ascontiguousarray(payload)
    head = np.array(
        [_MAGIC, int(seq), data.ndim, *data.shape], dtype=np.int64
    ).tobytes()
    dt = str(data.dtype).encode("ascii").ljust(_DTYPE_FIELD)
    if len(dt) != _DTYPE_FIELD:
        raise CommError(f"dtype name too long for envelope: {data.dtype}")
    body = head + dt + data.tobytes()
    crc = halo_crc(np.frombuffer(body, dtype=np.uint8))
    return np.frombuffer(
        np.int64(crc).tobytes() + body, dtype=np.uint8
    ).copy()


def _unpack(env: np.ndarray) -> tuple[int, np.ndarray]:
    """Inverse of :func:`_pack`; raises :class:`_CorruptEnvelope` on any
    CRC mismatch or structurally impossible header."""
    buf = np.ascontiguousarray(env, dtype=np.uint8).tobytes()
    if len(buf) < 8 * 4 + _DTYPE_FIELD:
        raise _CorruptEnvelope("truncated envelope")
    crc = int(np.frombuffer(buf[:8], dtype=np.int64)[0])
    body = buf[8:]
    if halo_crc(np.frombuffer(body, dtype=np.uint8)) != crc:
        raise _CorruptEnvelope("CRC mismatch")
    magic, seq, ndim = (
        int(x) for x in np.frombuffer(body[:24], dtype=np.int64)
    )
    if magic != _MAGIC or seq < 0 or not (0 <= ndim <= _MAX_NDIM):
        raise _CorruptEnvelope("implausible header survived CRC")
    off = 24 + 8 * ndim
    shape = tuple(
        int(x) for x in np.frombuffer(body[24:off], dtype=np.int64)
    )
    try:
        dtype = np.dtype(
            body[off : off + _DTYPE_FIELD].decode("ascii").strip()
        )
        payload = np.frombuffer(
            body[off + _DTYPE_FIELD :], dtype=dtype
        ).reshape(shape)
    except Exception as e:
        raise _CorruptEnvelope(f"undecodable payload: {e}") from e
    return seq, payload.copy()


@dataclass
class _Channel:
    """Reliable-delivery state for one ``(src, dest, tag)`` stream."""

    next_out: int = 0  # next sequence number the sender assigns
    next_in: int = 0  # next sequence number the receiver delivers
    log: dict[int, np.ndarray] = field(default_factory=dict)  # unacked
    stash: dict[int, np.ndarray] = field(default_factory=dict)  # early
    delayed: list[np.ndarray] = field(default_factory=list)  # reorder hold
    max_seen: int = -1  # highest sequence number ever received


class _TransportState:
    """Channel table shared by every endpoint of one world."""

    def __init__(self) -> None:
        self.channels: dict[tuple[int, int, int], _Channel] = {}

    def channel(self, key: tuple[int, int, int]) -> _Channel:
        ch = self.channels.get(key)
        if ch is None:
            ch = self.channels[key] = _Channel()
        return ch


class ReliableComm:
    """One rank's endpoint on the reliable layer over a SimComm world.

    Build with :meth:`world` (fresh fabric) or :meth:`attach` (wrap an
    existing ``SimComm`` world).  ``rsend``/``rrecv`` are the reliable
    counterparts of ``send``/``recv``; the raw endpoint stays reachable
    as ``.raw`` for code that wants the lossy wire.
    """

    def __init__(
        self,
        sim: SimComm,
        state: _TransportState,
        *,
        guards: Guards | None = None,
        max_retries: int = 4,
    ) -> None:
        self._sim = sim
        self._state = state
        self._world: list["ReliableComm"] = []
        self.guards = guards if guards is not None else Guards()
        self.max_retries = int(max_retries)

    # -- construction --------------------------------------------------------

    @staticmethod
    def world(
        size: int,
        *,
        guards: Guards | None = None,
        strict_barriers: bool = False,
        max_retries: int = 4,
    ) -> list["ReliableComm"]:
        return ReliableComm.attach(
            SimComm.world(size, strict_barriers=strict_barriers),
            guards=guards, max_retries=max_retries,
        )

    @staticmethod
    def attach(
        sims: list[SimComm],
        *,
        guards: Guards | None = None,
        max_retries: int = 4,
    ) -> list["ReliableComm"]:
        """Layer reliable endpoints over an existing SimComm world."""
        state = _TransportState()
        world = [
            ReliableComm(sim, state, guards=guards, max_retries=max_retries)
            for sim in sims
        ]
        for rc in world:
            rc._world = world
        return world

    # -- passthroughs --------------------------------------------------------

    @property
    def raw(self) -> SimComm:
        return self._sim

    @property
    def rank(self) -> int:
        return self._sim.rank

    @property
    def size(self) -> int:
        return self._sim.size

    @property
    def stats(self):
        return self._sim.stats

    def barrier(self, strict: bool | None = None) -> None:
        self._sim.barrier(strict)

    def alive(self, rank: int) -> bool:
        return self._sim.alive(rank)

    # -- reliable surface ----------------------------------------------------

    def rsend(self, data: np.ndarray, dest: int, tag: int = 0) -> int:
        """Sequence, log, and transmit one message; returns its seq.

        The envelope stays in the channel log until the receiver acks
        it, so injected drops and corruption are recoverable by
        retransmission.
        """
        ch = self._state.channel((self.rank, dest, tag))
        seq = ch.next_out
        ch.next_out += 1
        env = _pack(seq, np.asarray(data))
        ch.log[seq] = env
        telemetry.count("dmem.transport.sends")
        self._put(ch, env, dest, tag)
        return seq

    def _put(self, ch: _Channel, env: np.ndarray, dest: int, tag: int) -> None:
        """Hand one envelope to the wire, subject to transport faults."""
        if fault_point("comm.msg.reorder"):
            # hold this envelope back; it travels after its successor
            # (or when the receiver requests retransmission)
            ch.delayed.append(env)
            return
        self._sim.send(env, dest, tag)
        if fault_point("comm.msg.duplicate"):
            self._sim.send(env, dest, tag)
        while ch.delayed:  # release anything parked by the reorder fault
            self._sim.send(ch.delayed.pop(0), dest, tag)

    def rrecv(self, source: int, tag: int = 0) -> np.ndarray:
        """Deliver the next in-sequence message from ``source``.

        Drains the wire, dedups and reorders, then — if the expected
        envelope is still missing — requests retransmission of the
        sender's unacked window under the shared retry loop.  Raises
        :class:`RankFailure` when the peer is dead with nothing
        recoverable in flight, :class:`TransportError` when loss
        outlives ``max_retries`` retransmit requests.
        """
        from ..resilience.policy import retry_call

        me = self.rank
        key = (source, me, tag)
        ch = self._state.channel(key)
        want = ch.next_in

        def attempt() -> np.ndarray:
            self._drain(ch, source, tag)
            if want in ch.stash:
                return ch.stash.pop(want)
            if not self._sim.alive(source):
                raise RankFailure(
                    source,
                    f"rank {me} waiting on seq {want} "
                    f"(tag {tag}) from a dead peer",
                )
            raise _LostEnvelope(want)

        def on_retry(_attempt: int, _e: BaseException) -> None:
            self._request_retransmit(ch, source, tag, want)

        t0 = time.perf_counter()
        retransmits_before = self.stats.retransmits
        try:
            payload = retry_call(
                attempt,
                max_retries=self.max_retries,
                backoff=0.0,
                transient=(_LostEnvelope,),
                on_retry=on_retry,
            )
        except _LostEnvelope:
            raise TransportError(
                f"rank {me} gave up on seq {want} from rank {source} "
                f"(tag {tag}) after {self.max_retries} retransmit "
                "requests — either the peer never sent (protocol bug) "
                "or injected loss exceeded the retry budget"
            ) from None
        rtt = time.perf_counter() - t0
        telemetry.observe("dmem.halo.rtt", rtt, rank=str(me))
        if self.stats.retransmits > retransmits_before:
            # the round-trips that needed healing, as their own series:
            # the recovery tail would otherwise vanish into the p50
            telemetry.observe("dmem.retransmit.latency", rtt, rank=str(me))
        ch.next_in = want + 1
        ch.log.pop(want, None)  # the in-process ack
        self.stats.acked += 1
        telemetry.count("dmem.transport.acked")
        return payload

    # -- delivery machinery --------------------------------------------------

    def _drain(self, ch: _Channel, source: int, tag: int) -> None:
        """Pull every wire message on the channel into the stash."""
        while self._sim.probe(source, tag):
            try:
                env = self._sim.recv(source, tag)
            except CommError:
                continue  # injected delivery drop; re-probe
            try:
                seq, payload = _unpack(env)
            except _CorruptEnvelope as e:
                self.stats.crc_failures += 1
                telemetry.count("dmem.transport.crc_failures")
                # guards decide loudness; the transport heals either way
                self.guards.report(
                    "halo_checksum",
                    f"transport envelope from rank {source} rejected "
                    f"({e}) — payload corrupted in flight; requesting "
                    "retransmission",
                )
                continue
            if seq < ch.next_in or seq in ch.stash:
                self.stats.duplicates += 1
                telemetry.count("dmem.transport.duplicates")
                continue
            if seq < ch.max_seen:
                # a lower sequence number arriving after a higher one
                # was overtaken on the wire
                self.stats.reordered += 1
                telemetry.count("dmem.transport.reordered")
            ch.max_seen = max(ch.max_seen, seq)
            ch.stash[seq] = payload

    def _request_retransmit(
        self, ch: _Channel, source: int, tag: int, want: int
    ) -> None:
        """NACK path: have the sender re-send its whole unacked window."""
        if not self._sim.alive(source):
            raise RankFailure(
                source,
                f"retransmit request for seq {want} (tag {tag}) went "
                "unanswered — ack loss from a dead peer",
            )
        sender = self._world[source]._sim
        while ch.delayed:  # flush envelopes parked by the reorder fault
            sender.send(ch.delayed.pop(0), self.rank, tag)
        for seq in sorted(ch.log):
            sender.send(ch.log[seq], self.rank, tag)
            self.stats.retransmits += 1
            telemetry.count("dmem.transport.retransmits")
        telemetry.event(
            "dmem.retransmit", lane=f"rank {source}",
            source=source, dest=self.rank, tag=tag,
            want=want, window=len(ch.log),
        )

    # -- recovery hooks ------------------------------------------------------

    def reset(self) -> int:
        """World-wide rollback: forget all channel state and purge the
        fabric's undelivered messages; returns the purge count.  Every
        rank restarts its sequence numbers together — recovery restores
        all ranks to one consistent checkpoint, so a global reset is
        the consistent thing to do."""
        self._state.channels.clear()
        return self._sim.purge()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ReliableComm(rank={self.rank}/{self.size}, "
            f"max_retries={self.max_retries})"
        )
