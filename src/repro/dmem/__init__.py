"""dmem — a simulated distributed-memory backend (paper SectionVII).

The paper's future work targets distributed-memory systems via MPI.
No MPI launcher exists in this environment, so per DESIGN.md the
substrate is simulated: :class:`~repro.dmem.comm.SimComm` provides an
MPI-flavoured message-passing fabric between in-process ranks (send /
recv / barrier with byte accounting and deadlock detection), and
:class:`~repro.dmem.executor.DistributedKernel` runs any StencilGroup
over a Cartesian block decomposition of its leading dimensions (slabs,
or a rank grid) with automatic halo-width inference from the canonical
flat form and halo exchanges placed by the same dependence reasoning
the shared-memory backends use.

The exercised code path — decompose, exchange ghost layers, run the
per-rank kernel through any micro-compiler, gather — is exactly what an
mpi4py backend would run with ``SimComm`` swapped for ``MPI.COMM_WORLD``.

Resilience substrate (this is where distributed features get built
*against* the failures real fabrics produce):

* :class:`~repro.dmem.transport.ReliableComm` — sequence-numbered,
  acked, CRC-verified, deduplicating, reordering transport over the
  lossy wire: exactly-once halo delivery under the
  ``comm.send.drop`` / ``comm.recv.drop`` / ``comm.payload.corrupt`` /
  ``comm.msg.duplicate`` / ``comm.msg.reorder`` fault sites;
* :class:`~repro.dmem.comm.RankFailure` — the typed crash signal the
  ``comm.rank.crash`` site produces and neighbours detect;
* :mod:`~repro.dmem.recovery` — verified checkpoint/restart
  (:class:`RecoveryPolicy` on ``DistributedKernel.run``): a crashed
  sweep replays bitwise-identical to a fault-free run.
"""

from .comm import CommError, RankFailure, SimComm
from .decompose import BlockDecomposition
from .executor import DistributedKernel
from .recovery import (
    Checkpoint,
    CheckpointError,
    RecoveryExhausted,
    RecoveryManager,
    RecoveryPolicy,
)
from .transport import ReliableComm, TransportError

__all__ = [
    "CommError",
    "RankFailure",
    "SimComm",
    "BlockDecomposition",
    "DistributedKernel",
    "ReliableComm",
    "TransportError",
    "Checkpoint",
    "CheckpointError",
    "RecoveryExhausted",
    "RecoveryManager",
    "RecoveryPolicy",
]
