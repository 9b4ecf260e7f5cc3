"""Distributed-memory execution of a Snowflake smoother (paper §VII).

The same variable-coefficient GSRB smoother used everywhere else in
this repository, run SPMD across simulated MPI-style ranks: grids are
block-decomposed (slabs, or a Cartesian rank grid), halo layers travel
as messages, and each rank executes its share through the C
micro-compiler.  The console output shows the two things that matter
about a distributed stencil code — the answer does not change, and the
communication volume scales with the surface, not the volume, of the
decomposition.

Run:  python examples/distributed_smoother.py
"""

import time

import numpy as np

from repro.dmem import DistributedKernel
from repro.hpgmg.operators import smooth_group, vc_laplacian

N = 64
SHAPE = (N + 2, N + 2)
H = 1.0 / N

group = smooth_group(2, vc_laplacian(2, H), lam="lam")

rng = np.random.default_rng(11)
base = {g: rng.random(SHAPE) for g in group.grids()}
base["lam"] = 0.01 * np.ones(SHAPE)

# -- single node reference ------------------------------------------------------
ref = {k: v.copy() for k, v in base.items()}
group.compile(backend="c")(**ref)

print(f"VC GSRB smooth on {N}x{N}, slab and rank-grid decompositions\n")
print(f"{'ranks':>6}  {'match':>6}  {'messages':>8}  {'halo bytes':>10}  "
      f"{'bytes/rank-interface':>20}")
for ranks in (1, 2, 4, 8, (2, 2), (4, 2)):
    got = {k: v.copy() for k, v in base.items()}
    dk = DistributedKernel(group, SHAPE, ranks, backend="c")
    dk(**got)
    match = np.allclose(got["x"], ref["x"], atol=1e-13)
    s = dk.comm_stats
    # neighbour pairs: p - 1 per line of ranks along each decomposed dim
    ifaces = sum((p - 1) * len(dk.slabs) // p for p in dk.ranks)
    print(f"{'x'.join(map(str, dk.ranks)):>6}  {str(match):>6}  "
          f"{s.messages:8d}  {s.bytes_sent:10d}  "
          f"{s.bytes_sent / max(ifaces, 1):20.0f}")

print("\nhalo width inferred from the stencil offsets:",
      DistributedKernel(group, SHAPE, 2).halo)
print("bytes per interface never grow with the rank count, and a rank "
      "grid's shorter\ninterfaces carry about half a slab's: surface, not "
      "volume, of the decomposition.")

# -- deadlock detection: the fabric proves protocol completeness ------------------
from repro.dmem.comm import CommError, SimComm

w = SimComm.world(2)
try:
    w[0].recv(source=1)
except CommError as e:
    print(f"\nfabric rejects incomplete protocols eagerly:\n  {e}")
