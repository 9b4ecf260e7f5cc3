"""Distributed stencil execution over the simulated fabric.

:class:`DistributedKernel` takes any :class:`StencilGroup` whose grids
share one shape (smoothers, residuals, boundary conditions — the bulk
of a solver's work) and runs it SPMD-style across a Cartesian rank
grid: ``ranks=n`` is the slab case ``(n,)``, ``ranks=(p0, p1)`` the
multisocket/NUMA shape of paper SectionVII ("one process per NUMA
node").

1. grids are block-decomposed along the leading ``len(ranks)``
   dimensions (ranks numbered row-major) with a halo per dimension
   inferred from the group's flat-form read offsets;
2. each stencil's iteration domain is *exactly* partitioned into
   per-rank sub-domains (lattice intersection with the owned block, the
   same arithmetic the dependence analysis uses), so colored and pinned
   domains decompose correctly, not just dense interiors;
3. before every stencil that reads beyond owned cells, neighbouring
   ranks swap halo layers through the exactly-once
   :class:`~repro.dmem.transport.ReliableComm` layer, which sequences,
   CRC-verifies, dedups, reorders, and retransmits over the lossy
   :class:`~repro.dmem.comm.SimComm` wire;
4. each rank executes its sub-stencil through any shared-memory
   micro-compiler (``c`` by default) — the distributed layer composes
   with, rather than replaces, the single-node backends.

Failure model: the ``comm.rank.crash`` fault site kills a rank
mid-sweep; surviving neighbours detect it as a typed
:class:`~repro.dmem.comm.RankFailure` at the next exchange (or the
end-of-sweep liveness audit).  Passing
``run(times, recovery=RecoveryPolicy(...))`` arms checkpoint/restart
(:mod:`repro.dmem.recovery`): the sweep replays from the last verified
snapshot and the final answer is bitwise-identical to a fault-free run.

Restrictions (validated eagerly): identity output maps, unit read
scale along every decomposed dimension, one common grid shape.
Inter-grid transfer operators (restriction/interpolation) stay
node-local in this version.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .. import telemetry
from ..core.domains import RectDomain, ResolvedRect
from ..core.stencil import Stencil, StencilGroup
from ..core.validate import check_group
from ..resilience.faults import fault_point
from ..resilience.guards import Guards
from .comm import RankFailure, SimComm
from .decompose import BlockDecomposition, RankSlab
from .recovery import RecoveryManager, RecoveryPolicy
from .transport import ReliableComm

__all__ = ["DistributedKernel"]

_TAG_UP = 101    # dim-0 data flowing to the lower-ranked neighbour
_TAG_DOWN = 102  # ... to the higher-ranked one; dim d adds 2*d to both


def _restrict(
    rect: ResolvedRect, slabs: Sequence[RankSlab]
) -> RectDomain | None:
    """Intersect a resolved global box with one rank's owned block.

    Each decomposed (leading) dimension is clipped to its slab's owned
    range and translated to local coordinates; the remaining dimensions
    pass through.  ``None`` when the intersection is empty.
    """
    starts, ends = [], []
    for d, (lo, st, ct) in enumerate(
        zip(rect.lows, rect.strides, rect.counts)
    ):
        k0, k1, base = 0, ct - 1, 0
        if d < len(slabs):
            s = slabs[d]
            base = s.base
            if st == 0:
                if not (s.own_lo <= lo < s.own_hi):
                    return None
            else:
                # first k with lo + st*k >= own_lo, last with < own_hi
                k0 = max(0, (s.own_lo - lo + st - 1) // st)
                k1 = min(ct - 1, (s.own_hi - 1 - lo) // st)
                if k0 > k1:
                    return None
        starts.append(lo + st * k0 - base)
        ends.append(lo + st * k1 - base + 1)
    return RectDomain(tuple(starts), tuple(ends), rect.strides)


class DistributedKernel:
    """SPMD executor for a stencil group on a simulated rank grid.

    ``ranks`` is an ``int`` (slabs along dim 0, ``n`` meaning ``(n,)``)
    or one rank count per leading dimension.
    """

    def __init__(
        self,
        group: StencilGroup,
        global_shape: Sequence[int],
        ranks: int | Sequence[int],
        *,
        backend: str = "c",
        dtype=np.float64,
        fallback: Sequence[str] | None = None,
        guards: Guards | None = None,
        transport_retries: int = 4,
        **backend_options,
    ) -> None:
        self.group = group
        self.global_shape = tuple(int(x) for x in global_shape)
        self.ranks = tuple(int(p) for p in np.atleast_1d(ranks))
        self.dtype = np.dtype(dtype)
        self.backend = backend
        self.fallback = tuple(fallback) if fallback else None
        self.guards = guards if guards is not None else Guards.from_env()
        self.transport_retries = int(transport_retries)
        self.backend_options = dict(backend_options)

        nd = len(self.ranks)
        if not 1 <= nd <= len(self.global_shape):
            raise ValueError(
                f"ranks={self.ranks} decomposes {nd} dims; grids of shape "
                f"{self.global_shape} allow 1 to {len(self.global_shape)}"
            )
        self._validate_decomposable()
        shapes = {g: self.global_shape for g in group.grids()}
        check_group(group, shapes)

        #: per-stencil halo widths (one per decomposed dim) for each
        #: grid it reads beyond its own cell
        self.read_halos: list[dict[str, tuple[int, ...]]] = []
        halo = (0,) * nd
        for st in group:
            per_grid: dict[str, tuple[int, ...]] = {}
            for read in st.flat.reads():
                w = tuple(abs(o) for o in read.offset[:nd])
                if any(w):
                    per_grid[read.grid] = tuple(
                        map(max, per_grid.get(read.grid, w), w)
                    )
                    halo = tuple(map(max, halo, w))
            self.read_halos.append(per_grid)
        self.halo = halo

        #: the per-axis slab table of each decomposed dimension
        self.decomps = [
            BlockDecomposition(n, p, h)
            for n, p, h in zip(self.global_shape, self.ranks, halo)
        ]
        for d, dec in enumerate(self.decomps):
            for s in dec.slabs:
                if s.own_hi - s.own_lo < dec.halo:
                    raise ValueError(
                        f"rank {s.rank} along dim {d} owns "
                        f"{s.own_hi - s.own_lo} rows, fewer than the halo "
                        f"width {dec.halo}; use fewer ranks"
                    )
        #: each rank's slab along every decomposed dim, ranks row-major
        self.slabs: list[tuple[RankSlab, ...]] = [
            tuple(dec.slabs[c] for dec, c in zip(self.decomps, coords))
            for coords in np.ndindex(*self.ranks)
        ]
        self.comms = SimComm.world(len(self.slabs))
        self.transport = ReliableComm.attach(
            self.comms, guards=self.guards,
            max_retries=self.transport_retries,
        )

        # Per-rank, per-stencil sub-stencils + compiled kernels.
        rects = [
            [
                r for r in st.domain.resolve(self.global_shape)
                if not r.is_empty()
            ]
            for st in group
        ]
        self._rank_kernels: list[list[tuple[Stencil, object] | None]] = []
        for slabs in self.slabs:
            local_shape = (
                *(s.rows for s in slabs), *self.global_shape[nd:]
            )
            suffix = "_".join(str(s.rank) for s in slabs)
            row: list[tuple[Stencil, object] | None] = []
            for st, boxes in zip(group, rects):
                local_doms = [
                    d for d in (_restrict(r, slabs) for r in boxes)
                    if d is not None
                ]
                if not local_doms:
                    row.append(None)
                    continue
                dom = local_doms[0]
                for extra in local_doms[1:]:
                    dom = dom + extra
                local = Stencil(
                    st.body, st.output, dom,
                    output_map=st.output_map, name=f"{st.name}@r{suffix}",
                )
                kernel = local.compile(
                    backend=self.backend,
                    shapes={g: local_shape for g in local.grids()},
                    dtype=self.dtype,
                    fallback=self.fallback,
                    **self.backend_options,
                )
                row.append((local, kernel))
            self._rank_kernels.append(row)

    # -- validation ---------------------------------------------------------------

    def _validate_decomposable(self) -> None:
        for st in self.group:
            if not st.output_map.is_identity():
                raise ValueError(
                    f"{st.name}: scaled output maps are node-local in the "
                    "distributed backend"
                )
            for read in st.flat.reads():
                for d, scale in enumerate(read.scale[: len(self.ranks)]):
                    if scale != 1:
                        raise ValueError(
                            f"{st.name}: dim-{d} read scale {scale} != 1 "
                            f"cannot be block-decomposed along dim {d}"
                        )

    # -- halo exchange ---------------------------------------------------------------

    def _exchange(
        self, locals_: list[dict[str, np.ndarray]], grid: str, dim: int,
        width: int,
    ) -> None:
        """Swap ``width`` boundary layers of ``grid`` along ``dim``.

        Every payload is a sequenced, CRC-fingerprinted envelope:
        injected drops, duplicates, reordering, and corruption are all
        healed before the block lands in the halo, and a dead neighbour
        surfaces as a typed :class:`RankFailure`.  Slices span the FULL
        local extent of the other dimensions (halos included), so
        exchanging dimensions last-to-first carries corner ghosts in
        two hops.
        """
        last = self.ranks[dim] - 1
        step = math.prod(self.ranks[dim + 1 :])  # rank distance along dim
        up, down = _TAG_UP + 2 * dim, _TAG_DOWN + 2 * dim
        alive = self.comms[0].alive

        def take(arr: np.ndarray, lo: int, hi: int) -> np.ndarray:
            return arr[(slice(None),) * dim + (slice(lo, hi),)]

        # enqueue all sends first (lock-step driver: no ordering hazards)
        for r, slabs in enumerate(self.slabs):
            if not alive(r):
                continue  # a dead rank sends nothing; neighbours notice
            telemetry.tracing.instant(
                "halo.send", cat="dmem", lane=f"rank {r}",
                grid=grid, dim=dim, width=width,
            )
            s = slabs[dim]
            arr = locals_[r][grid]
            rc = self.transport[r]
            if s.rank > 0:
                lo = s.local_own_lo
                rc.rsend(take(arr, lo, lo + width), r - step, up)
            if s.rank < last:
                hi = s.local_own_hi
                rc.rsend(take(arr, hi - width, hi), r + step, down)
        for r, slabs in enumerate(self.slabs):
            if not alive(r):
                continue
            s = slabs[dim]
            arr = locals_[r][grid]
            rc = self.transport[r]
            if s.rank < last:
                hi = s.local_own_hi
                take(arr, hi, hi + width)[...] = rc.rrecv(r + step, up)
            if s.rank > 0:
                lo = s.local_own_lo
                take(arr, lo - width, lo)[...] = rc.rrecv(r - step, down)

    # -- execution ----------------------------------------------------------------

    def __call__(self, **global_arrays: np.ndarray) -> None:
        """One-shot: scatter, run the group SPMD, gather owned cells back."""
        self.scatter(**global_arrays)
        self.run()
        self.gather(**global_arrays)

    # -- persistent mode ---------------------------------------------------------
    #
    # Iterative use (smoothing sweeps, time stepping) should not pay a
    # full scatter/gather per application: scatter once, run() many
    # times against rank-resident state, gather when the host needs the
    # global view — the working style of a real MPI application.

    def scatter(self, **global_arrays: np.ndarray) -> None:
        """Distribute global arrays into rank-local (halo-padded) state."""
        grids = self.group.grids()
        missing = grids - set(global_arrays)
        if missing:
            raise TypeError(f"missing grids: {sorted(missing)}")
        for g in grids:
            a = global_arrays[g]
            if tuple(a.shape) != self.global_shape:
                raise ValueError(
                    f"grid {g!r} has shape {a.shape}, "
                    f"kernel built for {self.global_shape}"
                )
            if a.dtype != self.dtype:
                raise TypeError(
                    f"kernel compiled for dtype {self.dtype}, got {a.dtype}"
                )
        # Must be genuine copies, never views: blocks of neighbouring
        # ranks overlap in the halo region, and distributed memory means
        # *no* aliasing — a view here would let one rank's writes leak
        # into another's halo without a message.
        self._locals: list[dict[str, np.ndarray]] = [
            {
                g: np.array(
                    global_arrays[g][
                        tuple(slice(s.base, s.stop) for s in slabs)
                    ],
                    copy=True, order="C",
                )
                for g in grids
            }
            for slabs in self.slabs
        ]

    def run(
        self, times: int = 1, recovery: RecoveryPolicy | None = None
    ) -> None:
        """Apply the group ``times`` times to the rank-resident state.

        With a :class:`RecoveryPolicy`, the sweeps run under
        checkpoint/restart: a rank crash (``comm.rank.crash``) is
        detected as a :class:`RankFailure`, the dead rank restarts, and
        the run replays from the last verified snapshot — the final
        state is bitwise-identical to a fault-free run.  Without one, a
        crash propagates as the typed :class:`RankFailure` (never a
        misleading deadlock :class:`CommError`).
        """
        locals_ = getattr(self, "_locals", None)
        if locals_ is None:
            raise RuntimeError("call scatter(...) before run()")
        if recovery is None:
            for _ in range(times):
                self._sweep(locals_)
            return
        RecoveryManager(self, recovery).run(times)

    def _sweep(self, locals_: list[dict[str, np.ndarray]]) -> None:
        """One application of the whole group, with crash detection.

        The ``comm.rank.crash`` fault site is probed once per (stencil,
        rank): a firing kills that rank mid-sweep.  Survivors notice
        at their next halo exchange (recv from a dead peer), or at
        latest in the end-of-sweep liveness audit — either way the
        sweep raises :class:`RankFailure` instead of completing with a
        silently missing contribution.
        """
        telemetry.count("dmem.sweeps")
        alive = self.comms[0].alive
        for si in range(len(self.group)):
            for g, widths in self.read_halos[si].items():
                with telemetry.tracing.span(
                    f"halo:{g}", cat="dmem",
                    widths=list(widths), ranks=len(self.slabs),
                ), telemetry.timed("dmem.exchange"):
                    for dim in reversed(range(len(self.ranks))):
                        if widths[dim]:
                            self._exchange(locals_, g, dim, widths[dim])
                telemetry.count("dmem.exchanges")
            for r in range(len(self.slabs)):
                if not alive(r):
                    continue
                if fault_point("comm.rank.crash"):
                    self.comms[r].kill(r)
                    continue
                entry = self._rank_kernels[r][si]
                if entry is None:
                    continue
                local, kernel = entry
                with telemetry.tracing.span(
                    f"apply:{local.name}", cat="dmem",
                    lane=f"rank {r}",
                ):
                    kernel(**{g: locals_[r][g] for g in local.grids()})
        dead = self.comms[0].dead_ranks()
        if dead:
            raise RankFailure(
                min(dead),
                f"{len(dead)} rank(s) died during the sweep: "
                f"{sorted(dead)}",
            )

    def gather(self, **global_arrays: np.ndarray) -> None:
        """Write every output grid's owned cells back into global arrays."""
        locals_ = getattr(self, "_locals", None)
        if locals_ is None:
            raise RuntimeError("nothing to gather: scatter(...) first")
        outputs = {st.output for st in self.group}
        for g in outputs:
            if g not in global_arrays:
                raise TypeError(f"gather needs output grid {g!r}")
        for slabs, local in zip(self.slabs, locals_):
            there = tuple(slice(s.own_lo, s.own_hi) for s in slabs)
            here = tuple(slice(s.local_own_lo, s.local_own_hi) for s in slabs)
            for g in outputs:
                global_arrays[g][there] = local[g][here]

    # -- accounting -------------------------------------------------------------

    @property
    def comm_stats(self):
        """Fabric-wide traffic + resilience counters (messages, bytes,
        barriers, retransmits, duplicates, crashes, restores, ...)."""
        return self.comms[0].stats

    def describe_dict(self) -> dict:
        """Machine-readable resilience/decomposition summary (the
        ``explain --dmem`` surface); ``ranks``, ``halo`` and
        ``rows_per_rank`` hold one entry per decomposed dimension."""
        return {
            "ranks": list(self.ranks),
            "global_shape": list(self.global_shape),
            "halo": list(self.halo),
            "rows_per_rank": [
                [s.own_hi - s.own_lo for s in dec.slabs]
                for dec in self.decomps
            ],
            "read_halos": [
                {g: list(w) for g, w in h.items()} for h in self.read_halos
            ],
            "backend": self.backend,
            "serving_backends": sorted(self.serving_backends),
            "transport": {
                "max_retries": self.transport_retries,
                "delivery": "exactly-once (seq + CRC + ack/retransmit)",
            },
            "guards": {
                "nonfinite": self.guards.nonfinite,
                "invariants": self.guards.invariants,
                "halo_checksum": self.guards.halo_checksum,
            },
            "comm_stats": self.comm_stats.as_dict(),
            "dead_ranks": sorted(self.comms[0].dead_ranks()),
        }

    def describe(self) -> str:
        """Human-readable form of :meth:`describe_dict`."""
        d = self.describe_dict()
        lines = [
            f"distributed kernel: {'x'.join(map(str, d['ranks']))} rank(s) "
            f"over {tuple(d['global_shape'])}, halo {tuple(d['halo'])}",
            f"  rows/rank: {d['rows_per_rank']}",
            f"  backend: {d['backend']} "
            f"(serving: {', '.join(d['serving_backends'])})",
            f"  transport: {d['transport']['delivery']}, "
            f"retry budget {d['transport']['max_retries']}",
            "  guards: " + ", ".join(
                f"{k}={v}" for k, v in d["guards"].items()
            ),
        ]
        stats = {k: v for k, v in d["comm_stats"].items() if v}
        lines.append(
            "  comm stats: " + (
                ", ".join(f"{k}={v}" for k, v in sorted(stats.items()))
                if stats else "(no traffic yet)"
            )
        )
        if d["dead_ranks"]:
            lines.append(f"  DEAD RANKS: {d['dead_ranks']}")
        return "\n".join(lines)

    @property
    def serving_backends(self) -> set[str]:
        """Backends actually serving the per-rank kernels.

        ``{"c"}`` on a healthy toolchain; a degraded fallback chain
        shows up here (e.g. ``{"numpy"}``) without changing results.
        """
        out: set[str] = set()
        for row in self._rank_kernels:
            for entry in row:
                if entry is None:
                    continue
                _, kernel = entry
                out.add(
                    getattr(kernel, "serving_backend", None) or self.backend
                )
        return out
