"""Pipeline telemetry: one duration store, one tracer.

"You cannot claim a hot path got faster without counters and traces" —
this package is the observability layer under the repo's measurement
discipline.  Every stage of the compile/execute pipeline reports here:

* the group rewrites (``frontend`` spans, stencils eliminated),
* the JIT (cache hit/miss/quarantine, compiler wall time, lock waits),
* every backend's kernel invocations (calls, seconds, points/s, and
  per-call latency histograms),
* the resilience layer (fallback activations, retries, guard trips,
  injected faults fired, backoff delays),
* the simulated distributed fabric (messages, bytes, barriers,
  exchange wall time, halo round-trip latency, retransmits).

Three collection surfaces (see ``docs/OBSERVABILITY.md`` for the full
map and the name-stability contract), controlled with
``SNOWFLAKE_TELEMETRY=off|counters|trace`` (default
``counters``; ``off`` reduces every hook to one cached string
compare):

* **counters** (:mod:`repro.telemetry.registry`) — :func:`count`;
* the **duration store** (:mod:`repro.telemetry.metrics`) — every
  duration (:func:`observe`, :func:`timed`, :func:`kernel_call`) lands
  in one fixed-bucket histogram series and nowhere else; lock-free
  per-thread shards, count/sum/min/max exact, p50/p95/p99 on read.
  :func:`snapshot` (schema ``snowflake-stats/1``) reads counters and
  series together — its ``timers`` and ``kernels`` tables are views of
  the series;
* the **span tracer** (:mod:`repro.telemetry.tracing`) — hierarchical
  timed spans across every subsystem, exported as Chrome trace-event
  JSON for Perfetto.  Records inside a ``tracing.session()`` block or
  whenever ``SNOWFLAKE_TELEMETRY=trace``.  Every pipeline event
  (:func:`event`: fallbacks, guard trips, quarantines, rank crashes,
  checkpoint/restore, tuner refusals) is one instant in the same
  buffer, linked to the span it fired in.  It is also the profiler:
  ``tracing.self_times()`` folds the exact span durations into a
  hot-path table.

``python -m repro trace`` is the one diagnostic run over all three: a
GSRB workload under one ``tracing.session()``, then the counters report
(:func:`render_stats`), the hot-path table, the Chrome trace and, with
``--json``, the snapshot.
"""

from . import metrics, tracing
from .metrics import observe, snapshot_histograms
from .registry import (
    KNOWN_EVENTS,
    MODES,
    STATS_SCHEMA,
    count,
    enabled,
    event,
    kernel_call,
    mode,
    reset,
    set_mode,
    snapshot,
    timed,
)
from .report import format_stats, render_stats

__all__ = [
    "KNOWN_EVENTS",
    "MODES",
    "STATS_SCHEMA",
    "count",
    "enabled",
    "event",
    "format_stats",
    "kernel_call",
    "metrics",
    "mode",
    "observe",
    "render_stats",
    "reset",
    "set_mode",
    "snapshot",
    "snapshot_histograms",
    "timed",
    "tracing",
]
