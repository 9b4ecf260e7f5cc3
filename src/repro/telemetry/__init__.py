"""Pipeline telemetry: one duration store, one event log, one tracer.

"You cannot claim a hot path got faster without counters and traces" —
this package is the observability layer under the repo's measurement
discipline.  Every stage of the compile/execute pipeline reports here:

* frontend passes (``frontend.pass.*`` timers, stencils eliminated),
* the JIT (cache hit/miss/quarantine, compiler wall time, lock waits),
* every backend's kernel invocations (calls, seconds, points/s, and
  per-call latency histograms),
* the resilience layer (fallback activations, retries, guard trips,
  injected faults fired, backoff delays),
* the simulated distributed fabric (messages, bytes, barriers,
  exchange wall time, halo round-trip latency, retransmits).

Four collection surfaces (see ``docs/OBSERVABILITY.md`` for the full
map and the name-stability contract), controlled with
``SNOWFLAKE_TELEMETRY=off|counters|events|trace`` (default
``counters``; ``off`` reduces every hook to one cached string
compare):

* **counters** (:mod:`repro.telemetry.registry`) — :func:`count`;
* the **duration store** (:mod:`repro.telemetry.metrics`) — every
  duration (:func:`observe`, :func:`timed`, :func:`kernel_call`) lands
  in one fixed-bucket histogram series and nowhere else; lock-free
  per-thread shards, count/sum/min/max exact, p50/p95/p99 on read.
  :func:`snapshot` (schema ``snowflake-stats/1``) reads counters and
  series together — its ``timers`` and ``kernels`` tables are views of
  the series — ``python -m repro stats`` renders it, and the same
  module renders everything as **OpenMetrics** text
  (:func:`render_openmetrics`, printed by ``python -m repro stats
  --openmetrics``);
* the **structured event log** (:mod:`repro.telemetry.events`) —
  one-line ``snowflake-events/1`` JSON records for every pipeline
  event (fallbacks, guard trips, quarantines, rank crashes,
  checkpoint/restore, time-tile refusals), ring-buffered, span-
  correlated, sinkable to file/stderr (``SNOWFLAKE_EVENTS_SINK``);
* the **span tracer** (:mod:`repro.telemetry.tracing`) — hierarchical
  timed spans across every subsystem, exported as Chrome trace-event
  JSON for Perfetto (``python -m repro trace``).  Records inside a
  ``tracing.session()`` block or whenever ``SNOWFLAKE_TELEMETRY=trace``.
  It is also the profiler: ``tracing.self_times()`` folds the exact
  span durations into a hot-path table (``python -m repro top``).
"""

from . import events, metrics, tracing
from .metrics import (
    observe,
    render_openmetrics,
    snapshot_histograms,
    validate_openmetrics,
)
from .registry import (
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
    "MODES",
    "STATS_SCHEMA",
    "count",
    "enabled",
    "event",
    "events",
    "format_stats",
    "kernel_call",
    "metrics",
    "mode",
    "observe",
    "render_openmetrics",
    "render_stats",
    "reset",
    "set_mode",
    "snapshot",
    "snapshot_histograms",
    "timed",
    "tracing",
    "validate_openmetrics",
]
