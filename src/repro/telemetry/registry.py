"""The telemetry registry: counters, timers, kernel stats, trace events.

One process-wide registry instrumented across the whole pipeline —
frontend passes, JIT cache/compiler, every backend's kernel
invocations, the resilience layer, and the simulated distributed
fabric.  Zero third-party dependencies, thread-safe, and near-free
when switched off.

Four modes, selected by ``SNOWFLAKE_TELEMETRY`` (re-read lazily, so
tests may monkeypatch the environment) or programmatically with
:func:`set_mode`:

* ``off``      — every hook returns after one cached string compare;
* ``counters`` — the default: aggregate counters, timers, latency
  histograms (:mod:`repro.telemetry.metrics`), and per-backend kernel
  statistics;
* ``events``   — counters plus the structured JSON event log
  (:mod:`repro.telemetry.events`, schema ``snowflake-events/1``);
* ``trace``    — everything: counters, structured events, the bounded
  ring buffer of timestamped events (:func:`event`), and span
  recording (:mod:`repro.telemetry.tracing`).

Naming convention: dotted lowercase paths, coarse-to-fine
(``jit.cache.hit.disk``, ``guards.trip.nonfinite``,
``frontend.pass.reorder``).  Counters and timers share one namespace
but live in separate tables; :func:`snapshot` returns both as plain
dicts, ready for JSON.
"""

from __future__ import annotations

import json
import os
import threading
import time
import warnings
from collections import Counter, deque
from contextlib import contextmanager
from pathlib import Path

from .metrics import _observe_raw

__all__ = [
    "MODES",
    "TRACE_CAPACITY",
    "mode",
    "set_mode",
    "enabled",
    "events_enabled",
    "count",
    "record_time",
    "timed",
    "kernel_call",
    "event",
    "snapshot",
    "reset",
    "export_bench_json",
    "BENCH_SCHEMA",
    "STATS_SCHEMA",
]

MODES = ("off", "counters", "events", "trace")

#: ring-buffer size of the trace-mode event log
TRACE_CAPACITY = 4096

#: schema tag stamped into every JSON export
BENCH_SCHEMA = "snowflake-telemetry/1"

#: schema tag stamped into every :func:`snapshot` (and so into
#: ``repro stats --json`` output), versioned like the bench/trace
#: exporters
STATS_SCHEMA = "snowflake-stats/1"

_lock = threading.Lock()
_counters: Counter = Counter()
_timers: dict[str, list[float]] = {}  # name -> [count, total, min, max]
_kernels: dict[str, list[float]] = {}  # backend -> [calls, seconds, points]
_trace: deque = deque(maxlen=TRACE_CAPACITY)
_t0 = time.perf_counter()  # trace timestamps are relative to import

_forced: str | None = None  # set_mode() override; None = follow the env
_env_raw: str | None = None  # last raw env value parsed
_env_mode: str = "counters"
_env_warned = False


def mode() -> str:
    """Resolve the active mode (``set_mode`` wins over the environment)."""
    global _env_raw, _env_mode, _env_warned
    if _forced is not None:
        return _forced
    raw = os.environ.get("SNOWFLAKE_TELEMETRY", "")
    if raw == _env_raw:
        return _env_mode
    val = raw.strip().lower() or "counters"
    if val not in MODES:
        if not _env_warned:
            _env_warned = True
            warnings.warn(
                f"SNOWFLAKE_TELEMETRY={raw!r} is not one of {MODES}; "
                "falling back to 'counters'",
                stacklevel=2,
            )
        val = "counters"
    _env_raw, _env_mode = raw, val
    return val


def set_mode(value: str | None) -> None:
    """Force a mode programmatically; ``None`` resumes env control."""
    global _forced
    if value is not None and value not in MODES:
        raise ValueError(f"telemetry mode must be one of {MODES}, got {value!r}")
    _forced = value


def enabled() -> bool:
    """Is any collection active?  The hot-path gate."""
    return mode() != "off"


def events_enabled() -> bool:
    """Is the event ring buffer recording (mode ``trace``)?"""
    return mode() == "trace"


# -- collection hooks ---------------------------------------------------------


def count(name: str, n: int | float = 1) -> None:
    """Add ``n`` to counter ``name`` (no-op when telemetry is off)."""
    if mode() == "off":
        return
    with _lock:
        _counters[name] += n


def record_time(name: str, seconds: float) -> None:
    """Fold one duration into timer ``name`` (count/total/min/max).

    Every timer also feeds the fixed-bucket latency histogram of the
    same name (:mod:`repro.telemetry.metrics`), so p50/p95/p99 are
    recoverable for free wherever a timer already exists.
    """
    if mode() == "off":
        return
    with _lock:
        agg = _timers.get(name)
        if agg is None:
            _timers[name] = [1, seconds, seconds, seconds]
        else:
            agg[0] += 1
            agg[1] += seconds
            agg[2] = min(agg[2], seconds)
            agg[3] = max(agg[3], seconds)
    _observe_raw(name, seconds)


@contextmanager
def timed(name: str):
    """Time a block into timer ``name``.

    Records only on clean exit — an aborted body must not pollute the
    mean (the same contract as :class:`repro.util.timing.Timer`).
    """
    if mode() == "off":
        yield
        return
    t0 = time.perf_counter()
    yield
    record_time(name, time.perf_counter() - t0)


def kernel_call(
    backend: str, seconds: float, points: int, resolved: str | None = None
) -> None:
    """Record one compiled-kernel invocation for ``backend``.

    Also feeds the ``kernel.call`` latency histogram (labelled by
    backend) — the per-call distribution behind the p50/p95/p99 the
    ``repro stats`` report and the OpenMetrics exporter surface.
    ``resolved`` is the active :func:`mode` when the caller already has
    it (a bound kernel call resolves it once and passes it down).
    """
    if (resolved or mode()) == "off":
        return
    with _lock:
        agg = _kernels.get(backend)
        if agg is None:
            _kernels[backend] = [1, seconds, points]
        else:
            agg[0] += 1
            agg[1] += seconds
            agg[2] += points
    _observe_raw("kernel.call", seconds, {"backend": backend})


def event(name: str, **fields) -> None:
    """Record one named pipeline event.

    Two destinations, both bounded:

    * ``trace`` mode — the in-process ring buffer (post-mortem
      snapshot inspection, as always);
    * ``events`` or ``trace`` mode — the structured JSON event log
      (:mod:`repro.telemetry.events`), one ``snowflake-events/1``
      record with span correlation.

    Inert in ``off``/``counters`` modes, so hot paths may call it
    freely.
    """
    m = mode()
    if m == "trace":
        stamp = time.perf_counter() - _t0
        with _lock:
            _trace.append({"t": round(stamp, 6), "name": name, **fields})
    if m in ("events", "trace"):
        from .events import emit

        emit(name, **fields)


# -- reading ------------------------------------------------------------------


def snapshot() -> dict:
    """Plain-dict view of everything collected so far.

    Tagged ``schema: snowflake-stats/1``.  ``counters`` — name ->
    number; ``timers`` — name -> ``{count, total_s, mean_s, min_s,
    max_s}``; ``kernels`` — backend -> ``{calls, seconds, points,
    points_per_s}`` (``points_per_s`` is ``None`` while the accumulated
    time is below timer resolution — never ``inf``); ``histograms`` —
    the merged latency histograms with p50/p95/p99 (see
    :func:`repro.telemetry.metrics.snapshot_histograms`); ``trace`` —
    the event list (trace mode only).
    """
    from .metrics import snapshot_histograms

    with _lock:
        counters = dict(_counters)
        timers = {
            name: {
                "count": agg[0],
                "total_s": agg[1],
                "mean_s": agg[1] / agg[0],
                "min_s": agg[2],
                "max_s": agg[3],
            }
            for name, agg in _timers.items()
        }
        kernels = {
            backend: {
                "calls": int(agg[0]),
                "seconds": agg[1],
                "points": int(agg[2]),
                "points_per_s": (agg[2] / agg[1] if agg[1] > 0 else None),
            }
            for backend, agg in _kernels.items()
        }
        trace = list(_trace)
    out = {
        "schema": STATS_SCHEMA,
        "mode": mode(),
        "counters": counters,
        "timers": timers,
        "kernels": kernels,
        "histograms": snapshot_histograms(),
    }
    if out["mode"] == "trace":
        out["trace"] = trace
    return out


def reset() -> None:
    """Zero every table, histogram, event log and trace (test isolation)."""
    from .events import reset as reset_events
    from .metrics import reset_histograms

    with _lock:
        _counters.clear()
        _timers.clear()
        _kernels.clear()
        _trace.clear()
    reset_histograms()
    reset_events()


# -- export -------------------------------------------------------------------


def export_bench_json(
    path: str | os.PathLike = "BENCH_pipeline.json"
) -> Path:
    """Write the current snapshot as a perf-trajectory artifact.

    The file is the repo's recorded performance trajectory
    (``BENCH_pipeline.json``): schema-tagged (envelope
    ``snowflake-telemetry/1``, embedded snapshot ``snowflake-stats/1``
    as ``stats_schema``), host-stamped, and safe to diff across
    commits.  A bare filename lands in ``SNOWFLAKE_ARTIFACT_DIR`` when
    that is set (long-lived services must not litter their CWD).
    Returns the path written.
    """
    import platform
    import sys

    from .. import __version__
    from ..util.artifacts import artifact_path

    doc = {
        **snapshot(),
        "version": __version__,
        "unix_time": time.time(),
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": sys.version.split()[0],
        },
    }
    doc["stats_schema"] = doc.pop("schema", STATS_SCHEMA)
    doc["schema"] = BENCH_SCHEMA
    p = artifact_path(path)
    p.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return p
