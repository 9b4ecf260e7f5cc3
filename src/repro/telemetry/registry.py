"""The telemetry registry: modes, counters, durations, events, snapshot.

One process-wide registry instrumented across the whole pipeline —
group rewrites, JIT cache/compiler, every backend's kernel
invocations, the resilience layer, and the simulated distributed
fabric.  Zero third-party dependencies, thread-safe, and near-free
when switched off.

Three modes, selected by ``SNOWFLAKE_TELEMETRY`` (re-read lazily, so
tests may monkeypatch the environment) or programmatically with
:func:`set_mode`:

* ``off``      — every hook returns after one cached string compare;
* ``counters`` — the default: counters and the duration store
  (:mod:`repro.telemetry.metrics`: every timed seam and every kernel
  invocation is one histogram series);
* ``trace``    — everything: counters plus span and event recording
  (:mod:`repro.telemetry.tracing`).

Naming convention: dotted lowercase paths, coarse-to-fine
(``jit.cache.hit.disk``, ``guards.trip.nonfinite``,
``frontend.stencils_eliminated``).  Counters and durations share one
namespace but live in separate stores; :func:`snapshot` returns both
as plain dicts, ready for JSON.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from collections import Counter
from contextlib import contextmanager

from . import tracing
from .metrics import _histograms, _merged, _record, observe, reset_histograms

__all__ = [
    "MODES",
    "mode",
    "set_mode",
    "enabled",
    "count",
    "timed",
    "kernel_call",
    "event",
    "KNOWN_EVENTS",
    "snapshot",
    "reset",
    "STATS_SCHEMA",
]

MODES = ("off", "counters", "trace")

#: the event-name vocabulary instrumented across the pipeline — a
#: *stability contract*: renaming any of these is a breaking change to
#: downstream trace consumers (docs/OBSERVABILITY.md)
KNOWN_EVENTS = (
    "backend.specialize",
    "jit.cc",
    "jit.quarantine",
    "guards.trip",
    "faults.fired",
    "frontend.eliminated",
    "resilience.retry",
    "resilience.fallback",
    "resilience.degraded",
    "dmem.barrier",
    "dmem.halo.send",
    "dmem.rank.crash",
    "dmem.rank.failure",
    "dmem.retransmit",
    "dmem.checkpoint",
    "dmem.restore",
    "tuning.trial",
    "tuning.candidate.refused",
    "tuning.winner",
)

#: schema tag stamped into every :func:`snapshot` (and so into
#: ``repro trace --json`` output)
STATS_SCHEMA = "snowflake-stats/1"

_lock = threading.Lock()
_counters: Counter = Counter()

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


tracing._resolve_mode = mode


def set_mode(value: str | None) -> None:
    """Force a mode programmatically; ``None`` resumes env control."""
    global _forced
    if value is not None and value not in MODES:
        raise ValueError(f"telemetry mode must be one of {MODES}, got {value!r}")
    _forced = value


def enabled() -> bool:
    """Is any collection active?  The hot-path gate."""
    return mode() != "off"


# -- collection hooks ---------------------------------------------------------


def count(name: str, n: int | float = 1) -> None:
    """Add ``n`` to counter ``name`` (no-op when telemetry is off)."""
    if mode() == "off":
        return
    with _lock:
        _counters[name] += n


@contextmanager
def timed(name: str):
    """Time a block into duration series ``name``.

    Records only on clean exit — an aborted body must not pollute the
    mean.
    """
    if mode() == "off":
        yield
        return
    t0 = time.perf_counter()
    yield
    observe(name, time.perf_counter() - t0)


def kernel_call(
    backend: str, seconds: float, points: int, resolved: str | None = None
) -> None:
    """Record one compiled-kernel invocation for ``backend``.

    One update of the calling thread's ``kernel.call{backend}`` shard —
    the per-call distribution behind the p50/p95/p99 of the counters
    report, with the points computed carried in the same shard; no
    lock is taken.  ``resolved`` is the active :func:`mode` when the
    caller already has it (a bound kernel call resolves it once and
    passes it down).
    """
    if (resolved or mode()) == "off":
        return
    _record(("kernel.call", (("backend", backend),)), seconds).points += points


def _plain(v):
    """``v`` if strict JSON can carry it as a scalar, else its repr."""
    if isinstance(v, (str, int, float, bool, type(None))):
        return tracing._finite(v)
    return repr(v)


def event(name: str, *, lane: str | None = None, **fields) -> None:
    """Record one named pipeline event as a trace instant (``ph="i"``).

    While spans record, appends it to the trace buffer: ``cat`` is the
    first dotted component of ``name``, ``args`` are ``fields`` as
    strict-JSON scalars (anything else is stored as its repr) plus
    ``parent_id``, the ``span_id`` of this thread's innermost open span.
    Otherwise a no-op after one mode check.
    """
    if tracing.active():
        tracing._instant(name, lane, {k: _plain(v) for k, v in fields.items()})


# -- reading ------------------------------------------------------------------


def snapshot() -> dict:
    """Plain-dict view of everything collected so far.

    Tagged ``schema: snowflake-stats/1``.  ``counters`` — name ->
    number; ``histograms`` — the merged duration series with
    p50/p95/p99 (see :func:`repro.telemetry.metrics.snapshot_histograms`).
    Two views of the same merge: ``timers`` — every unlabelled series
    as name -> ``{count, total_s, mean_s, min_s, max_s}``; ``kernels``
    — every ``kernel.call{backend}`` series as backend -> ``{calls,
    seconds, points, points_per_s}`` (``points_per_s`` is ``None``
    while the accumulated time is below timer resolution — never
    ``inf``).
    """
    with _lock:
        counters = dict(_counters)
    merged = _merged()
    timers = {
        m["name"]: {
            "count": m["count"],
            "total_s": m["sum"],
            "mean_s": m["sum"] / m["count"],
            "min_s": m["min"],
            "max_s": m["max"],
        }
        for m in merged
        if not m["labels"]
    }
    kernels = {
        m["labels"]["backend"]: {
            "calls": m["count"],
            "seconds": m["sum"],
            "points": m["points"],
            "points_per_s": (m["points"] / m["sum"] if m["sum"] > 0 else None),
        }
        for m in merged
        if m["name"] == "kernel.call" and list(m["labels"]) == ["backend"]
    }
    return {
        "schema": STATS_SCHEMA,
        "mode": mode(),
        "counters": counters,
        "timers": timers,
        "kernels": kernels,
        "histograms": _histograms(merged),
    }


def reset() -> None:
    """Zero the counters and every duration series."""
    with _lock:
        _counters.clear()
    reset_histograms()
