"""Structured JSON event log — schema ``snowflake-events/1``.

The registry's counters say *how many* guard trips happened; this
module records *each one* as a greppable one-line JSON object with a
stable event name, a wall-clock timestamp, and — when the event fires
inside an open tracing span — the span's correlation id, so a fallback
activation in the event log links to the exact kernel invocation in
the Chrome trace.

Activation: ``SNOWFLAKE_TELEMETRY=events`` (counters + structured
events) or ``trace`` (everything).  Every ``telemetry.event(...)``
call site in the pipeline feeds this log automatically — fallback
activations, guard trips, JIT quarantines, fired faults, rank crashes,
checkpoint/restore, time-tile refusals — so arming one environment
variable turns the whole fault surface into structured records.

Memory is bounded: records land in a ring buffer of
:data:`EVENT_CAPACITY` (overflow counted, never grown).  A **sink**
additionally streams each record as one JSON line at emit time:
``SNOWFLAKE_EVENTS_SINK=stderr`` or ``SNOWFLAKE_EVENTS_SINK=/path/to/
events.jsonl`` (append mode), or programmatically via
:func:`set_sink`.

Record shape::

    {"schema": "snowflake-events/1", "t": <unix seconds>,
     "event": "<dotted.name>", "span": <correlation id or null>,
     "thread": <native tid>, ...event fields}

Event names are a stability contract (:data:`KNOWN_EVENTS` lists the
core vocabulary); see ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
import time
from collections import Counter, deque

__all__ = [
    "EVENTS_SCHEMA",
    "EVENT_CAPACITY",
    "KNOWN_EVENTS",
    "structured_enabled",
    "emit",
    "records",
    "counts_by_name",
    "dropped",
    "reset",
    "set_sink",
    "validate_events",
]

#: schema tag stamped into every record
EVENTS_SCHEMA = "snowflake-events/1"

#: ring-buffer capacity; past it the oldest record is evicted and the
#: eviction counted (bounded memory for long-lived services)
EVENT_CAPACITY = 8192

#: the core event-name vocabulary instrumented across the pipeline —
#: a *stability contract*: renaming any of these is a breaking change
#: to downstream log pipelines (docs/OBSERVABILITY.md)
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
    "dmem.rank.crash",
    "dmem.rank.failure",
    "dmem.retransmit",
    "dmem.checkpoint",
    "dmem.restore",
    "schedule.time_tile.refused",
    "tuning.trial",
    "tuning.candidate.refused",
    "tuning.winner",
)

_lock = threading.Lock()
_ring: deque = deque(maxlen=EVENT_CAPACITY)
_by_name: Counter = Counter()
_evicted = 0
_sink = None  # resolved lazily; False = disabled, file object otherwise
_sink_forced = False  # set_sink() wins over the environment


def structured_enabled() -> bool:
    """Is the structured event log recording?  (mode events or trace)"""
    from .registry import mode

    return mode() in ("events", "trace")


def _resolve_sink():
    """Open the configured sink once (env-driven unless set_sink won)."""
    global _sink
    if _sink is not None or _sink_forced:
        return _sink
    raw = os.environ.get("SNOWFLAKE_EVENTS_SINK", "").strip()
    if not raw:
        _sink = False
    elif raw == "stderr":
        _sink = sys.stderr
    else:
        try:
            _sink = open(raw, "a", encoding="utf-8")  # noqa: SIM115
        except OSError:
            _sink = False  # a bad sink must never take down the host
    return _sink


def set_sink(target) -> None:
    """Programmatic sink: a file-like object, a path, or ``None``.

    A non-``None`` target wins over ``SNOWFLAKE_EVENTS_SINK``;
    ``None`` drops the override and returns sink control to the
    environment (re-resolved on the next emit).
    """
    global _sink, _sink_forced
    with _lock:
        if target is None:
            _sink, _sink_forced = None, False
        elif isinstance(target, (str, os.PathLike)):
            _sink = open(target, "a", encoding="utf-8")  # noqa: SIM115
            _sink_forced = True
        else:
            _sink, _sink_forced = target, True


def _plain(v):
    """``v`` if strict JSON can carry it as a scalar, else its repr."""
    if isinstance(v, float):
        return v if math.isfinite(v) else repr(float(v))
    if isinstance(v, (str, int, bool, type(None))):
        return v
    return repr(v)


def emit(name: str, **fields) -> None:
    """Record one structured event (no-op outside events/trace modes).

    ``fields`` must be JSON-serializable; anything that is not is
    stringified rather than raised — the event log records failures, it
    must not cause them.  That includes non-finite floats, which strict
    JSON cannot carry: they are recorded as ``"inf"``/``"-inf"``/
    ``"nan"``.
    """
    if not structured_enabled():
        return
    from . import tracing

    rec = {
        "schema": EVENTS_SCHEMA,
        "t": round(time.time(), 6),
        "event": name,
        "span": tracing.current_span_id(),
        "thread": threading.get_native_id(),
    }
    for k, v in fields.items():
        if k in rec:
            k = f"field_{k}"  # never let a payload clobber the envelope
        rec[k] = v
    try:
        line = json.dumps(rec, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError):
        rec = {k: _plain(v) for k, v in rec.items()}
        line = json.dumps(rec, sort_keys=True, allow_nan=False)
    global _evicted
    with _lock:
        if len(_ring) == EVENT_CAPACITY:
            _evicted += 1
        _ring.append(rec)
        _by_name[name] += 1
        sink = _resolve_sink()
        if sink:
            try:
                sink.write(line + "\n")
                sink.flush()
            except (OSError, ValueError):
                pass  # a dead sink must not take down the pipeline


def records() -> list[dict]:
    """Copy of the buffered records, oldest first."""
    with _lock:
        return [dict(r) for r in _ring]


def counts_by_name() -> dict[str, int]:
    """Total emits per event name (survives ring eviction)."""
    with _lock:
        return dict(_by_name)


def dropped() -> int:
    """Records evicted from the ring because it was full."""
    return _evicted


def reset() -> None:
    """Drop the ring and the per-name totals (test isolation)."""
    global _evicted, _sink
    with _lock:
        _ring.clear()
        _by_name.clear()
        _evicted = 0
        if not _sink_forced:
            _sink = None  # re-resolve the env next emit


def validate_events(recs: list[dict]) -> list[str]:
    """Structural check of event records; returns problems.

    Every record must carry the schema tag, a non-empty event name, a
    numeric timestamp, and serialize as strict JSON (no ``NaN`` or
    ``Infinity`` tokens).
    """
    problems: list[str] = []
    for i, rec in enumerate(recs):
        if rec.get("schema") != EVENTS_SCHEMA:
            problems.append(f"record {i}: schema != {EVENTS_SCHEMA!r}")
        if not rec.get("event"):
            problems.append(f"record {i}: missing event name")
        if not isinstance(rec.get("t"), (int, float)):
            problems.append(f"record {i}: bad timestamp {rec.get('t')!r}")
        try:
            json.dumps(rec, allow_nan=False)
        except (TypeError, ValueError) as e:
            problems.append(f"record {i}: not strict JSON ({e})")
    return problems
