"""Hierarchical span tracing exported as Chrome trace-event JSON.

Where the registry (:mod:`repro.telemetry.registry`) answers "how much,
how often", this module answers *where the time went inside one solve*:
every stage of the pipeline — frontend passes, dependence analysis, JIT
compile/cache traffic, kernel invocations, resilience fallback
transitions, and simulated-fabric halo exchanges — opens a :func:`span`
around its work.  Spans nest (a kernel call contains its lazy
specialization, which contains the JIT compile, which contains the
``cc`` subprocess), carry monotonic timestamps and real thread ids, and
export as the Chrome trace-event format [1], so one ``trace.json`` is
directly loadable in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.

Activation: spans record while a :func:`session` is open (or after an
explicit :func:`start`), and also whenever ``SNOWFLAKE_TELEMETRY=trace``.
When inactive every hook is a single boolean check.

The tracer is also the profiler: every span's duration is exact, so
"where did the time go" is a fold over the buffer (:func:`self_times`,
``python -m repro top``) rather than a second, sampled estimate.

Lanes: events are keyed ``(pid, tid)``.  By default ``tid`` is the real
OS thread id, so multi-threaded compiles interleave truthfully.  A span
may instead name a *virtual lane* (``lane="rank 0"``) — the simulated
distributed ranks all run on one driver thread, but each rank's work
must land on its own track to be readable; lanes map to reserved
synthetic tids and are labelled with ``thread_name`` metadata records at
export.

[1] "Trace Event Format", the JSON consumed by chrome://tracing and
    Perfetto: complete events ``ph="X"`` with microsecond ``ts``/``dur``,
    instant events ``ph="i"``, metadata ``ph="M"``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "TRACE_SCHEMA",
    "SPAN_CAPACITY",
    "CATEGORIES",
    "active",
    "start",
    "stop",
    "clear",
    "session",
    "span",
    "instant",
    "events",
    "dropped",
    "current_span_id",
    "self_times",
    "export_chrome_trace",
    "validate_chrome_trace",
]

#: schema tag stamped into the exported document's ``otherData``
TRACE_SCHEMA = "snowflake-trace/1"

#: hard cap on buffered events; past it new events are counted as
#: dropped rather than growing without bound
SPAN_CAPACITY = 100_000

#: the subsystem categories the pipeline instrumentation uses (``cat``
#: field); free-form cats are allowed but these are what the smoke
#: validator looks for
CATEGORIES = (
    "frontend",
    "analysis",
    "jit",
    "kernel",
    "resilience",
    "dmem",
)

#: synthetic-tid base for virtual lanes, far above real thread ids
_LANE_TID_BASE = 900_000_000

_lock = threading.Lock()
_events: list[dict] = []
_dropped = 0
_sessions = 0  # explicit start()/stop() nesting depth
_lanes: dict[str, int] = {}  # lane name -> synthetic tid
_epoch_ns = time.perf_counter_ns()  # trace time zero (monotonic)
_local = threading.local()  # per-thread open-span stack
_ids = itertools.count(1)  # span correlation ids (next() is atomic)


def active(mode: str | None = None) -> bool:
    """Is span collection on?  The hot-path gate.

    ``mode`` is the registry mode when the caller has already resolved
    it (a bound kernel call resolves it once and passes it down).
    """
    if _sessions > 0:
        return True
    if mode is None:
        from .registry import mode as resolve

        mode = resolve()
    return mode == "trace"


def start() -> None:
    """Open a collection session (nestable; see :func:`session`)."""
    global _sessions
    with _lock:
        _sessions += 1


def stop() -> None:
    """Close one collection session (no-op below zero)."""
    global _sessions
    with _lock:
        _sessions = max(0, _sessions - 1)


def clear() -> None:
    """Drop every buffered event (test isolation / fresh recording)."""
    global _dropped
    with _lock:
        _events.clear()
        _lanes.clear()
        _dropped = 0


@contextmanager
def session(fresh: bool = True):
    """Collect spans for the duration of the block.

    ``fresh`` clears the buffer first so the exported trace contains
    exactly this session's events.
    """
    if fresh:
        clear()
    start()
    try:
        yield
    finally:
        stop()


def dropped() -> int:
    """Events discarded because the buffer hit :data:`SPAN_CAPACITY`."""
    return _dropped


# -- recording ----------------------------------------------------------------


def _now_us() -> float:
    return (time.perf_counter_ns() - _epoch_ns) / 1e3


def _tid(lane: str | None) -> int:
    if lane is None:
        return threading.get_native_id()
    with _lock:
        tid = _lanes.get(lane)
        if tid is None:
            tid = _LANE_TID_BASE + len(_lanes)
            _lanes[lane] = tid
    return tid


def _emit(ev: dict) -> None:
    global _dropped
    with _lock:
        if len(_events) >= SPAN_CAPACITY:
            _dropped += 1
            return
        _events.append(ev)


def _stack() -> list:
    st = getattr(_local, "stack", None)
    if st is None:
        st = _local.stack = []
    return st


def current_span_id() -> int | None:
    """Correlation id of this thread's innermost open span, if any.

    The id is also recorded in the span's exported ``args["span_id"]``,
    so a structured event (:mod:`repro.telemetry.events`) emitted inside
    the span links back to the exact trace record.
    """
    st = getattr(_local, "stack", None)
    if not st:
        return None
    return st[-1][1]


@contextmanager
def span(name: str, cat: str = "misc", lane: str | None = None, **args):
    """Record the block as one complete trace event (``ph="X"``).

    Spans on one thread nest: the enclosing span's name is recorded as
    ``args["parent"]`` and its id as ``args["parent_id"]``, so hierarchy
    survives even when a viewer flattens tracks or the span is drawn on
    a virtual lane.  A raising body is still recorded — where the time
    went matters most on the failing path — with ``args["error"]``
    naming the exception type.  Each span carries a process-unique
    ``span_id`` (see :func:`current_span_id`) correlating it with
    structured events.
    """
    if not active():
        yield
        return
    stack = _stack()
    parent = stack[-1] if stack else None
    sid = next(_ids)
    stack.append((name, sid))
    t0 = time.perf_counter_ns()
    err: str | None = None
    try:
        yield
    except BaseException as e:
        err = type(e).__name__
        raise
    finally:
        t1 = time.perf_counter_ns()
        stack.pop()
        fields = dict(args)
        fields["span_id"] = sid
        if parent is not None:
            fields.setdefault("parent", parent[0])
            fields["parent_id"] = parent[1]
        if err is not None:
            fields["error"] = err
        _emit(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": round((t0 - _epoch_ns) / 1e3, 3),
                "dur": round((t1 - t0) / 1e3, 3),
                "pid": os.getpid(),
                "tid": _tid(lane),
                "args": fields,
            }
        )


def instant(name: str, cat: str = "misc", lane: str | None = None, **args) -> None:
    """Record a zero-duration marker (``ph="i"``, thread scope)."""
    if not active():
        return
    _emit(
        {
            "name": name,
            "cat": cat,
            "ph": "i",
            "s": "t",
            "ts": round(_now_us(), 3),
            "pid": os.getpid(),
            "tid": _tid(lane),
            "args": dict(args),
        }
    )


# -- reading / export ---------------------------------------------------------


def events() -> list[dict]:
    """Copy of the buffered events, in emission order."""
    with _lock:
        return [dict(e) for e in _events]


def self_times(events: list[dict] | None = None) -> list[dict]:
    """Where the time went: a fold over the buffered complete spans.

    One row per ``(name, cat)``: ``{"name", "cat", "count", "total_s",
    "self_s"}``, hottest ``self_s`` first, where ``self_s`` is the
    spans' total duration minus that of their direct children.  Nesting
    is the recording thread's span stack (``args["parent_id"]``), not
    the export ``tid``: a span drawn on a virtual lane still comes out
    of the span that enclosed it.  A span whose parent is not in the
    buffer counts as a root, so the ``self_s`` column always sums to the
    roots' wall time.
    """
    if events is None:
        with _lock:
            events = list(_events)
    spans = [e for e in events if e.get("ph") == "X"]
    owner = {e["args"]["span_id"]: (e["name"], e["cat"]) for e in spans}
    rows = {
        key: {"name": key[0], "cat": key[1],
              "count": 0, "total_s": 0.0, "self_s": 0.0}
        for key in owner.values()
    }
    for e in spans:
        dur = e["dur"] / 1e6
        row = rows[e["name"], e["cat"]]
        row["count"] += 1
        row["total_s"] += dur
        row["self_s"] += dur
        parent = owner.get(e["args"].get("parent_id"))
        if parent is not None:
            rows[parent]["self_s"] -= dur
    return sorted(rows.values(), key=lambda r: -r["self_s"])


def _metadata_events() -> list[dict]:
    pid = os.getpid()
    out = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro-snowflake"},
        }
    ]
    with _lock:
        lanes = dict(_lanes)
    for lane, tid in sorted(lanes.items(), key=lambda kv: kv[1]):
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": lane},
            }
        )
    return out


def export_chrome_trace(path: str | os.PathLike | None = None) -> dict:
    """Assemble the Chrome trace-event document (and write it if asked).

    Returns the document; with ``path`` it is also serialized as JSON.
    Load the file in Perfetto or ``chrome://tracing`` as-is.
    """
    from .. import __version__

    doc = {
        "traceEvents": _metadata_events() + events(),
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TRACE_SCHEMA,
            "version": __version__,
            "unix_time": time.time(),
            "dropped_events": dropped(),
        },
    }
    if path is not None:
        Path(path).write_text(json.dumps(doc, indent=1) + "\n")
    return doc


def validate_chrome_trace(doc: dict) -> list[str]:
    """Structural check of an exported document; returns problems.

    Used by ``python -m repro trace --smoke`` and the CI trace job: an
    empty list means every event is a well-formed trace-event record
    with monotonic, non-negative timestamps per thread.
    """
    problems: list[str] = []
    evs = doc.get("traceEvents")
    if not isinstance(evs, list) or not evs:
        return ["traceEvents missing or empty"]
    if doc.get("otherData", {}).get("schema") != TRACE_SCHEMA:
        problems.append(f"schema != {TRACE_SCHEMA!r}")
    last_ts: dict[tuple[int, int], float] = {}
    for i, ev in enumerate(evs):
        ph = ev.get("ph")
        if ph not in ("X", "i", "M"):
            problems.append(f"event {i}: unknown ph {ph!r}")
            continue
        for key in ("name", "pid", "tid"):
            if key not in ev:
                problems.append(f"event {i}: missing {key!r}")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i}: bad ts {ts!r}")
            continue
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i}: bad dur {dur!r}")
        key = (ev.get("pid"), ev.get("tid"))
        # emission order per thread must be time-ordered (monotonic
        # clock): an X event is emitted at its *end*, so compare ends.
        end = ts + ev.get("dur", 0.0) if ph == "X" else ts
        if key in last_ts and end < last_ts[key] - 1e-6:
            problems.append(
                f"event {i}: timestamps not monotonic on tid {key[1]}"
            )
        last_ts[key] = max(last_ts.get(key, 0.0), end)
    return problems
