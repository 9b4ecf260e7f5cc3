"""The duration store: fixed-bucket latency histograms.

Every duration the pipeline measures is folded by :func:`observe` into a
fixed-bucket log-scale histogram series, and nowhere else: the series
holds count/sum/min/max exactly and p50/p95/p99 to bucket resolution,
without storing samples.  The ``timers``, ``kernels`` and
``histograms`` tables of :func:`repro.telemetry.snapshot` (schema
``snowflake-stats/1``, written by ``python -m repro trace --json``) are
views of these series.  Fixed bucket boundaries make histograms
mergeable — across threads, across snapshots, across processes.

Designed for the hot path:

* **lock-free per-thread shards** — each thread owns a private shard
  per series, reached through a ``threading.local`` dict, so a write in
  steady state is a dict lookup, a bisect over ~25 boundaries, and a
  few in-place adds; no lock is taken and no other thread's cache line
  is touched.  The lock is only held when a thread sees a series for
  the first time, to publish its shard for the merge;
* **merge on read** — :func:`snapshot_histograms` sums the shards under
  the lock (shard *list* consistency), reading counts that other
  threads may still be bumping: a reader can be at most one in-flight
  observation stale, never torn (CPython attribute and list-slot
  stores are whole-object stores).
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = [
    "BUCKETS",
    "observe",
    "percentile_from_buckets",
    "snapshot_histograms",
    "reset_histograms",
]

#: Fixed histogram bucket upper bounds, in seconds: a 1-2.5-5 ladder
#: from 1µs to 100s.  Fixed boundaries are the whole design — shards,
#: snapshots and processes merge by elementwise addition.  Changing them
#: is a metrics-schema break (see docs/OBSERVABILITY.md).
BUCKETS: tuple[float, ...] = tuple(
    float(f"{base * mult:.6g}")  # exact decimal bounds (2.5e-06, not 2.4999...)
    for base in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
    for mult in (1.0, 2.5, 5.0)
) + (100.0,)

_NBUCKETS = len(BUCKETS) + 1  # + overflow (+Inf)

_lock = threading.Lock()
#: series key ``(name, labels)`` -> one shard per observing thread
_series: dict[tuple, list["_Shard"]] = {}
_generation = 0  # bumped by reset so threads drop stale shards
_tls = threading.local()


class _Shard:
    """One thread's private slice of one series."""

    __slots__ = ("counts", "sum", "min", "max", "points")

    def __init__(self) -> None:
        self.counts = [0] * _NBUCKETS
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.points = 0  # stencil applications (``kernel.call`` only)


def _publish(key: tuple) -> _Shard:
    """Create this thread's shard for ``key`` and publish it for the merge."""
    shard = _Shard()
    with _lock:
        # re-sync generation under the lock so a racing reset() can
        # neither resurrect a pre-reset shard nor orphan this one
        # (cached thread-locally but never published — every later
        # observation would silently vanish)
        if _tls.gen != _generation:
            _tls.gen = _generation
            _tls.shards = {}
        _series.setdefault(key, []).append(shard)
    _tls.shards[key] = shard
    return shard


def _record(key: tuple, value: float) -> _Shard:
    """Fold ``value`` into this thread's shard of series ``key``.

    The unconditional write path (callers already checked the mode).
    ``key`` is ``(name, labels)`` with ``labels`` a sorted tuple of
    ``(label, value)`` pairs.  Returns the shard.
    """
    if getattr(_tls, "gen", None) != _generation:
        _tls.gen = _generation
        _tls.shards = {}
    shard = _tls.shards.get(key) or _publish(key)
    v = float(value)
    shard.counts[bisect_left(BUCKETS, v)] += 1
    shard.sum += v
    if v < shard.min:
        shard.min = v
    if v > shard.max:
        shard.max = v
    return shard


def observe(name: str, value: float, **labels) -> None:
    """Fold one duration (seconds) into histogram series ``name``.

    The one write function of the duration store.  Labels split the
    series (``observe("dmem.halo.rtt", dt, rank="0")``); an
    unlabelled series is also a row of the ``timers`` table.  No-op
    when telemetry is off.  Lock-free after the first observation of a
    series on a thread.
    """
    from .registry import mode

    if mode() != "off":
        _record((name, tuple(sorted(labels.items())) if labels else ()), value)


def percentile_from_buckets(counts: list[int], q: float) -> float | None:
    """Estimate the ``q``-quantile (0..1) from merged bucket counts.

    Linear interpolation inside the landing bucket; the overflow bucket
    reports its lower bound (the last finite boundary).  ``None`` on an
    empty histogram.
    """
    total = sum(counts)
    if total == 0:
        return None
    rank = q * total
    seen = 0.0
    for i, c in enumerate(counts):
        if c == 0:
            continue
        if seen + c >= rank:
            lo = BUCKETS[i - 1] if i > 0 else 0.0
            hi = BUCKETS[i] if i < len(BUCKETS) else BUCKETS[-1]
            if hi <= lo:
                return hi
            frac = (rank - seen) / c
            return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
        seen += c
    return BUCKETS[-1]  # pragma: no cover - rank <= total by construction


def _merged() -> list[dict]:
    """Merge every shard: one raw record per non-empty series, sorted."""
    with _lock:
        items = [(key, list(shards)) for key, shards in _series.items()]
    out = []
    for (name, labels), shards in sorted(items, key=lambda kv: kv[0]):
        counts = [0] * _NBUCKETS
        for shard in shards:
            for i, c in enumerate(shard.counts):
                counts[i] += c
        if not any(counts):
            continue
        out.append(
            {
                "name": name,
                "labels": dict(labels),
                "counts": counts,
                "count": sum(counts),
                "sum": sum(shard.sum for shard in shards),
                "min": min(shard.min for shard in shards),
                "max": max(shard.max for shard in shards),
                "points": sum(shard.points for shard in shards),
            }
        )
    return out


def _histograms(merged: list[dict]) -> dict:
    """The ``histograms`` section from :func:`_merged` records."""
    out: dict[str, list[dict]] = {}
    for m in merged:
        counts = m["counts"]
        cum, acc = [], 0
        for i in range(_NBUCKETS):
            acc += counts[i]
            # the overflow bound is the *string* "+Inf" so snapshots
            # stay strict JSON (json.dumps would emit bare Infinity)
            bound = BUCKETS[i] if i < len(BUCKETS) else "+Inf"
            cum.append([bound, acc])
        out.setdefault(m["name"], []).append(
            {
                "labels": m["labels"],
                "count": m["count"],
                "sum": m["sum"],
                "min": m["min"],
                "max": m["max"],
                "p50": percentile_from_buckets(counts, 0.50),
                "p95": percentile_from_buckets(counts, 0.95),
                "p99": percentile_from_buckets(counts, 0.99),
                "buckets": cum,
            }
        )
    return out


def snapshot_histograms() -> dict:
    """Merge every shard: series name -> list of per-labelset records.

    Each record: ``{"labels", "count", "sum", "min", "max", "p50",
    "p95", "p99", "buckets"}`` where ``buckets`` pairs each boundary
    (``+Inf`` last) with its *cumulative* count.
    """
    return _histograms(_merged())


def reset_histograms() -> None:
    """Drop every series and orphan all live shards (test isolation)."""
    global _generation
    with _lock:
        _generation += 1
        _series.clear()
