"""The duration store: latency histograms and the OpenMetrics exporter.

Every duration the pipeline measures is folded by :func:`observe` into a
fixed-bucket log-scale histogram series, and nowhere else: the series
holds count/sum/min/max exactly and p50/p95/p99 to bucket resolution,
without storing samples.  The ``timers`` and ``kernels`` tables of
:func:`repro.telemetry.snapshot` are views of these series.  Fixed
bucket boundaries make histograms mergeable — across threads, across
scrapes, across processes.

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

The second half of the module is the **OpenMetrics text exporter**
(:func:`render_openmetrics`): every counter, kernel stat, histogram
and structured-event count the process has collected, rendered as
well-typed ``snowflake_*`` metric families with ``backend``/``kernel``
labels, terminated by ``# EOF``.  ``python -m repro stats
--openmetrics`` prints it.

Metric-name stability: the families emitted here are a public contract
(dashboards reference them); see ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left

__all__ = [
    "BUCKETS",
    "observe",
    "percentile_from_buckets",
    "snapshot_histograms",
    "reset_histograms",
    "render_openmetrics",
    "validate_openmetrics",
]

#: Fixed histogram bucket upper bounds, in seconds: a 1-2.5-5 ladder
#: from 1µs to 100s.  Fixed boundaries are the whole design — shards,
#: scrapes and processes merge by elementwise addition.  Changing them
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

    The one write function of the duration store.  Labels become
    OpenMetrics labels (``observe("dmem.halo.rtt", dt, rank="0")``); an
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
    (``+Inf`` last) with its *cumulative* count, OpenMetrics-style.
    """
    return _histograms(_merged())


def reset_histograms() -> None:
    """Drop every series and orphan all live shards (test isolation)."""
    global _generation
    with _lock:
        _generation += 1
        _series.clear()


# -- OpenMetrics rendering ----------------------------------------------------

_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")

#: dotted-name patterns whose middle component is really a label;
#: everything else sanitizes verbatim.  Order matters: first match wins.
_LABEL_RULES: tuple[tuple[re.Pattern, str, str], ...] = (
    (re.compile(r"^codegen\.([a-z0-9_-]+)\.(sources|bytes)$"),
     "codegen_\\2", "backend"),
    (re.compile(r"^backend\.([a-z0-9_-]+)\.(specialize)$"),
     "backend_\\2", "backend"),
)


def _sanitize(name: str) -> str:
    return _NAME_OK.sub("_", name.replace(".", "_").replace("-", "_"))


def _family(name: str) -> tuple[str, dict[str, str]]:
    """Map a dotted registry name to (family_suffix, extracted_labels)."""
    for pat, repl, label in _LABEL_RULES:
        m = pat.match(name)
        if m:
            return pat.sub(repl, name), {label: m.group(1)}
    return _sanitize(name), {}


def _labelstr(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_sanitize(str(k))}="{_escape(str(v))}"'
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _escape(v: str) -> str:
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _num(v: float) -> str:
    if v == float("inf"):
        return "+Inf"
    if v != v:  # NaN
        return "NaN"
    return repr(float(v))


class _Doc:
    """Accumulates families, enforcing one TYPE/HELP block per family."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._seen: set[str] = set()

    def family(self, name: str, mtype: str, help_: str) -> None:
        if name in self._seen:
            return
        self._seen.add(name)
        self.lines.append(f"# TYPE {name} {mtype}")
        self.lines.append(f"# HELP {name} {help_}")

    def sample(self, name: str, labels: dict, value: float) -> None:
        self.lines.append(f"{name}{_labelstr(labels)} {_num(value)}")


def render_openmetrics(snap: dict | None = None) -> str:
    """Render the full process state as OpenMetrics text.

    ``snap`` defaults to a live :func:`~repro.telemetry.snapshot` (which
    embeds the merged histograms).  Every counter, kernel stat,
    histogram series and structured-event total is emitted as a
    ``snowflake_*`` family; the document ends with ``# EOF`` per the
    OpenMetrics spec.
    """
    from .. import __version__
    from . import events as _events
    from .registry import snapshot

    if snap is None:
        snap = snapshot()
    doc = _Doc()

    doc.family("snowflake_build", "info", "repro-snowflake build metadata")
    doc.sample(
        "snowflake_build_info",
        {"version": __version__, "stats_schema": snap.get("schema", "?")},
        1,
    )

    for name, n in sorted(snap.get("counters", {}).items()):
        fam, labels = _family(name)
        full = f"snowflake_{fam}"
        doc.family(full, "counter", f"registry counter {name}")
        doc.sample(full + "_total", labels, n)

    kernels = snap.get("kernels", {})
    if kernels:
        # one family block at a time: OpenMetrics requires a family's
        # samples contiguous under its metadata
        for field, help_ in (
            ("calls", "compiled-kernel invocations per backend"),
            ("seconds", "wall time inside compiled kernels per backend"),
            ("points", "stencil applications computed per backend"),
        ):
            fam = f"snowflake_kernel_{field}"
            doc.family(fam, "counter", help_)
            for backend, k in sorted(kernels.items()):
                doc.sample(fam + "_total", {"backend": backend}, k[field])

    for name, series in sorted(snap.get("histograms", {}).items()):
        fam, base_labels = _family(name)
        full = f"snowflake_{fam}_seconds"
        doc.family(full, "histogram", f"latency histogram {name}")
        for rec in series:
            labels = {**base_labels, **rec["labels"]}
            for bound, cum in rec["buckets"]:
                le = bound if isinstance(bound, str) else _num(bound)
                doc.sample(full + "_bucket", {**labels, "le": le}, cum)
            doc.sample(full + "_count", labels, rec["count"])
            doc.sample(full + "_sum", labels, rec["sum"])

    ev_counts = _events.counts_by_name()
    if ev_counts:
        doc.family("snowflake_events", "counter",
                   "structured events emitted, by event name")
        for name, n in sorted(ev_counts.items()):
            doc.sample("snowflake_events_total", {"event": name}, n)

    return "\n".join(doc.lines) + "\n# EOF\n"


_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? [^ ]+( [0-9.e+-]+)?$"
)


def validate_openmetrics(text: str) -> list[str]:
    """Structural check of an OpenMetrics document; returns problems.

    Not a full spec parser — verifies what the CI scrape job needs:
    ``# EOF`` termination, well-formed sample/metadata lines, TYPE
    metadata preceding every family's samples, and histogram bucket
    monotonicity.
    """
    problems: list[str] = []
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        problems.append("document does not end with # EOF")
    typed: set[str] = set()
    bucket_last: dict[str, float] = {}
    for i, line in enumerate(lines):
        if not line or line == "# EOF":
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[1] not in ("TYPE", "HELP", "UNIT"):
                problems.append(f"line {i}: bad metadata {line!r}")
            elif parts[1] == "TYPE":
                typed.add(parts[2])
            continue
        if not _SAMPLE_RE.match(line):
            problems.append(f"line {i}: bad sample line {line!r}")
            continue
        metric = line.split("{", 1)[0].split(" ", 1)[0]
        base = re.sub(
            r"_(total|count|sum|bucket|created|info)$", "", metric
        )
        if metric not in typed and base not in typed:
            problems.append(f"line {i}: sample {metric} has no TYPE")
        if metric.endswith("_bucket"):
            m = re.search(r'le="([^"]+)"', line)
            series = line.rsplit(" ", 1)[0].replace(
                f'le="{m.group(1)}"', "") if m else metric
            if m is None:
                problems.append(f"line {i}: bucket sample without le=")
            else:
                le = float("inf") if m.group(1) == "+Inf" else float(m.group(1))
                prev = bucket_last.get(series)
                if prev is not None and le <= prev:
                    problems.append(
                        f"line {i}: bucket le={m.group(1)} not increasing"
                    )
                bucket_last[series] = le
    return problems

