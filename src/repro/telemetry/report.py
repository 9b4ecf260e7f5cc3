"""Render telemetry as fixed-width :mod:`repro.util.tables`.

``python -m repro stats`` prints :func:`format_stats`: one table per
collection family (kernel invocations, timers, labelled histograms,
counters), diff-able and stable-sorted.  ``python -m repro top`` prints
:func:`render_top`: the span tracer's self-time fold, hottest first.
"""

from __future__ import annotations

from ..util.tables import format_table
from . import tracing
from .registry import snapshot

__all__ = ["format_stats", "render_stats", "render_top"]


def _quantiles_for(hists: dict, name: str, labels: dict | None = None):
    """p50/p95/p99 of one histogram series, or dashes when absent."""
    for rec in hists.get(name, ()):
        if labels is None or rec.get("labels") == labels:
            return rec["p50"], rec["p95"], rec["p99"]
    return "-", "-", "-"


def format_stats(snap: dict) -> str:
    """Fixed-width report of one :func:`~repro.telemetry.snapshot`."""
    blocks: list[str] = [f"telemetry mode: {snap.get('mode', '?')}"]
    hists = snap.get("histograms", {})

    kernels = snap.get("kernels", {})
    if kernels:
        rows = []
        for backend, k in sorted(kernels.items()):
            p50, p95, p99 = _quantiles_for(
                hists, "kernel.call", {"backend": backend}
            )
            rows.append([
                backend,
                k["calls"],
                k["seconds"],
                (k["points_per_s"] / 1e6 if k["points_per_s"] else "-"),
                k["points"],
                p50, p95, p99,
            ])
        blocks.append(
            format_table(
                ["backend", "calls", "seconds", "Mpoint/s", "points",
                 "p50_s", "p95_s", "p99_s"],
                rows,
                title="kernel invocations",
            )
        )

    timers = snap.get("timers", {})
    if timers:
        rows = []
        for name, t in sorted(timers.items()):
            p50, p95, p99 = _quantiles_for(hists, name, {})
            rows.append([
                name, t["count"], t["total_s"], t["mean_s"], t["max_s"],
                p50, p95, p99,
            ])
        blocks.append(
            format_table(
                ["timer", "count", "total_s", "mean_s", "max_s",
                 "p50_s", "p95_s", "p99_s"],
                rows,
                title="timers",
            )
        )

    # Labelled series (kernel.call, dmem.halo.rtt): the timers table
    # above is the unlabelled ones.
    extra_rows = []
    for name, series in sorted(hists.items()):
        if name in timers:
            continue
        for rec in series:
            label = ",".join(
                f"{k}={v}" for k, v in sorted(rec["labels"].items())
            ) or "-"
            extra_rows.append([
                name, label, rec["count"], rec["sum"],
                rec["p50"], rec["p95"], rec["p99"], rec["max"],
            ])
    if extra_rows:
        blocks.append(
            format_table(
                ["histogram", "labels", "count", "total_s",
                 "p50_s", "p95_s", "p99_s", "max_s"],
                extra_rows,
                title="latency histograms",
            )
        )

    counters = snap.get("counters", {})
    # The distributed fabric gets its own table: transport resilience
    # (retransmits, duplicates, reordering, CRC rejects), rank crashes,
    # checkpoint restores, and barrier-audit failures would otherwise
    # drown in the generic counter list.
    dmem = {
        name[len("dmem."):]: n
        for name, n in counters.items()
        if name.startswith("dmem.")
    }
    if dmem:
        rows = [[name, n] for name, n in sorted(dmem.items())]
        blocks.append(
            format_table(
                ["event", "count"], rows, title="distributed fabric"
            )
        )
    general = {
        name: n for name, n in counters.items()
        if not name.startswith("dmem.")
    }
    if general:
        rows = [[name, n] for name, n in sorted(general.items())]
        blocks.append(format_table(["counter", "value"], rows, title="counters"))

    if len(blocks) == 1:
        blocks.append("(nothing recorded)")
    return "\n\n".join(blocks)


def render_stats() -> str:
    """One-call convenience: snapshot the live registry and format it."""
    return format_stats(snapshot())


def render_top(rows: list[dict] | None = None, limit: int = 20) -> str:
    """The ``repro top`` table: hottest spans by self time.

    ``rows`` defaults to :func:`repro.telemetry.tracing.self_times` of
    the live buffer.  ``share`` is a row's self time over the root
    spans' wall time (the ``self_s`` column sums to it).
    """
    if rows is None:
        rows = tracing.self_times()
    dropped = f"{tracing.dropped()} event(s) dropped"
    if not rows:
        return f"(no spans recorded — nothing ran under a session; {dropped})"
    wall = sum(r["self_s"] for r in rows)
    table = format_table(
        ["span", "subsystem", "count", "total_s", "self_s", "share"],
        [
            [r["name"], r["cat"], r["count"], r["total_s"], r["self_s"],
             f"{r['self_s'] / wall * 100:.1f}%" if wall > 0 else "-"]
            for r in rows[:limit]
        ],
        title="hot paths (span self time)",
    )
    spans = sum(r["count"] for r in rows)
    return (
        f"{table}\n\n{spans} spans over {wall:.6g} s of root wall time; "
        f"{dropped}"
    )
