"""Sample summaries: the quiet-host estimate, median, quartiles, tail."""

from __future__ import annotations

import statistics

__all__ = ["median", "quiet", "summary", "tail"]

median = statistics.median


def quiet(samples: list[float]) -> float:
    """What one operation costs while the host leaves the process alone:
    the sample a hundredth of the way up the sorted list (the fastest
    one below 100 samples).  A neighbour on a shared host only ever adds
    time, in spells that can outlast a run, so the fast end of the
    distribution repeats from run to run and the median does not."""
    return sorted(samples)[len(samples) // 100]


def summary(samples: list[float]) -> dict:
    """Median + quartiles + sample count, the form every timing is
    reported in."""
    if len(samples) < 2:
        q1 = q3 = samples[0]
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"median": median(samples), "q1": q1, "q3": q3, "n": len(samples)}


def tail(samples: list[float]) -> tuple[float, int]:
    """The p95 sample, or — with fewer than 200 samples — the highest
    one that still has ten samples beyond it (the maximum below eleven).
    Returned with the sample count so a reader can tell which."""
    s = sorted(samples)
    n = len(s)
    k = min(int(0.95 * n), n - 11)
    return s[max(k, 0) if n >= 11 else n - 1], n
