"""Wall-clock measurement helpers for the benchmark harness.

Follows the paper's protocol (SectionV-A): an untimed warmup phase
followed by the benchmarking phase; best-of-N reporting guards against
scheduler noise on shared machines.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["best_of", "time_callable"]


def time_callable(
    fn: Callable[[], object], warmup: int = 1, repeats: int = 3
) -> list[float]:
    """Per-repeat wall times after ``warmup`` untimed calls."""
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def best_of(fn: Callable[[], object], warmup: int = 1, repeats: int = 3) -> float:
    """Minimum wall time over ``repeats`` timed calls."""
    return min(time_callable(fn, warmup=warmup, repeats=repeats))
