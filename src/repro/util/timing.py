"""Wall-clock measurement helpers for the benchmark harness.

Follows the paper's protocol (SectionV-A): an untimed warmup phase
followed by the benchmarking phase; best-of-N reporting guards against
scheduler noise on shared machines.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["Timer", "best_of", "time_callable"]


class Timer:
    """Context-manager stopwatch accumulating across entries.

    Only *clean* exits are recorded: a timed body that raises is an
    aborted run, and folding its partial duration into ``elapsed``
    would silently pollute the mean.  Aborted entries are tallied in
    ``aborted`` instead.

    >>> t = Timer()
    >>> with t:
    ...     work()
    >>> t.elapsed  # seconds
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self.count = 0
        self.aborted = 0
        self._t0 = 0.0

    def __enter__(self) -> "Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.aborted += 1
            return
        self.elapsed += time.perf_counter() - self._t0
        self.count += 1

    def reset(self) -> None:
        self.elapsed = 0.0
        self.count = 0
        self.aborted = 0

    @property
    def mean(self) -> float:
        return self.elapsed / self.count if self.count else 0.0


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
