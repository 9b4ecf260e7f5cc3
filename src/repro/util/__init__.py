"""Shared utilities: timing, table formatting, deterministic RNG."""

from .timing import Timer, best_of, time_callable
from .tables import format_table

__all__ = [
    "Timer",
    "best_of",
    "time_callable",
    "format_table",
]
