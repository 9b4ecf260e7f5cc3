"""Shared utilities: timing, table formatting, deterministic RNG."""

from .timing import best_of, time_callable
from .tables import format_table

__all__ = [
    "best_of",
    "time_callable",
    "format_table",
]
