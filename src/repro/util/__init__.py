"""Shared utilities: table formatting, artifact paths, Diophantine solvers."""

from .tables import format_table

__all__ = [
    "format_table",
]
