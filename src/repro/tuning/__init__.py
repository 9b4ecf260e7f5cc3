"""Schedule tuning: one cost-model-guided search, a pure function.

:func:`search_schedules` predicts candidate
:class:`~repro.schedule.ScheduleOptions` with the analytic cost model
and measures the promising ones (or an explicit ``candidates`` list —
the paper's Section IV-A "method of tuning tiling sizes").  It returns
the winner as ``SearchResult.best``; the caller passes it on as
``compile(..., schedule=result.best)``.  No winner is written to disk.
"""

from .search import (
    SearchResult,
    Trial,
    predict_schedule_time,
    search_schedules,
)

__all__ = [
    "SearchResult",
    "Trial",
    "predict_schedule_time",
    "search_schedules",
]
