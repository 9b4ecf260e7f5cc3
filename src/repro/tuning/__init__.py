"""Schedule tuning: one cost-model-guided search and the persistent
per-machine, per-backend tuning cache.

:func:`search_schedules` predicts candidate
:class:`~repro.schedule.ScheduleOptions` with the analytic cost model
and measures the promising ones (or an explicit ``candidates`` list —
the paper's Section IV-A "method of tuning tiling sizes"); the winner is
persisted via :mod:`repro.tuning.cache` and used by
``compile(..., schedule="tuned")``, never implicitly.
"""

from .cache import (
    TUNE_SCHEMA,
    load_winner,
    machine_fingerprint,
    save_winner,
    tune_tag,
    winner_path,
)
from .search import (
    SearchResult,
    Trial,
    predict_schedule_time,
    search_schedules,
)

__all__ = [
    "TUNE_SCHEMA",
    "load_winner",
    "machine_fingerprint",
    "save_winner",
    "tune_tag",
    "winner_path",
    "SearchResult",
    "Trial",
    "predict_schedule_time",
    "search_schedules",
]
