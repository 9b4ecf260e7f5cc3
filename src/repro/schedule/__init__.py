"""``repro.schedule`` — the unified schedule IR (one plan, every backend).

The lowering stage between the frontend analysis and the
micro-compilers: :func:`build_schedule` turns a
:class:`~repro.core.stencil.StencilGroup` plus concrete shapes into a
:class:`Schedule` — phases, fused chains, color sweeps and tile/block
decisions, each tagged with the Diophantine evidence that legalizes it.
All six backends consume the same :class:`Schedule` instead of
re-deriving structure; pass one explicitly via
``group.compile(backend=..., schedule=...)`` or let the backend build it
from :class:`ScheduleOptions` — the one option vocabulary of every
built-in backend.
"""

from .ir import (
    Evidence,
    ParityClass,
    Schedule,
    SchedulePhase,
    Step,
    detect_parity_class,
)
from .lower import (
    ScheduleError,
    as_schedule,
    build_schedule,
    fusion_chains,
    plane_lag_verdict,
    schedule_for,
    verify_schedule,
)
from .options import POLICIES, ScheduleOptions

__all__ = [
    "Evidence",
    "ParityClass",
    "Schedule",
    "SchedulePhase",
    "Step",
    "detect_parity_class",
    "ScheduleError",
    "as_schedule",
    "build_schedule",
    "fusion_chains",
    "plane_lag_verdict",
    "schedule_for",
    "verify_schedule",
    "POLICIES",
    "ScheduleOptions",
]
