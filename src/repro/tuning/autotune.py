"""Schedule autotuning (paper SectionIV-A).

The OpenMP micro-compiler "allows the user to specify a tiling size when
compiling the stencil, and provides a method of tuning tiling sizes" —
this module is that method, generalized to the unified schedule IR:
:func:`autotune_schedule` times a group under a set of candidate
:class:`~repro.schedule.ScheduleOptions` (tile, fuse, multicolor,
policy, block) and returns the fastest, while :func:`autotune_tile`
keeps the historical tile-only surface as a thin wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .. import telemetry
from ..core.stencil import StencilGroup
from ..schedule import ScheduleOptions, schedule_for
from ..util.timing import best_of

__all__ = [
    "TuneResult",
    "ScheduleTuneResult",
    "autotune_tile",
    "autotune_schedule",
    "default_schedule_candidates",
    "check_tune_model",
]

DEFAULT_CANDIDATES = (2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class TuneResult:
    best_tile: int
    timings: dict[int, float]  # tile -> best-of wall seconds

    def speedup_over_worst(self) -> float:
        return max(self.timings.values()) / self.timings[self.best_tile]


@dataclass(frozen=True)
class ScheduleTuneResult:
    """Outcome of a schedule search: the winning options + full table."""

    best: ScheduleOptions
    timings: tuple  # ((ScheduleOptions, seconds), ...) in candidate order
    #: cost-model predictions aligned with ``timings`` — one predicted
    #: seconds (or ``inf`` for a refused candidate) per entry; empty
    #: when the tuner ran without a machine spec
    predicted: tuple = ()

    def best_time(self) -> float:
        # The candidate list may contain duplicates (a caller-built grid
        # that repeats an option); collapsing through dict() would keep
        # the *last* duplicate's time, not the winning one.
        return min(t for o, t in self.timings if o == self.best)

    def speedup_over_worst(self) -> float:
        # Refused candidates are recorded as inf; compare against the
        # slowest candidate that actually ran.
        times = [t for _, t in self.timings if t != float("inf")]
        return max(times) / self.best_time()


def default_schedule_candidates(
    tiles: Sequence[int] = DEFAULT_CANDIDATES,
    *,
    base: ScheduleOptions | None = None,
    fuse: Sequence[bool] = (False,),
    time_tiles: Sequence[int] = (1,),
) -> list[ScheduleOptions]:
    """The standard search grid: tile size × fusion × time-tile depth.

    ``time_tiles`` beyond the default ``(1,)`` add temporal blocking to
    the grid; a depth the group cannot legally tile is skipped by
    :func:`autotune_schedule` (the refusal is recorded as an infinite
    time, so it can never win).
    """
    base = base or ScheduleOptions()
    return [
        replace(base, tile=int(t), fuse=f, time_tile=int(k))
        for k in time_tiles
        for f in fuse
        for t in tiles
    ]


def autotune_schedule(
    group: StencilGroup,
    arrays: Mapping[str, np.ndarray],
    params: Mapping[str, float] | None = None,
    *,
    backend: str = "c",
    candidates: Sequence[ScheduleOptions] | None = None,
    repeats: int = 3,
    spec: "object | str" = "paper-cpu",
    **backend_options,
) -> ScheduleTuneResult:
    """Time ``group`` under each candidate schedule; pick the fastest.

    Every candidate is lowered once through
    :func:`repro.schedule.build_schedule` and handed to the backend as a
    prebuilt ``schedule=`` — the search space is the schedule IR itself,
    not per-backend kwargs.  ``arrays`` are working copies (the tuner
    mutates them — pass scratch grids, not live data); non-scheduling
    ``backend_options`` (e.g. ``cc_timeout``) flow through unchanged.

    Alongside each measured time the result records the cost model's
    *prediction* for the same candidate on ``spec``
    (:func:`repro.tuning.search.predict_schedule_time`), so model drift
    is visible next to ground truth; ``spec=None`` skips prediction.
    """
    params = dict(params or {})
    shapes = {g: tuple(int(x) for x in a.shape) for g, a in arrays.items()}
    if candidates is None:
        candidates = default_schedule_candidates()
    timings: list[tuple[ScheduleOptions, float]] = []
    predicted: list[float] = []

    def _predict(opts: ScheduleOptions) -> float:
        if spec is None:
            return float("inf")
        from .search import predict_schedule_time

        try:
            return predict_schedule_time(group, shapes, opts, spec=spec)
        except (ValueError, NotImplementedError):
            return float("inf")

    for opts in candidates:
        try:
            sched = schedule_for(group, shapes, opts)
            kernel = group.compile(
                backend=backend, shapes=shapes, schedule=sched,
                **backend_options,
            )
        except (ValueError, NotImplementedError) as e:
            if opts.time_tile <= 1:
                raise
            # Time-tile refusal (or a backend that cannot lower it) is
            # a legal search outcome, not an error: record it as
            # infinitely slow so it can never win — and say why in the
            # event log instead of silently recording inf.
            ev = getattr(e, "evidence", None)
            kind = getattr(ev, "claim", None) or (
                "not-implemented"
                if isinstance(e, NotImplementedError)
                else type(e).__name__
            )
            telemetry.event(
                "tuning.candidate.refused",
                group=group.name, backend=backend, kind=str(kind),
                options=opts.describe(), detail=str(e),
            )
            timings.append((opts, float("inf")))
            predicted.append(float("inf"))
            continue
        p = _predict(opts)
        t = best_of(
            lambda: kernel(**arrays, **params),
            warmup=1, repeats=repeats,
        )
        timings.append((opts, t))
        predicted.append(p)
        telemetry.event(
            "tuning.trial",
            group=group.name, backend=backend, trial=len(timings),
            options=opts.describe(), predicted_s=p, measured_s=t,
        )
    best = min(timings, key=lambda item: item[1])[0]
    return ScheduleTuneResult(
        best, tuple(timings),
        tuple(predicted) if spec is not None else (),
    )


def autotune_tile(
    group: StencilGroup,
    arrays: Mapping[str, np.ndarray],
    params: Mapping[str, float] | None = None,
    *,
    backend: str = "c",
    candidates: Sequence[int] = DEFAULT_CANDIDATES,
    repeats: int = 3,
    **backend_options,
) -> TuneResult:
    """Historical tile-only tuning surface over :func:`autotune_schedule`.

    Scheduling kwargs the legacy surface accepted (``schedule=``,
    ``fuse=``, ``multicolor=``, ``block=``) become fields of the base
    :class:`ScheduleOptions`; anything else passes through to the
    backend.  When not given they keep the legacy resolved defaults —
    the :class:`ScheduleOptions` defaults the backends always applied:
    ``policy="greedy"``, ``fuse=False``, ``multicolor=True``,
    ``block=None`` (pinned by a regression test).
    """
    base = ScheduleOptions(
        policy=backend_options.pop("schedule", "greedy"),
        fuse=backend_options.pop("fuse", False),
        multicolor=backend_options.pop("multicolor", True),
        block=backend_options.pop("block", None),
    )
    result = autotune_schedule(
        group,
        arrays,
        params,
        backend=backend,
        candidates=[replace(base, tile=int(t)) for t in candidates],
        repeats=repeats,
        **backend_options,
    )
    timings = {opts.tile: t for opts, t in result.timings}
    return TuneResult(result.best.tile, timings)


def check_tune_model(
    result: ScheduleTuneResult,
    group: StencilGroup,
    shapes: Mapping[str, tuple[int, ...]],
    *,
    spec: "object | str" = "paper-cpu",
) -> list[str]:
    """Re-derive every recorded prediction in ``result``; list any drift.

    Predictions are analytic, so on a deterministic spec
    (``paper-cpu``) each recorded value must be *bit-exact* reproducible
    from the group definition — any mismatch means the cost model
    changed after the tuning run and the result's predictions are stale.
    """
    from .search import predict_schedule_time

    problems: list[str] = []
    if not result.predicted:
        return ["result records no predictions; cannot re-derive"]
    if len(result.predicted) != len(result.timings):
        return [
            f"{len(result.predicted)} predictions for "
            f"{len(result.timings)} timings; result is malformed"
        ]
    for i, ((opts, _t), recorded) in enumerate(
        zip(result.timings, result.predicted)
    ):
        try:
            expected = predict_schedule_time(
                group, shapes, opts, spec=spec
            )
        except (ValueError, NotImplementedError):
            expected = float("inf")
        if recorded != expected:
            problems.append(
                f"candidate {i} ({opts.describe()}): recorded "
                f"prediction {recorded!r} != re-derived {expected!r}"
            )
    return problems
