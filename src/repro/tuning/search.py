"""Cost-model-guided schedule search: the one tuner.

The paper's OpenMP micro-compiler "allows the user to specify a tiling
size ... and provides a method of tuning tiling sizes" (SectionIV-A);
this is that method for every field of
:class:`~repro.schedule.ScheduleOptions`.  Candidates are *predicted*
with the analytic cost model (:mod:`repro.kernel.cost` traffic on a
:class:`~repro.machine.specs.MachineSpec` roofline), and only the most
promising predictions are *measured* with min-over-repeats timing.
Illegal candidates (time-tile refusals, backends that cannot lower an
option) are recorded as ``refused`` trials with the refusing evidence
kind — and emitted as ``tuning.candidate.refused`` events — instead of
silently vanishing.

``time_tile`` is never searched: a ``k``-deep tile does ``k``
applications per call, so candidates of different depth are not
comparable per call.  Every candidate keeps the depth of the seed it
was derived from.

Winners persist per ``(tune_tag, backend, machine fingerprint)`` via
:mod:`repro.tuning.cache`; ``compile(..., schedule="tuned")`` uses them.

The prediction is deterministic — pure arithmetic over the kernel IR
and the spec record — so on ``paper-cpu`` it is bit-exact reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .. import telemetry
from ..backends import get_backend
from ..core.stencil import StencilGroup
from ..core.validate import iteration_shape
from ..kernel.cost import WORD_BYTES, SweptCost, swept_cost
from ..kernel.lower import body_for
from ..machine.specs import PAPER_PLATFORMS, MachineSpec, host_spec
from ..schedule import ScheduleOptions, schedule_for
from ..telemetry import tracing
from ..util.timing import best_of

__all__ = [
    "Trial",
    "SearchResult",
    "predict_schedule_time",
    "time_tile_cost",
    "search_schedules",
    "resolve_search_spec",
]

#: tile sizes the default search neighbourhood draws from
TILE_LADDER = (None, 4, 8, 16, 32, 64)
#: unroll factors the default search neighbourhood draws from
UNROLL_LADDER = (None, 2, 4, 8)


def resolve_search_spec(spec: "MachineSpec | str" = "paper-cpu") -> MachineSpec:
    """Accept a :class:`MachineSpec` or a name (host/paper-cpu/paper-gpu)."""
    if isinstance(spec, MachineSpec):
        return spec
    if spec == "host":
        return host_spec(measure=True)
    if spec in ("paper-cpu", "cpu"):
        return PAPER_PLATFORMS["cpu"]
    if spec in ("paper-gpu", "gpu"):
        return PAPER_PLATFORMS["gpu"]
    raise ValueError(
        f"unknown machine spec {spec!r}; choose host, paper-cpu or "
        "paper-gpu (or pass a MachineSpec)"
    )


@dataclass(frozen=True)
class Trial:
    """One candidate visited by the search."""

    options: ScheduleOptions
    predicted_s: float
    measured_s: float | None  # None until (unless) measured
    status: str  # "measured" | "predicted" | "refused"
    detail: str = ""  # refusal evidence kind, or ""

    def to_dict(self) -> dict:
        return {
            "options": self.options.to_dict(),
            "predicted_s": self.predicted_s,
            "measured_s": self.measured_s,
            "status": self.status,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one schedule search."""

    best: ScheduleOptions | None
    best_measured_s: float
    best_predicted_s: float
    trials: tuple[Trial, ...]
    backend: str
    budget: int

    def measured(self) -> list[Trial]:
        return [t for t in self.trials if t.status == "measured"]

    def table(self) -> str:
        """Fixed-width trial table for the CLI."""
        lines = [
            f"{'status':<9} {'predicted':>12} {'measured':>12}  options",
            "-" * 72,
        ]
        for t in self.trials:
            pred = (
                f"{t.predicted_s * 1e6:10.1f}us"
                if t.predicted_s != float("inf")
                else "         -"
            )
            meas = (
                f"{t.measured_s * 1e6:10.1f}us"
                if t.measured_s is not None
                else "         -"
            )
            opt = t.options.describe()
            if t.detail:
                opt += f"  [{t.detail}]"
            mark = ""
            if self.best is not None and t.options == self.best and (
                t.status == "measured"
            ):
                mark = " *"
            lines.append(f"{t.status:<9} {pred:>12} {meas:>12}  {opt}{mark}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": "snowflake-tune-search/1",
            "backend": self.backend,
            "budget": self.budget,
            "best": None if self.best is None else self.best.to_dict(),
            "best_measured_s": self.best_measured_s,
            "best_predicted_s": self.best_predicted_s,
            "trials": [t.to_dict() for t in self.trials],
        }


# ---------------------------------------------------------------------------
# the analytic predictor
# ---------------------------------------------------------------------------


def _points(stencil, norm: Mapping[str, tuple[int, ...]]) -> int:
    it_shape = iteration_shape(stencil, norm)
    return sum(
        r.npoints
        for r in stencil.domain.resolve(it_shape)
        if not r.is_empty()
    )


def _working_set(norm: Mapping[str, tuple[int, ...]]) -> float:
    """Bytes of every grid the program touches."""
    return sum(float(np.prod(s)) * WORD_BYTES for s in norm.values())


def time_tile_cost(
    stencil,
    shapes: Mapping[str, Sequence[int]],
    k: int,
    spec: "MachineSpec | str" = "paper-cpu",
) -> SweptCost:
    """Swept traffic of ``stencil`` under ``time_tile=k`` on ``spec``.

    The time tile is one outer loop around whole-grid sweeps, so the
    block that must stay resident across the ``k`` applications is the
    program's entire working set (``k = 1`` is the single-sweep cost).
    """
    body, _ = body_for(stencil)
    return swept_cost(
        body, stencil.output, k,
        tile_bytes=_working_set(shapes),
        cache_bytes=resolve_search_spec(spec).cache_bytes,
    )


def predict_schedule_time(
    group: StencilGroup,
    shapes: Mapping[str, tuple[int, ...]],
    options: ScheduleOptions,
    *,
    spec: "MachineSpec | str" = "paper-cpu",
) -> float:
    """Model seconds per kernel call for ``group`` under ``options``.

    Deterministic compulsory-traffic model: each step moves
    ``points x bytes/point`` through the roofline bandwidth the working
    set earns (:meth:`~repro.machine.specs.MachineSpec.effective_bw`);
    a time tile of depth ``k`` performs ``k`` applications per call
    using the swept (cache-resident) traffic model; snapshot steps pay
    the gather copy; every step launch pays the spec's per-launch
    overhead.  Raises whatever :func:`~repro.schedule.schedule_for`
    raises on an illegal candidate (typed
    :class:`~repro.transform.TransformError` for refused rewrites).
    """
    spec = resolve_search_spec(spec)
    norm = {g: tuple(int(x) for x in s) for g, s in shapes.items()}
    sched = schedule_for(group, norm, options)
    k = 1 if sched.time_tile is None else sched.time_tile.k
    bw = spec.effective_bw(_working_set(norm))
    seconds = 0.0
    launches = 0
    for step in sched.steps():
        launches += 1
        for i in step.stencils:
            st = group[i]
            bpp = time_tile_cost(st, norm, k, spec).swept_bytes_per_point
            seconds += _points(st, norm) * bpp / bw
        if step.snapshot:
            g = group[step.head].output
            snap_bytes = float(np.prod(norm[g])) * WORD_BYTES
            seconds += 2.0 * snap_bytes / bw  # gather copy: read + write
    seconds *= k  # k applications per call
    seconds += launches * k * spec.launch_overhead
    return seconds


# ---------------------------------------------------------------------------
# candidate space
# ---------------------------------------------------------------------------


def _default_grid() -> list[ScheduleOptions]:
    """The seed grid searched when the caller lists no candidates."""
    return [
        ScheduleOptions(tile=t, fuse=f)
        for f in (False, True)
        for t in TILE_LADDER
    ]


def _neighbours(opts: ScheduleOptions) -> list[ScheduleOptions]:
    """Single-option mutations of one candidate (the search moves)."""
    out: list[ScheduleOptions] = []
    ti = TILE_LADDER.index(opts.tile) if opts.tile in TILE_LADDER else 0
    for j in (ti - 1, ti + 1):
        if 0 <= j < len(TILE_LADDER):
            out.append(replace(opts, tile=TILE_LADDER[j]))
    ui = (
        UNROLL_LADDER.index(opts.unroll)
        if opts.unroll in UNROLL_LADDER
        else 0
    )
    for j in (ui - 1, ui + 1):
        if 0 <= j < len(UNROLL_LADDER):
            out.append(replace(opts, unroll=UNROLL_LADDER[j]))
    out.append(replace(opts, fuse=not opts.fuse))
    return [o for o in out if o != opts]


def _refusal_kind(exc: Exception) -> str:
    ev = getattr(exc, "evidence", None)
    kind = getattr(ev, "claim", None)
    if kind:
        return str(kind)
    if isinstance(exc, NotImplementedError):
        return "not-implemented"
    return type(exc).__name__


# ---------------------------------------------------------------------------
# the search proper
# ---------------------------------------------------------------------------


class _Bench:
    """Compile-and-measure harness."""

    def __init__(
        self, group, arrays, params, backend, repeats, backend_options
    ):
        self.group = group
        self.arrays = arrays
        self.params = dict(params or {})
        self.shapes = {
            g: tuple(int(x) for x in a.shape) for g, a in arrays.items()
        }
        self.backend = backend
        self.repeats = repeats
        self.backend_options = backend_options
        self.measured: dict[ScheduleOptions, float] = {}

    def measure(self, opts: ScheduleOptions) -> float:
        """Min-over-repeats seconds; raises on refused candidates."""
        if opts in self.measured:
            return self.measured[opts]
        sched = schedule_for(self.group, self.shapes, opts)
        kernel = self.group.compile(
            backend=self.backend, shapes=self.shapes, schedule=sched,
            **self.backend_options,
        )
        t = best_of(
            lambda: kernel(**self.arrays, **self.params),
            warmup=1, repeats=self.repeats,
        )
        self.measured[opts] = t
        return t


def search_schedules(
    group: StencilGroup,
    arrays: Mapping[str, np.ndarray],
    params: Mapping[str, float] | None = None,
    *,
    backend: str = "c",
    budget: int = 12,
    repeats: int = 3,
    spec: "MachineSpec | str" = "paper-cpu",
    candidates: Sequence[ScheduleOptions] | None = None,
    beam_width: int = 4,
    persist: bool = True,
    **backend_options,
) -> SearchResult:
    """Search the schedule space; measure at most ``budget`` candidates.

    The seed grid is predicted whole, its best predictions are
    measured, then the search hill-climbs by mutating the measured
    winner one option at a time.  With ``candidates`` the seed grid is
    that list and every listed candidate is measured (``budget``
    permitting) before any neighbour — timing an explicit set of tile
    sizes is ``candidates=[ScheduleOptions(tile=t) for t in ...],
    budget=len(candidates)``.  Without it the grid is tile x fuse and
    the ``beam_width`` best predictions are measured first.

    ``arrays`` are working copies — the search mutates them.  The winner
    is persisted to the tuning cache (:mod:`repro.tuning.cache`) unless
    ``persist=False``; ``compile(backend=..., schedule="tuned")`` uses
    it, in this process or a later one.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget!r}")
    backend = get_backend(backend).name
    grid = _default_grid() if candidates is None else list(candidates)
    width = beam_width if candidates is None else len(grid)
    mspec = resolve_search_spec(spec)
    bench = _Bench(group, arrays, params, backend, repeats, backend_options)
    trials: list[Trial] = []
    predictions: dict[ScheduleOptions, float] = {}
    refused: set = set()

    def predict(opts: ScheduleOptions) -> float | None:
        """Predicted seconds, or None when the candidate is refused."""
        if opts in predictions:
            return predictions[opts]
        if opts in refused:
            return None
        try:
            p = predict_schedule_time(
                group, bench.shapes, opts, spec=mspec
            )
        except (ValueError, NotImplementedError) as e:
            kind = _refusal_kind(e)
            refused.add(opts)
            trials.append(
                Trial(opts, float("inf"), None, "refused", kind)
            )
            telemetry.event(
                "tuning.candidate.refused",
                group=group.name, backend=backend, kind=kind,
                options=opts.describe(), detail=str(e),
            )
            return None
        predictions[opts] = p
        return p

    def measure(opts: ScheduleOptions) -> float | None:
        """Measured seconds, or None when compile/lower refuses."""
        p = predict(opts)
        if p is None:
            return None
        try:
            t = bench.measure(opts)
        except (ValueError, NotImplementedError) as e:
            kind = _refusal_kind(e)
            refused.add(opts)
            trials.append(Trial(opts, p, None, "refused", kind))
            telemetry.event(
                "tuning.candidate.refused",
                group=group.name, backend=backend, kind=kind,
                options=opts.describe(), detail=str(e),
            )
            return None
        trials.append(Trial(opts, p, t, "measured"))
        telemetry.event(
            "tuning.trial",
            group=group.name, backend=backend, trial=len(bench.measured),
            options=opts.describe(), predicted_s=p, measured_s=t,
        )
        return t

    with tracing.span(
        "tuning.search", cat="analysis", group=group.name,
        backend=backend, budget=budget,
    ):
        _run_beam(grid, budget, width, predict, measure, bench)

    best: ScheduleOptions | None = None
    best_t = float("inf")
    for opts, t in bench.measured.items():
        if t < best_t:
            best, best_t = opts, t
    best_p = predictions.get(best, float("inf")) if best else float("inf")
    # Candidates predicted but never measured still show in the table.
    for opts, p in predictions.items():
        if opts not in bench.measured and opts not in refused:
            if not any(
                t.options == opts and t.status != "refused" for t in trials
            ):
                trials.append(Trial(opts, p, None, "predicted"))
    result = SearchResult(
        best=best,
        best_measured_s=best_t,
        best_predicted_s=best_p,
        trials=tuple(trials),
        backend=backend,
        budget=budget,
    )
    if best is not None:
        telemetry.event(
            "tuning.winner",
            group=group.name, backend=backend,
            options=best.describe(), measured_s=best_t,
            predicted_s=best_p, trials=len(bench.measured),
        )
        if persist:
            from .cache import save_winner

            try:
                save_winner(
                    group, bench.shapes, best, backend=backend,
                    measured_s=best_t,
                    predicted_s=None if best_p == float("inf") else best_p,
                    trials=len(bench.measured),
                )
            except Exception:
                pass  # persistence is best-effort; the result stands
    return result


def _run_beam(grid, budget, width, predict, measure, bench) -> None:
    """Predict the grid; measure the beam; hill-climb the winner."""
    scored = [
        (p, o) for o in dict.fromkeys(grid) if (p := predict(o)) is not None
    ]
    scored.sort(key=lambda it: it[0])
    tried: set = set()  # measured or refused at measure time: never again
    for _, opts in scored[: max(1, width)]:
        if len(bench.measured) >= budget:
            return
        tried.add(opts)
        measure(opts)
    # hill-climb: mutate the measured winner, measure the most
    # promising untried prediction, repeat while budget remains
    while bench.measured and len(bench.measured) < budget:
        cur_best = min(bench.measured, key=bench.measured.get)
        frontier = [
            (p, o)
            for o in _neighbours(cur_best)
            if o not in tried and (p := predict(o)) is not None
        ]
        # fall back to the grid's next-best untried prediction
        frontier += [(p, o) for p, o in scored if o not in tried]
        if not frontier:
            return
        opts = min(frontier, key=lambda it: it[0])[1]
        tried.add(opts)
        measure(opts)
