"""The transform protocol: legality-checked rewrites of the two IRs.

A :class:`Transform` is a small, composable rewrite object: it takes a
:class:`~repro.schedule.ir.Schedule` or a
:class:`~repro.kernel.ir.KernelBody` and returns a **new** one (both
IRs are immutable; nothing is rewritten in place).  Every schedule
rewrite is re-validated against the Diophantine/dependence evidence
the lowering stage produced — an illegal composition raises a typed
:class:`TransformError` carrying the refusing
:class:`~repro.schedule.ir.Evidence` instead of producing wrong code.

Compose with ``|``::

    from repro.transform import fuse, color_sweep, tile

    sched = (fuse() | color_sweep() | tile(16))(base)

:class:`Pipeline` is the composition; :func:`repro.transform.preset.
preset_pipeline` renders a :class:`~repro.schedule.ScheduleOptions`
record as one (the presets are now a thin veneer over this API).
"""

from __future__ import annotations

from ..kernel.ir import KernelBody
from ..schedule.ir import Evidence, Schedule

__all__ = ["TransformError", "Transform", "Pipeline"]


class TransformError(ValueError):
    """An illegal transform composition, with the refusing evidence.

    Subclasses :class:`ValueError` so every caller that treated
    schedule refusals as value errors (the tuner, the backends)
    keeps working unchanged.  ``evidence`` is the single
    :class:`~repro.schedule.ir.Evidence` that refused the rewrite;
    ``refusals`` carries the full list when the check found several.
    """

    def __init__(
        self,
        message: str,
        evidence: Evidence | None = None,
        refusals: tuple[Evidence, ...] = (),
    ) -> None:
        super().__init__(message)
        if evidence is None and refusals:
            evidence = refusals[0]
        self.evidence = evidence
        self.refusals = tuple(refusals) if refusals else (
            (evidence,) if evidence is not None else ()
        )


class Transform:
    """One rewrite of a :class:`Schedule` or :class:`KernelBody`.

    Subclasses implement :meth:`apply_schedule` and/or
    :meth:`apply_kernel`; applying a transform to the IR kind it does
    not understand raises :class:`TransformError` (claim
    ``target-mismatch``).  Schedule results are re-validated with
    :func:`repro.transform.schedule_tx.verify_schedule` after every
    application — a transform cannot hand back a schedule that violates
    the dependence plan, the snapshot verdicts or the sweep recognition
    it was built from.
    """

    #: short name used by :meth:`describe` and error messages
    name = "transform"

    def __call__(self, obj):
        if isinstance(obj, Schedule):
            out = self.apply_schedule(obj)
            from .schedule_tx import verify_schedule

            problems = verify_schedule(out)
            if problems:
                raise TransformError(
                    f"{self.describe()} produced an illegal schedule: "
                    + "; ".join(str(p) for p in problems),
                    refusals=tuple(problems),
                )
            return out
        if isinstance(obj, KernelBody):
            return self.apply_kernel(obj)
        raise TransformError(
            f"{self.describe()} cannot rewrite {type(obj).__name__}; "
            "transforms take a Schedule or a KernelBody",
            evidence=Evidence(
                "target-mismatch",
                f"{self.describe()} applied to {type(obj).__name__}",
            ),
        )

    # -- per-kind hooks (subclasses override the one(s) they support) ------

    def apply_schedule(self, sched: Schedule) -> Schedule:
        raise TransformError(
            f"{self.describe()} is a kernel transform; it cannot rewrite "
            "a Schedule",
            evidence=Evidence(
                "target-mismatch", f"{self.describe()} applied to a Schedule"
            ),
        )

    def apply_kernel(self, body: KernelBody) -> KernelBody:
        raise TransformError(
            f"{self.describe()} is a schedule transform; it cannot "
            "rewrite a KernelBody",
            evidence=Evidence(
                "target-mismatch",
                f"{self.describe()} applied to a KernelBody",
            ),
        )

    def describe(self) -> str:
        return f"{self.name}()"

    def __or__(self, other: "Transform | Pipeline") -> "Pipeline":
        if isinstance(other, Pipeline):
            return Pipeline((self, *other.transforms))
        if isinstance(other, Transform):
            return Pipeline((self, other))
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


class Pipeline:
    """An ordered composition of transforms (applied left to right)."""

    def __init__(self, transforms=()) -> None:
        flat: list[Transform] = []
        for t in transforms:
            if isinstance(t, Pipeline):
                flat.extend(t.transforms)
            else:
                flat.append(t)
        self.transforms: tuple[Transform, ...] = tuple(flat)

    def __call__(self, obj):
        for t in self.transforms:
            obj = t(obj)
        return obj

    def __iter__(self):
        return iter(self.transforms)

    def __len__(self) -> int:
        return len(self.transforms)

    def __or__(self, other: "Transform | Pipeline") -> "Pipeline":
        if isinstance(other, Pipeline):
            return Pipeline((*self.transforms, *other.transforms))
        if isinstance(other, Transform):
            return Pipeline((*self.transforms, other))
        return NotImplemented

    def describe(self) -> str:
        if not self.transforms:
            return "identity"
        return " | ".join(t.describe() for t in self.transforms)

    def describe_list(self) -> tuple[str, ...]:
        return tuple(t.describe() for t in self.transforms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pipeline {self.describe()}>"
