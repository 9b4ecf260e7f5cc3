"""The narrow frontend/backend interface (paper SectionIV, Fig.5).

A micro-compiler is anything implementing :class:`Backend`: it receives a
:class:`~repro.core.stencil.StencilGroup` (whose bodies are already
lowered to canonical flat form) plus concrete shapes, and returns a
Python callable.  Everything platform-specific lives behind this
interface, so *"the compiler expert is only needed when additional
optimizations are requested or unsupported backends are needed"* — users
register their own backends with :func:`register_backend`.
"""

from __future__ import annotations

import time
from dataclasses import fields
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .. import telemetry
from ..analysis.structure import check_once
from ..core.stencil import StencilGroup
from ..core.validate import (
    ValidationError,
    check_arrays,
    check_dtype,
    iteration_shape,
)
from ..resilience.faults import InjectedFault, fault_point
from ..resilience.guards import Guards
from ..schedule import Schedule, ScheduleOptions, as_schedule

__all__ = [
    "Backend",
    "BoundKernel",
    "CompiledKernel",
    "Program",
    "Zero",
    "bind_kernel",
    "register_backend",
    "get_backend",
    "available_backends",
]


class CompiledKernel:
    """A compiled stencil group wrapped as a Python callable.

    Calling convention: keyword arguments name the grids (numpy arrays,
    mutated in place for outputs) and the scalar params.  Lazy shape
    specialization: when built without ``shapes``, the first call binds
    them and the specialized kernel is cached per shape tuple.

    The call seam has two steps.  :meth:`bind` checks the grids against
    the call contract and marshals them (and any params it is given),
    once; the :class:`BoundKernel` it returns takes only the remaining
    params and is what a loop should call.  ``kernel(**grids,
    **params)`` is ``kernel.bind(**grids, **params)()`` — the
    convenience form, which pays for the binding on every call.

    Runtime guards (:class:`~repro.resilience.guards.Guards`) attach at
    compile time (``compile(..., guards=...)``) or globally via the
    ``SNOWFLAKE_GUARDS`` environment variable; the specialize and invoke
    paths carry the ``backend.specialize`` / ``backend.invoke``
    fault-injection sites.
    """

    def __init__(
        self,
        group: StencilGroup,
        specialize: Callable[[Mapping[str, tuple[int, ...]], np.dtype], Callable],
        shapes: Mapping[str, Sequence[int]] | None,
        dtype,
        guards: Guards | None = None,
        backend_name: str | None = None,
    ) -> None:
        self.group = group
        self.name = group.name
        self.backend_name = backend_name
        self.guards = guards if guards is not None else Guards.from_env()
        # names come from a walk of every stencil's expression tree:
        # taken here, once, never per call
        self._grid_names = frozenset(group.grids())
        self._param_names = frozenset(group.params())
        self._outputs = tuple(sorted({s.output for s in group}))
        self._label = backend_name or "backend"
        self._span_name = f"kernel:{group.name}"
        self._specialize = specialize
        self._cache: dict[tuple, Callable] = {}
        self._pinned_dtype = check_dtype(dtype) if dtype is not None else None
        if shapes is not None:
            norm = {g: tuple(int(x) for x in s) for g, s in shapes.items()}
            dt = self._pinned_dtype or np.dtype(np.float64)
            self._get_impl(norm, dt)

    def _key(self, shapes: Mapping[str, tuple[int, ...]], dtype) -> tuple:
        return (tuple(sorted(shapes.items())), np.dtype(dtype).str)

    def _points(self, shapes: Mapping[str, tuple[int, ...]]) -> int:
        """Stencil applications of one call — the numerator of points/s."""
        total = 0
        for stencil in self.group:
            it_shape = iteration_shape(stencil, shapes)
            total += sum(
                r.npoints
                for r in stencil.domain.resolve(it_shape)
                if not r.is_empty()
            )
        return total

    def _get_impl(self, shapes, dtype) -> tuple:
        """``(impl, points, tile)``; ``tile`` is a time tile's :class:`_Tiled`."""
        key = self._key(shapes, dtype)
        entry = self._cache.get(key)
        if entry is None:
            check_once(self.group, shapes)
            if fault_point("backend.specialize"):
                raise InjectedFault(
                    f"injected fault: specialize "
                    f"{self._label} for {sorted(shapes)}"
                )
            t0 = time.perf_counter()
            with telemetry.tracing.span(
                f"specialize:{self.group.name}", cat="kernel",
                backend=self._label, shapes=len(shapes),
            ):
                impl = self._specialize(shapes, np.dtype(dtype))
            telemetry.observe(
                f"backend.{self._label}.specialize", time.perf_counter() - t0
            )
            telemetry.event(
                "backend.specialize", backend=self._label, group=self.group.name
            )
            points = self._points(shapes)
            tile = impl if isinstance(impl, _Tiled) else None
            if tile is not None:
                impl, points = tile.impl, tile.k * points
            entry = self._cache[key] = (impl, points, tile)
        return entry

    def _unexpected(self, name: str) -> TypeError:
        return TypeError(
            f"unexpected argument {name!r}; grids are "
            f"{sorted(self._grid_names)}, params are {sorted(self._param_names)}"
        )

    def bind(self, **kwargs) -> "BoundKernel":
        """Check the grids against the call contract and marshal them, once.

        ``kwargs`` are every grid plus any subset of the params: params
        given here are fixed for the bound kernel's lifetime (marshalled
        once, like the grids), the rest are what each call passes.

        Everything a call has to establish about its arrays is
        established here, the same way on every backend: the call
        contract of :func:`~repro.core.validate.check_arrays` (names,
        writeable ``np.ndarray`` outputs, one float dtype and the pinned
        one, C-contiguity, no output overlapping another grid), then the
        shape specialization (compiled now if new) and the backend's
        marshalling (``impl.bind``).  Array-like *inputs* are converted
        here.

        Ownership: the bound kernel holds the array objects it was given
        and runs on them.  In-place writes (``fill``, slice assignment)
        are seen; replacing an array with a new one needs a new ``bind``;
        ``setflags(write=False)`` after ``bind`` is not checked again.
        """
        grids, fixed = {}, {}
        for name, value in kwargs.items():
            if name in self._grid_names:
                grids[name] = value
            elif name in self._param_names:
                fixed[name] = float(value)
            else:
                raise self._unexpected(name)
        arrays = check_arrays(
            self._grid_names, self._outputs, grids, self._pinned_dtype
        )
        dt = next(iter(arrays.values())).dtype
        shapes = {g: a.shape for g, a in arrays.items()}
        impl, points, tile = self._get_impl(shapes, dt)
        bind = getattr(impl, "bind", None)
        if bind is not None:
            run = bind(arrays, fixed)
        else:
            def run(params):
                impl(arrays, {**fixed, **params})
        args = (self, arrays, run, points,
                self._param_names - fixed.keys(), self._outputs)
        return BoundKernel(*args) if tile is None else _BoundTile(tile, *args)

    def __call__(self, **kwargs) -> None:
        self.bind(**kwargs)()

    @property
    def specializations(self) -> int:
        """Number of shape/dtype specializations compiled so far."""
        return len(self._cache)


class BoundKernel:
    """A :class:`CompiledKernel` bound to its arrays: ``bound(**params)``.

    Made by :meth:`CompiledKernel.bind`, which has already checked and
    marshalled the grids and any params fixed there, so a call is: check
    of the remaining params, the
    ``backend.invoke`` fault site, the backend's bound runner, one
    telemetry count.  Guards and the ``kernel:<group>`` span run only
    when switched on.  ``SNOWFLAKE_TELEMETRY`` and ``SNOWFLAKE_FAULTS``
    are still followed live, each read once per call.

    Safe to share between threads: per-call state (the params buffer of
    the C family) is made per call.

    A bound C-family *program* (``CompiledProgram.bind``) is a
    ``BoundKernel`` too: ``kernel`` is the program, ``arrays`` and
    ``outputs`` the union over its steps, so a whole step sequence
    passes this seam once.
    """

    __slots__ = ("kernel", "arrays", "_run", "_points", "_free", "_outputs")

    def __init__(
        self,
        kernel: CompiledKernel,
        arrays: Mapping[str, np.ndarray],
        run: Callable[[Mapping[str, float]], None],
        points: int,
        free: frozenset[str],
        outputs: Sequence[str],
    ) -> None:
        self.kernel = kernel
        self.arrays = arrays
        self._run = run
        self._points = points
        self._free = free  # the params not fixed at bind
        self._outputs = outputs  # the grids the guards scan

    def __call__(self, **params) -> None:
        k = self.kernel
        if params.keys() != self._free:
            for name in params.keys() - self._free:
                if name in k._param_names:
                    raise TypeError(f"param {name!r} was fixed at bind")
                raise k._unexpected(name)
            raise ValidationError(
                "missing params at call time: "
                f"{sorted(self._free - params.keys())}"
            )
        if params:
            params = {p: float(v) for p, v in params.items()}
        if fault_point("backend.invoke"):
            raise InjectedFault(
                f"injected fault: invoke {k._label} "
                f"kernel for {k.name!r}"
            )
        mode = telemetry.mode()
        tracing = telemetry.tracing
        if (
            tracing.active(mode)
            or k.guards.nonfinite != "off"
            or k.guards.invariants != "off"
        ):
            before = k.guards.snapshot_invariants(self.arrays)
            with tracing.span(
                k._span_name, cat="kernel",
                backend=k._label, points=self._points,
            ):
                self._timed_run(params, mode)
            k.guards.check_invariants(before, self.arrays)
            k.guards.scan_nonfinite(self.arrays, self._outputs)
        else:
            self._timed_run(params, mode)

    def _timed_run(self, params, mode: str) -> None:
        if mode == "off":
            self._run(params)
            return
        t0 = time.perf_counter()
        self._run(params)
        telemetry.kernel_call(
            self.kernel._label, time.perf_counter() - t0, self._points, mode
        )


class _Tiled(NamedTuple):
    """A time tile's specialization: ``impl`` runs one of its ``k > 1``
    applications, or all ``k`` when ``lagged``."""

    impl: Callable
    k: int
    lagged: bool


class _BoundTile(BoundKernel):
    """A bound time tile (:class:`_Tiled`): the bound ``run`` ``k``
    times, once when lagged, under one ``time_tile`` span while tracing.
    ``_run.ffi`` and ``_run.reps`` let a program step repeat the FFI
    call itself."""

    __slots__ = ("_tile_args",)

    def __init__(self, tile: _Tiled, kernel, arrays, run, *rest) -> None:
        reps = 1 if tile.lagged else tile.k

        def run_tile(params: Mapping[str, float]) -> None:
            for _ in range(reps):
                run(params)

        run_tile.ffi, run_tile.reps = getattr(run, "ffi", None), reps
        super().__init__(kernel, arrays, run_tile, *rest)
        self._tile_args = {"backend": kernel._label, "k": tile.k, "lagged": tile.lagged}

    def _timed_run(self, params, mode: str) -> None:
        if not telemetry.tracing.active(mode):
            return BoundKernel._timed_run(self, params, mode)
        with telemetry.tracing.span("time_tile", cat="schedule", **self._tile_args):
            BoundKernel._timed_run(self, params, mode)


def in_order(backend: str, runs: Sequence[tuple[str, Callable]]) -> Callable:
    """An interpreter's ``impl``: each ``(name, run)`` called in order,
    under a ``stencil:<name>`` span while tracing."""

    def impl(arrays, params):
        if not telemetry.tracing.active():
            for _, run in runs:
                run(arrays, params)
            return
        for name, run in runs:
            with telemetry.tracing.span(
                f"stencil:{name}", cat="kernel", backend=backend
            ):
                run(arrays, params)

    return impl


def bind_kernel(kernel: Callable, args: Mapping[str, object]) -> Callable:
    """``kernel`` bound to ``args`` (the grids and any fixed params), as
    a callable taking the remaining params.

    ``kernel.bind(**args)`` where the kernel has a bind step; a backend
    whose ``compile`` returns a bare function gets ``args`` passed on
    every call instead.
    """
    bind = getattr(kernel, "bind", None)
    if bind is not None:
        return bind(**args)
    return lambda **params: kernel(**args, **params)


class Zero:
    """A step that zero-fills the grid ``array`` (called ``name``).

    A step list is ``(callable, reps)`` pairs, run as ``for fn, reps in
    steps: for _ in range(reps): fn()``.  When every callable is a
    ``Zero`` or a bound kernel of one C-family program, the list can
    instead be bound as that program (``CompiledProgram.bind``), where a
    ``Zero`` is a ``memset``.  ``array`` meets the call contract of an
    output grid (:func:`~repro.core.validate.check_arrays`), checked
    here, so both ways of running the list accept the same arrays.
    """

    __slots__ = ("name", "array")

    def __init__(self, name: str, array: np.ndarray) -> None:
        self.name = name
        self.array = check_arrays(
            frozenset({name}), (name,), {name: array}
        )[name]

    def __call__(self) -> None:
        self.array.fill(0)


#: ``schedule`` plus every :class:`ScheduleOptions` field but ``policy``,
#: whose loose spelling is ``schedule="<policy>"``
_SCHEDULE_NAMES = frozenset(
    {"schedule"} | ({f.name for f in fields(ScheduleOptions)} - {"policy"})
)


class Backend:
    """A Snowflake micro-compiler."""

    #: registry name, e.g. ``"openmp"``
    name: str = "abstract"

    #: does this micro-compiler need a working system toolchain?  The
    #: fallback policy and ``python -m repro doctor`` use this to pick
    #: degradation targets and to thread compile timeouts.
    requires_toolchain: bool = False

    #: the scheduling defaults of this backend that differ from
    #: ``ScheduleOptions()``; loose keyword options fill from it, an
    #: explicit ``ScheduleOptions`` is taken verbatim.  ``None`` means a
    #: user-registered backend that manages its own options.
    _KNOBS: Mapping[str, object] | None = None

    def pop_schedule(
        self, group: StencilGroup, options: dict
    ) -> Callable[[Mapping[str, Sequence[int]]], Schedule]:
        """Pop the scheduling options out of ``options``: the one resolver.

        Every built-in backend takes the same names — ``schedule`` (a
        prebuilt :class:`~repro.schedule.Schedule`, a
        :class:`~repro.schedule.ScheduleOptions`, or a policy string)
        and each other ``ScheduleOptions`` field as a loose
        keyword — so ``tile=8`` and ``schedule=ScheduleOptions(tile=8)``
        get the same verdict everywhere.  Whatever else is in
        ``options`` when this is called is unknown and raises the
        ``TypeError`` that names the valid options.

        Returns ``schedule_at(shapes)``, because a kernel compiled
        without ``shapes=`` learns them at its first call.  A tuned
        schedule is passed like any other: ``schedule=result.best`` of
        :func:`repro.tuning.search_schedules`.
        """
        bad = sorted(set(options) - _SCHEDULE_NAMES)
        if bad:
            raise TypeError(
                f"unknown options for {self.name!r}: {bad}; "
                f"valid scheduling options are {sorted(_SCHEDULE_NAMES)}"
            )
        spec = options.pop("schedule", "greedy")
        loose = dict(options)
        options.clear()
        if isinstance(spec, (Schedule, ScheduleOptions)):
            if loose:
                raise TypeError(
                    f"cannot combine a prebuilt schedule with loose "
                    f"scheduling options {sorted(loose)}"
                )
        elif isinstance(spec, str):
            spec = ScheduleOptions(
                policy=spec, **{**(self._KNOBS or {}), **loose},
            )
        else:
            raise TypeError(
                f"schedule must be a Schedule, ScheduleOptions or policy "
                f"string, got {type(spec).__name__}"
            )
        return lambda shapes: as_schedule(spec, group, shapes)

    def lags_applications(self, sched: Schedule) -> bool:
        """Whether this backend runs ``sched``'s time tile as its
        application lag says (:attr:`~repro.schedule.ir.Schedule.app_lag`:
        the ``k`` applications in one loop over axis-0 planes, the grids
        streamed once) rather than as ``k`` whole sweeps.  Only the
        ``c`` walker does; the cost model (:mod:`repro.tuning.search`)
        and :mod:`repro.explain` charge traffic by this answer."""
        return False

    def specializer(
        self, group: StencilGroup, **options
    ) -> Callable[[Mapping[str, tuple[int, ...]], np.dtype], Callable]:
        """Return a function that shape-specializes the group.

        The returned function is invoked once per distinct (shapes,
        dtype) combination and must return
        ``impl(arrays: dict[str, ndarray], params: dict[str, float])``.
        The arrays ``impl`` gets already meet the call contract
        (:func:`~repro.core.validate.check_arrays`) and have the shapes
        and dtype it was specialized for: a backend checks nothing
        about them and states no relaxation of the contract.  ``impl``
        may carry an attribute ``impl.bind(arrays, fixed)`` returning
        ``run(params)``: its marshalling of the arrays and of the params
        ``fixed`` at bind, done once for a :class:`BoundKernel`; ``run``
        gets the other params.  Without one, a bound call is
        ``impl(arrays, {**fixed, **params})``.

        The built-in backends share this one: :meth:`lower` the schedule
        of each shape, and run a time tile's ``impl`` ``k`` times in the
        bound call unless it runs all ``k`` (:meth:`lags_applications`).
        A user backend overrides it instead, with its own options.
        """
        schedule_at = self.pop_schedule(group, options)

        def specialize(shapes, dtype) -> Callable:
            sched = schedule_at(shapes)
            return self._tiled(self.lower(group, shapes, dtype, sched), sched)

        return specialize

    def lower(self, group, shapes, dtype, sched: Schedule) -> Callable:
        """``impl`` running one application of ``group`` as ``sched``
        orders it, or all ``k`` of a tile :meth:`lags_applications`."""
        raise NotImplementedError(f"{self.name!r} defines no lower")

    def _tiled(self, impl: Callable, sched: Schedule) -> Callable:
        """``impl`` as :meth:`specializer` returns it for ``sched``."""
        k = sched.options.time_tile
        return impl if k == 1 else _Tiled(impl, k, self.lags_applications(sched))

    def artifact_info(
        self,
        group: StencilGroup,
        shapes: Mapping[str, Sequence[int]],
        dtype=None,
        **options,
    ) -> dict | None:
        """Provenance of the artifact :meth:`compile` would produce.

        JIT backends return ``{"backend", "cache_key", "source_path",
        "artifact_path", "cached", "source_bytes"}`` (in-process program
        generators add ``"in_process": True`` and omit paths); pure
        interpreter backends return ``None``.  Must not compile anything
        — provenance queries (:mod:`repro.explain`) stay cheap.
        """
        return None

    def compile(
        self,
        group: StencilGroup,
        shapes: Mapping[str, Sequence[int]] | None = None,
        dtype=None,
        guards: Guards | None = None,
        **options,
    ) -> CompiledKernel:
        return CompiledKernel(
            group,
            self.specializer(group, **options),
            shapes,
            dtype,
            guards=guards,
            backend_name=self.name,
        )

    def compile_program(
        self, units: Sequence[tuple[StencilGroup, Mapping]], dtype=None,
        guards: Guards | None = None, name: str = "program", **options,
    ) -> "Program":
        """The ``(group, shapes)`` units as one :class:`Program` of one
        :meth:`compile` each; the C family overrides this with one
        shared object, where a bound step list is one call."""
        return Program(name, [
            self.compile(group, shapes=shapes, dtype=dtype, guards=guards,
                         **options)
            for group, shapes in units
        ])


class Program:
    """What :meth:`Backend.compile_program` returns off the C family:
    ``kernels[i]`` is unit ``i``'s kernel, and :meth:`bind` makes a
    ``(callable, reps)`` step list one callable that runs the steps one
    call at a time."""

    def __init__(self, name: str, kernels: Sequence[Callable]) -> None:
        self.name, self.kernels = name, tuple(kernels)

    def bind(self, steps: Sequence[tuple[Callable, int]]) -> Callable:
        def run() -> None:
            for fn, reps in steps:
                for _ in range(reps):
                    fn()

        return run


_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend, *aliases: str) -> None:
    """Add a micro-compiler to the registry (user-extensible, Fig.5)."""
    for key in (backend.name, *aliases):
        if not key:
            raise ValueError("backend name must be non-empty")
        _REGISTRY[key] = backend


def get_backend(name: str) -> Backend:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_backends() -> list[str]:
    """The canonical name of each registered backend, once.

    Aliases are not listed; :func:`get_backend` still resolves them.
    """
    return sorted({backend.name for backend in _REGISTRY.values()})
