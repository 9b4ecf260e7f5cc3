"""C-family CPU micro-compilers: flat form -> C99 -> gcc -> ctypes callable.

One step walker, :meth:`CBackend.generate`, serves both CPU targets;
everything that tells them apart is data, a :class:`Target` row.
:data:`C` is sequential C99.  :data:`OPENMP` is C + OpenMP, following
the paper's design (SectionIV-A) literally:

* each step becomes an **OpenMP task**, with larger nests split into
  sub-tasks by tiling the outermost free loop (``tile`` defaults to 8
  planes, so it can be tuned by :mod:`repro.tuning.search`);
* the dependence analysis groups stencils into **phases** using the
  greedy policy — a barrier (``taskwait``) ends each phase, so one is
  inserted only when an upcoming stencil consumes what an in-flight one
  produced.  Fused chains are phase-local by construction (see
  :func:`repro.schedule.build_schedule`), so a chain never straddles
  a barrier.

The generated function has the narrow FFI signature

    void sf_kernel(TYPE** grids, const double* params, const int64_t* dims);

with grids and params passed in sorted-name order and ``dims`` holding
every grid's extents in the same order, then, for a time tile the body
lags (any other runs one application ``k`` times in the bound call),
the depth ``k`` (read into ``sf_k``).  The source is *size-generic*:
loop bounds, strides and snapshot sizes are read from ``dims``, so one
shared object serves every shape whose schedule renders the same text
(a multigrid operator compiles once for all its levels), and the
source-hash cache of :mod:`repro.backends.jit` does the sharing.
Structure — execution order, fusion chains, snapshot and multicolor
decisions — comes from a
:class:`~repro.schedule.ir.Schedule` built by the shared lowering stage;
this module only emits.  An in-place stencil with a proven loop-carried
hazard reads its output grid through a snapshot (gather semantics),
matching the reference interpreter exactly.

:meth:`CBackend.compile_program` compiles several groups into one
shared object: each distinct kernel body once, as a translation unit of
its own, plus a unit for ``sf_program(steps, nsteps, G, P, D)``, which
walks a step table, so a whole solver cycle is one FFI call
(:class:`CompiledProgram`).  Every innermost loop of a step the
analysis proved parallel carries ``#pragma GCC ivdep``.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .. import telemetry
from ..analysis.structure import check_once, verdict
from ..core.stencil import StencilGroup
from ..core.validate import check_dtype
from ..resilience.guards import Guards
from ..schedule import Schedule, as_schedule
from ..schedule.lower import lag_fact_args, plane_lag_facts
from .base import (
    Backend,
    BoundKernel,
    CompiledKernel,
    Zero,
    register_backend,
)
from .codegen_c import (
    C_PREAMBLE,
    Bound,
    CodegenContext,
    StencilLoops,
    ctype_for,
    render_decisions,
)
from .jit import cache_dir, compile_and_load, source_tag

__all__ = [
    "Target",
    "C",
    "OPENMP",
    "CBackend",
    "CompiledProgram",
    "make_ffi_wrapper",
    "program_source",
]


@dataclass(frozen=True, eq=False)
class Target:
    """Everything target-specific about one C-family CPU language: the
    decoration :meth:`CBackend.generate` puts around the shared walk."""

    name: str  #: backend registry name
    aliases: tuple[str, ...]
    knobs: Mapping[str, object]  #: scheduling defaults (``Backend._KNOBS``)
    openmp: bool  #: compile and link with ``-fopenmp``
    includes: tuple[str, ...] = ()  #: ``#include`` lines after the preamble
    region: tuple[str, ...] = ()  #: lines opening a region around the steps
    task_pragma: str | None = None  #: on each (tiled) nest of a step
    phase_end: tuple[str, ...] = ()  #: the barrier lines closing a phase
    #: run a plane-lagged schedule as one loop over axis-0 planes (else
    #: each step stays a whole sweep, which is legal for any schedule)
    plane_loop: bool = True


C = Target(name="c", aliases=("c99",), knobs={"fuse": True}, openmp=False)

OPENMP = Target(
    name="openmp",
    aliases=("omp",),
    knobs={"fuse": True, "tile": 8},
    openmp=True,
    includes=("#include <omp.h>",),
    region=("#pragma omp parallel", "#pragma omp single"),
    task_pragma="#pragma omp task",
    phase_end=("#pragma omp taskwait",),
    # a task and a barrier per step and plane cost more than the plane
    # reuse saves: the 128^3 smoother's bound call took 4x as long
    plane_loop=False,
)


def make_ffi_wrapper(
    lib: ctypes.CDLL,
    func_name: str,
    ctx: CodegenContext,
) -> Callable:
    """Wrap a compiled kernel in the Python calling convention.

    Returns ``impl(arrays, params)`` carrying ``impl.bind(arrays,
    fixed)``: ``bind`` builds the pointer table once (the ``dims`` table
    is built once per specialization, here), and the ``run(params)`` it
    returns is one FFI call.  Params in ``fixed`` are marshalled at
    bind; ``run`` takes the rest.  ``impl`` itself is
    ``bind(arrays)(params)``.  The arrays already meet the call
    contract, with the shapes and dtype of ``ctx``: this only marshals.
    """
    fn = getattr(lib, func_name)
    # No argtypes: every argument is a ctypes array built below, which
    # ctypes passes by reference as is; declared POINTER argtypes would
    # re-check each one on every call (~0.2 us an argument).
    fn.restype = None
    grid_order = list(ctx.grid_order)
    param_order = list(ctx.param_order)
    ptrs_t = ctypes.c_void_p * len(grid_order)
    pvals_t = ctypes.c_double * max(len(param_order), 1)
    table = ctx.dims_table()
    dims = (ctypes.c_int64 * len(table))(*table)

    def bind(
        arrays: Mapping[str, np.ndarray],
        fixed: Mapping[str, float] | None = None,
    ) -> Callable:
        fixed = fixed or {}
        mats = [arrays[g] for g in grid_order]
        ptrs = ptrs_t(*[a.ctypes.data for a in mats])

        if fixed.keys() >= set(param_order):
            # every param known now: one buffer, only ever read
            pvals = pvals_t(*[float(fixed[p]) for p in param_order])

            def run(params: Mapping[str, float]) -> None:
                fn(ptrs, pvals, dims)

            # what a program step needs to make this same call itself
            run.ffi = (fn, ptrs, pvals, dims)
        else:
            def run(params: Mapping[str, float]) -> None:
                # a fresh params buffer per call keeps a bound kernel
                # re-entrant
                fn(ptrs, pvals_t(*[
                    float(params[p] if p in params else fixed[p])
                    for p in param_order
                ]), dims)

        run.arrays = mats  # the buffers behind `ptrs` live as long as `run`
        return run

    def impl(arrays: Mapping[str, np.ndarray], params: Mapping[str, float]):
        bind(arrays)(params)

    impl.bind = bind
    return impl


#: ints per row of a program's step table: op, grid, param and dims
#: offsets, repetitions
_ROW = 5


def program_source(bodies: Sequence[str], ctype: str) -> tuple[str, ...]:
    """The translation units of one program: each kernel source
    exporting ``sf_op0``, ``sf_op1``, … as rendered, one unit apiece,
    then the walker unit — the bodies' ``#include`` lines (once each),
    a declaration of every ``sf_op<j>``, and ``sf_program(steps, nsteps,
    G, P, D)``.

    ``steps`` holds ``nsteps`` rows of ``(op, g, p, d, reps)``: run
    forwarder ``op`` on ``(G + g, P + p, D + d)`` ``reps`` times, or
    for ``op == -1`` zero ``D[d]`` bytes at ``G[g]``.  The text depends
    only on the bodies, never on the step list: a hierarchy of any
    depth, and any cycle over it, is data for the same artifact.
    """
    includes = dict.fromkeys(
        line for src in bodies for line in src.splitlines()
        if line.startswith("#include")
    )
    sig = f"({ctype}**, const double*, const int64_t*)"
    ops = ", ".join(f"sf_op{j}" for j in range(len(bodies)))
    walker = "\n".join([
        *includes,
        *(f"void sf_op{j}{sig};" for j in range(len(bodies))),
        f"typedef void (*sf_op_fn){sig};",
        f"static const sf_op_fn sf_ops[] = {{{ops}}};",
        f"void sf_program(const int64_t* steps, int64_t nsteps, {ctype}** G, "
        "const double* P, const int64_t* D)",
        "{",
        "  for (int64_t s = 0; s < nsteps; ++s) {",
        f"    const int64_t* st = steps + {_ROW} * s;",
        "    for (int64_t r = 0; r < st[4]; ++r) {",
        "      if (st[0] < 0)",
        "        memset(G[st[1]], 0, (size_t)D[st[3]]);",
        "      else",
        "        sf_ops[st[0]](G + st[1], P + st[2], D + st[3]);",
        "    }",
        "  }",
        "}",
    ]) + "\n"
    return (*bodies, walker)


def _address(fn) -> int:
    return ctypes.cast(fn, ctypes.c_void_p).value


class CompiledProgram:
    """What :meth:`CBackend.compile_program` returns.

    ``kernels[i]`` is unit ``i``'s :class:`CompiledKernel`, served by
    its forwarder in the program's shared object (a shape other than the
    unit's compiles on its own, as usual).  :meth:`bind` turns a step
    list over bound kernels of these into one :class:`BoundKernel`.
    ``units`` are the translation units of :func:`program_source`,
    ``source`` their text NUL-joined, and ``cache_key`` the JIT tag,
    which hashes exactly that text.
    """

    def __init__(
        self, name: str, lib: ctypes.CDLL, n_ops: int,
        kernels: Sequence[CompiledKernel], backend_name: str,
        guards: Guards, units: Sequence[str], cache_key: str,
    ) -> None:
        self.name = name
        self.kernels = tuple(kernels)
        self.guards = guards
        self.units = tuple(units)
        self.source = "\0".join(self.units)
        self.cache_key = cache_key
        # what BoundKernel.__call__ reads from its kernel
        self._label = backend_name
        self._span_name = f"kernel:{name}"
        self._param_names: frozenset[str] = frozenset()
        self._fn = lib.sf_program
        self._fn.restype = None
        self._ops = {
            _address(getattr(lib, f"sf_op{j}")): j for j in range(n_ops)
        }

    def _unexpected(self, name: str) -> TypeError:
        return TypeError(
            f"unexpected argument {name!r}; a bound program takes no params"
        )

    def bind(self, steps: Sequence[tuple[Callable, int]]) -> BoundKernel:
        """The ``(callable, reps)`` step list as one bound call.

        Each callable is a :class:`~repro.backends.base.Zero` or a
        :class:`BoundKernel` of one of :attr:`kernels` with every param
        fixed at its bind; anything else raises ``TypeError``.  The steps'
        own checks and marshalling are reused: their pointer, param and
        dims tables are copied into the program's, once per distinct
        bound kernel.  The result's ``arrays`` are every distinct array
        of the steps, named ``<grid>#<n>``, and its outputs every one a
        step writes, so the guards scan them once per call; its point
        count is the steps' sum.  A step of a whole-sweep time tile
        runs its one-application forwarder ``reps * k`` times.
        """
        table: list[int] = []
        G: list[int] = []
        P: list[float] = []
        D: list[int] = []
        placed: dict[int, tuple[int, int, int, int]] = {}
        names: dict[int, str] = {}
        arrays: dict[str, np.ndarray] = {}
        outputs: dict[str, None] = {}
        points = 0

        def name(grid: str, a: np.ndarray) -> str:
            key = names.get(id(a))
            if key is None:
                key = names[id(a)] = f"{grid}#{len(names)}"
                arrays[key] = a
            return key

        for fn, reps in steps:
            if isinstance(fn, Zero):
                a = fn.array
                table += [-1, len(G), 0, len(D), reps]
                G.append(a.ctypes.data)
                D.append(a.nbytes)
                outputs[name(fn.name, a)] = None
                continue
            ffi = getattr(getattr(fn, "_run", None), "ffi", None)
            op = None if ffi is None else self._ops.get(_address(ffi[0]))
            if op is None:
                raise TypeError(
                    f"program step {fn!r} is not a kernel of this program "
                    "bound with every param fixed"
                )
            at = placed.get(id(fn))
            if at is None:
                _, ptrs, pvals, dims = ffi
                at = placed[id(fn)] = (op, len(G), len(P), len(D))
                G += ptrs
                P += pvals
                D += dims
            table += [*at, reps * getattr(fn._run, "reps", 1)]
            points += fn._points * reps
            for g, a in fn.arrays.items():
                key = name(g, a)
                if g in fn._outputs:
                    outputs[key] = None

        c_steps = (ctypes.c_int64 * len(table))(*table)
        nsteps = ctypes.c_int64(len(table) // _ROW)
        c_grids = (ctypes.c_void_p * max(len(G), 1))(*G)
        c_params = (ctypes.c_double * max(len(P), 1))(*P)
        c_dims = (ctypes.c_int64 * max(len(D), 1))(*D)
        call = self._fn

        def run(params: Mapping[str, float]) -> None:
            call(c_steps, nsteps, c_grids, c_params, c_dims)

        return BoundKernel(
            self, arrays, run, points, frozenset(), tuple(outputs)
        )


class CBackend(Backend):
    """One C-family CPU micro-compiler, instantiated per :class:`Target`:
    ``c`` (sequential C99) and ``openmp`` (task-parallel C), both with
    the SectionV-A flag set.

    Scheduling options are the :class:`repro.schedule.ScheduleOptions`
    fields (``block`` has no CPU lowering and is ignored); ``fuse``
    defaults to on, and on ``openmp``, ``tile`` is the task granularity
    on the outermost loop and defaults to 8 planes.  The compiler
    subprocess runs under ``SNOWFLAKE_CC_TIMEOUT``.
    """

    requires_toolchain = True

    def __init__(self, target: Target) -> None:
        self.target = target
        self.name = target.name
        self._KNOBS = target.knobs

    def lower(self, group, shapes, dtype, sched) -> Callable:
        src = self.generate(group, shapes, dtype, schedule=sched)
        telemetry.count(f"codegen.{self.name}.sources")
        telemetry.count(f"codegen.{self.name}.bytes", len(src))
        lib = compile_and_load(src, openmp=self.target.openmp)
        return make_ffi_wrapper(lib, "sf_kernel", self._context(group, shapes, dtype, sched))

    def lags_applications(self, sched: Schedule) -> bool:
        return self.target.plane_loop and sched.app_lag is not None

    def _context(self, group, shapes, dtype, sched) -> CodegenContext:
        """The body runs ``sched``'s ``k`` applications (``sf_k``, from
        ``dims``) only when it lags them; else one."""
        k = sched.options.time_tile if self.lags_applications(sched) else 1
        return CodegenContext(group, shapes, ctype_for(dtype), time_tile=k)

    def generate(
        self, group, shapes, dtype, *, schedule=None, func_name="sf_kernel"
    ) -> str:
        """Render the whole group as one translation unit of this target.

        ``schedule`` is a prebuilt :class:`~repro.schedule.ir.Schedule`, a
        :class:`ScheduleOptions` to lower one from, or ``None`` for
        ``ScheduleOptions()`` (the target's ``knobs`` are defaults of
        :meth:`compile`, not of the emitter).  Steps are emitted in
        schedule order: fused chains share one loop nest, checkerboard
        unions become one parity-corrected sweep, a plane-lagged
        schedule runs every step inside one loop over axis-0 planes
        ``sf_t`` (step ``q`` on plane ``sf_t - lag``, the steps'
        preludes hoisted before it) when the target's ``plane_loop`` is
        on.  A time tile whose applications the walker lags
        (:meth:`lags_applications`) runs all ``sf_k`` of them in that
        plane loop, application ``sf_a`` on plane ``sf_t - lag -
        sf_a*app_lag`` (the depth is read from ``dims``, so one text
        serves every ``k > 1``); any other time tile renders as one
        application, the ``time_tile=1`` text.
        Snapshots are allocated once at the top, filled at the start of
        their step's phase (a phase's steps are mutually independent)
        and freed at the end.
        """
        t = self.target
        telemetry.count(f"codegen.{self.name}.renders")
        norm = {g: tuple(int(x) for x in shapes[g]) for g in shapes}
        sched = as_schedule(schedule, group, norm)
        lagged = t.plane_loop and sched.lagged
        app = sched.app_lag if self.lags_applications(sched) else None
        ctx = self._context(group, norm, dtype, sched)

        def nbytes(grid: str) -> str:
            return f"{ctx.grid_size(grid)} * sizeof({ctx.ctype})"

        snaps = {s.head: f"snap_{s.head}" for s in sched.steps() if s.snapshot}
        body: list[str] = []
        prelude: list[str] = []  # a lagged schedule's, hoisted out of sf_t
        ends: dict[str, Bound] = {}  # per axis-0 extent: it + the max lag
        for phase in sched.phases:
            if t.phase_end:  # phases are marked where a barrier ends them
                body.append(f"/* phase {phase.index} */")
            for step in phase.steps:
                if step.head in snaps:
                    g = group[step.head].output
                    body.append(
                        f"memcpy({snaps[step.head]}, {ctx.grid_cname[g]}, "
                        f"{nbytes(g)});"
                    )
            for step in phase.steps:
                names = ", ".join(group[i].name for i in step.stencils)
                if lagged:
                    names += f", lag {step.lag}"
                body.append(f"/* stencil(s) {list(step.stencils)}: {names} */")
                loops = StencilLoops(
                    ctx, group[step.head], tile=sched.options.tile,
                    parity=step.sweep, snapshot_name=snaps.get(step.head),
                    fused_with=[group[i] for i in step.stencils[1:]],
                    unroll=sched.options.unroll, parallel=step.parallel,
                    plane=step.lag if lagged else None, app_lag=app,
                )
                if not lagged:
                    body.extend(loops.emit(t.task_pragma))
                    continue
                prelude.extend(loops.prelude)
                body.extend(loops.nests(t.task_pragma))
                ext = loops.extents[0]
                ends[str(ext)] = max(
                    ends.get(str(ext), ext), ext.shift(step.lag),
                    key=lambda b: b.off,
                )
            body.extend(t.phase_end)
        if ends:
            # one pass: plane sf_t runs each step on its plane sf_t - lag
            # (and application sf_a app_lag planes behind sf_a - 1)
            end, *more = map(str, ends.values())
            if more or app:
                prelude.append(f"int64_t sf_tn = {end};")
                prelude += [f"if ({e} > sf_tn) sf_tn = {e};" for e in more]
                if app:
                    prelude.append(f"sf_tn += (sf_k - 1) * {app};")
                end = "sf_tn"
            if app is not None:
                prelude.insert(0, "/* fused time tile: sf_k applications, "
                               f"each {app} plane(s) behind the last */")
                body = [
                    "for (int64_t sf_a = 0; sf_a < sf_k; ++sf_a) {",
                    *("  " + l for l in body),
                    "}",
                ]
            body = [
                *prelude,
                f"for (int64_t sf_t = 0; sf_t < {end}; ++sf_t) {{",
                *("  " + l for l in body),
                "}",
            ]

        lines = [C_PREAMBLE, *t.includes, *ctx.open_function(func_name)]
        for i, snap in snaps.items():
            lines.append(
                f"  {ctx.ctype}* {snap} = ({ctx.ctype}*)malloc("
                f"{nbytes(group[i].output)});"
            )
        pad = "  "
        if t.region:
            lines.extend(pad + l for l in (*t.region, "{"))
            pad += "  "
        lines.extend(pad + l for l in body)
        if t.region:
            lines.append("  }")
        lines.extend(f"  free({snap});" for snap in snaps.values())
        lines.append("}")
        lines.extend(ctx.entry_point(func_name))
        return "\n".join(lines) + "\n"

    def compile_program(
        self,
        units: Sequence[tuple[StencilGroup, Mapping[str, Sequence[int]]]],
        dtype=None,
        guards: Guards | None = None,
        name: str = "program",
        **options,
    ) -> "CompiledProgram":
        """Compile the ``(group, shapes)`` units into one shared object.

        Each distinct kernel body — units whose per-kernel source text is
        identical, such as one operator on every level of a hierarchy —
        is emitted once, behind its exported forwarder ``sf_op<j>``, as
        a translation unit of its own; :func:`program_source` adds the
        unit of the step-table walker ``sf_program``.  Units at or above
        their group's structure threshold share a key
        (:meth:`render_key`), so they are rendered once per key and
        checked once per group; the rest are rendered one by one and
        share a body when the text matches.  ``options`` are the
        scheduling options of :meth:`compile`, applied to every unit.
        One shared object and one JIT tag, however many units and
        levels: the translation units compile concurrently and link once
        (:func:`~repro.backends.jit.compile_and_load`).
        """
        dt = check_dtype(np.float64 if dtype is None else dtype)
        ops: dict[str, int] = {}  # text up to its name -> forwarder index
        keyed_ops: dict[tuple, int] = {}  # structure key -> forwarder index
        bodies: list[str] = []
        plan = []
        for group, shapes in units:
            shapes = {g: tuple(int(x) for x in s) for g, s in shapes.items()}
            check_once(group, shapes)
            sched = self.pop_schedule(group, dict(options))(shapes)
            key = self.render_key(group, shapes, sched)
            op = keyed_ops.get(key)
            if op is None:
                # rendered once, under the name it gets if it is new
                fresh = f"sf_op{len(bodies)}"
                src = self.generate(
                    group, shapes, dt, schedule=sched, func_name=fresh
                )
                op = ops.setdefault(src.replace(fresh, "sf_op"), len(bodies))
                if op == len(bodies):
                    bodies.append(src)
                if key is not None:
                    keyed_ops[key] = op
            plan.append((group, shapes, op, sched))
        sources = program_source(bodies, ctype_for(dt))
        telemetry.count(f"codegen.{self.name}.sources")
        telemetry.count(
            f"codegen.{self.name}.bytes", sum(len(u) for u in sources)
        )
        with telemetry.tracing.span(
            f"compile_program:{name}", cat="kernel", backend=self.name,
            units=len(plan), bodies=len(bodies),
        ):
            lib = compile_and_load(sources, openmp=self.target.openmp)
        guards = guards if guards is not None else Guards.from_env()
        kernels = []
        for group, shapes, op, sched in plan:

            def specialize(
                s, d, group=group, shapes=shapes, op=op, sched=sched
            ) -> Callable:
                if s == shapes and d == dt:
                    ctx = self._context(group, shapes, dt, sched)
                    return self._tiled(
                        make_ffi_wrapper(lib, f"sf_op{op}", ctx), sched
                    )
                # another shape is not in the program: its own artifact
                return self.specializer(group, **options)(s, d)

            kernels.append(CompiledKernel(
                group, specialize, shapes, dt, guards=guards,
                backend_name=self.name,
            ))
        return CompiledProgram(
            name, lib, len(bodies), kernels, self.name, guards, sources,
            source_tag(sources, openmp=self.target.openmp),
        )

    def render_key(self, group, shapes, sched) -> tuple | None:
        """The key under which ``group`` scheduled as ``sched`` renders
        the same text at every shape of its family from a threshold on,
        or ``None`` below it: the structure verdict with this target's
        emitter decisions (:func:`render_decisions`) and, when the walker
        runs the schedule's plane lags, the lags' own: the one
        :func:`~repro.schedule.lower.plane_lag_facts` set of
        :func:`~repro.schedule.lower.lag_fact_args`, whose arguments
        also say whether the applications are lagged (that depends on
        the grids' bytes, not the structure)."""
        lagged = self.target.plane_loop and sched.lagged
        keyed = verdict(group, shapes, (
            render_decisions, sched.options.tile,
            self.target.task_pragma is not None, lagged,
        ))
        if keyed is None:
            return None
        lags = lag_fact_args(sched) if lagged else None
        if lags is not None and verdict(
            group, shapes, (plane_lag_facts, *lags)
        ) is None:
            return None
        return (keyed.key, lags, tuple(st.name for st in group),
                sched.options)

    def artifact_info(self, group, shapes, dtype=None, **options):
        """Cache identity of the artifact this group would compile to.

        Renders the source (cheap) but never invokes the compiler:
        ``cache_key`` is the JIT tag, ``source_path``/``artifact_path``
        are where :func:`~repro.backends.jit.compile_and_load` keeps
        ``sf_<tag>.c`` / ``sf_<tag>.so``, and ``cached`` says whether
        the shared object is already on disk.
        """
        shapes = {g: tuple(int(x) for x in s) for g, s in shapes.items()}
        dt = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
        sched = self.pop_schedule(group, options)(shapes)
        src = self.generate(group, shapes, dt, schedule=sched)
        tag = source_tag(src, openmp=self.target.openmp)
        d = cache_dir()
        so = d / f"sf_{tag}.so"
        return {
            "backend": self.name,
            "cache_key": tag,
            "source_path": str(d / f"sf_{tag}.c"),
            "artifact_path": str(so),
            "cached": so.exists(),
            "source_bytes": len(src),
        }


for _target in (C, OPENMP):
    register_backend(CBackend(_target), *_target.aliases)
