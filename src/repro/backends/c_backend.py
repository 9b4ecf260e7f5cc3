"""Sequential C micro-compiler: flat form -> C99 -> gcc -> ctypes callable.

The generated function has the narrow FFI signature

    void sf_kernel(TYPE** grids, const double* params, const int64_t* dims);

with grids and params passed in sorted-name order and ``dims`` holding
every grid's extents in the same order.  The source is *size-generic*:
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
translation unit: each distinct kernel body once, plus
``sf_program(steps, nsteps, G, P, D)``, which walks a step table, so a
whole solver cycle is one FFI call (:class:`CompiledProgram`).
"""

from __future__ import annotations

import ctypes
from typing import Callable, Mapping, Sequence

import numpy as np

from .. import telemetry
from ..core.stencil import StencilGroup
from ..core.validate import check_dtype, check_group
from ..resilience.guards import Guards
from ..schedule import Schedule, ScheduleOptions, as_schedule
from .base import (
    Backend,
    BoundKernel,
    CompiledKernel,
    Zero,
    register_backend,
)
from .codegen_c import (
    C_PREAMBLE,
    CodegenContext,
    StencilLoops,
    ctype_for,
    snapshot_decl,
)
from .jit import cache_dir, compile_and_load, source_tag

__all__ = [
    "CBackend",
    "CompiledProgram",
    "generate_c_source",
    "make_ffi_wrapper",
    "program_source",
]


def generate_c_source(
    group: StencilGroup,
    shapes: Mapping[str, tuple[int, ...]],
    dtype,
    *,
    schedule: "Schedule | ScheduleOptions | None" = None,
    func_name: str = "sf_kernel",
) -> str:
    """Render the whole group as one C translation unit.

    ``schedule`` is a prebuilt :class:`~repro.schedule.ir.Schedule`, a
    :class:`ScheduleOptions` to lower one from, or ``None`` for the
    defaults.  Steps are emitted in schedule order: fused chains share
    one loop nest, checkerboard unions become one parity-corrected
    sweep.
    """
    norm = {g: tuple(int(x) for x in shapes[g]) for g in shapes}
    sched = as_schedule(schedule, group, norm)
    ctx = CodegenContext(group, norm, ctype_for(dtype))
    lines: list[str] = [C_PREAMBLE]
    lines.extend(ctx.open_function(func_name))
    body: list[str] = []
    for step in sched.steps():
        chain = list(step.stencils)
        si = chain[0]
        stencil = group[si]
        names = ", ".join(group[i].name for i in chain)
        body.append(f"/* stencil(s) {chain}: {names} */")
        fused = [group[i] for i in chain[1:]]
        if step.snapshot:
            snap = f"snap_{si}"
            loops = StencilLoops(
                ctx, stencil, tile=sched.options.tile, parity=step.sweep,
                snapshot_name=snap, unroll=sched.options.unroll,
            )
            body.append("{")
            for l in snapshot_decl(ctx, stencil, snap):
                body.append("  " + l)
            for l in loops.emit():
                body.append("  " + l)
            body.append(f"  free({snap});")
            body.append("}")
        else:
            loops = StencilLoops(
                ctx, stencil, tile=sched.options.tile, parity=step.sweep,
                snapshot_name=None, fused_with=fused,
                unroll=sched.options.unroll,
            )
            body.extend(loops.emit())
    tt = sched.time_tile
    if tt is not None:
        # Fused time tile: one outer time loop around the whole step
        # sequence — every application runs the full (barrier-ordered)
        # program, so the result is k sequential sweeps by construction.
        lines.append(f"  /* fused time tile k={tt.k} */")
        lines.append(f"  for (int64_t sf_tt = 0; sf_tt < {tt.k}; ++sf_tt) {{")
        lines.extend("    " + l for l in body)
        lines.append("  }")
    else:
        lines.extend("  " + l for l in body)
    lines.append("}")
    lines.extend(ctx.entry_point(func_name))
    return "\n".join(lines) + "\n"


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


def program_source(bodies: Sequence[str], ctype: str) -> str:
    """One translation unit from kernel sources exporting ``sf_op0``,
    ``sf_op1``, … (their ``#include`` lines hoisted, once each), plus
    the walker ``sf_program(steps, nsteps, G, P, D)``.

    ``steps`` holds ``nsteps`` rows of ``(op, g, p, d, reps)``: run
    forwarder ``op`` on ``(G + g, P + p, D + d)`` ``reps`` times, or
    for ``op == -1`` zero ``D[d]`` bytes at ``G[g]``.  The text depends
    only on the bodies, never on the step list: a hierarchy of any
    depth, and any cycle over it, is data for the same artifact.
    """
    includes: dict[str, None] = {}
    rest: list[str] = []
    for src in bodies:
        for line in src.splitlines():
            if line.startswith("#include"):
                includes[line] = None
            else:
                rest.append(line)
    sig = f"({ctype}**, const double*, const int64_t*)"
    ops = ", ".join(f"sf_op{j}" for j in range(len(bodies)))
    return "\n".join([
        *includes, *rest,
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


def _address(fn) -> int:
    return ctypes.cast(fn, ctypes.c_void_p).value


class CompiledProgram:
    """What :meth:`CBackend.compile_program` returns.

    ``kernels[i]`` is unit ``i``'s :class:`CompiledKernel`, served by
    its forwarder in the program's shared object (a shape other than the
    unit's compiles on its own, as usual).  :meth:`bind` turns a step
    list over bound kernels of these into one :class:`BoundKernel`.
    ``source`` is the translation unit and ``cache_key`` its JIT tag.
    """

    def __init__(
        self, name: str, lib: ctypes.CDLL, n_ops: int,
        kernels: Sequence[CompiledKernel], backend_name: str,
        guards: Guards, source: str, cache_key: str,
    ) -> None:
        self.name = name
        self.kernels = tuple(kernels)
        self.guards = guards
        self.source = source
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
        count is the steps' sum.
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
            table += [*at, reps]
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
    """The ``c`` micro-compiler (sequential C99, SectionV-A flag set).

    Scheduling options are the :class:`repro.schedule.ScheduleOptions`
    fields (``block`` has no C lowering and is ignored); plus
    ``cc_timeout`` — a hard wall-clock cap on the compiler subprocess.
    """

    name = "c"
    _openmp = False
    requires_toolchain = True
    _KNOBS: Mapping[str, object] = {}

    def specializer(self, group: StencilGroup, **options):
        cc_timeout = options.pop("cc_timeout", None)
        schedule_at = self.pop_schedule(group, options)

        def specialize(shapes, dtype) -> Callable:
            src = self.generate(
                group, shapes, dtype, schedule=schedule_at(shapes)
            )
            telemetry.count(f"codegen.{self.name}.sources")
            telemetry.count(f"codegen.{self.name}.bytes", len(src))
            lib = compile_and_load(
                src, openmp=self._openmp, timeout=cc_timeout
            )
            ctx = CodegenContext(group, shapes, ctype_for(dtype))
            return make_ffi_wrapper(lib, "sf_kernel", ctx)

        return specialize

    def generate(
        self, group, shapes, dtype, *, schedule=None, func_name="sf_kernel"
    ) -> str:
        """Source-generation hook (overridden by the OpenMP backend)."""
        return generate_c_source(
            group, shapes, dtype, schedule=schedule, func_name=func_name
        )

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
        is rendered once, behind its exported forwarder ``sf_op<j>``;
        :func:`program_source` adds the step-table walker
        ``sf_program``.  ``options`` are the scheduling options and
        ``cc_timeout`` of :meth:`compile`, applied to every unit.  One
        compiler run, however many units and levels.
        """
        cc_timeout = options.pop("cc_timeout", None)
        dt = check_dtype(np.float64 if dtype is None else dtype)
        ops: dict[str, int] = {}  # per-kernel text -> forwarder index
        bodies: list[str] = []
        plan = []
        for group, shapes in units:
            shapes = {g: tuple(int(x) for x in s) for g, s in shapes.items()}
            check_group(group, shapes)
            sched = self.pop_schedule(group, dict(options))(shapes)
            op = ops.setdefault(
                self.generate(group, shapes, dt, schedule=sched), len(ops)
            )
            if op == len(bodies):
                bodies.append(self.generate(
                    group, shapes, dt, schedule=sched, func_name=f"sf_op{op}"
                ))
            plan.append((group, shapes, op))
        source = program_source(bodies, ctype_for(dt))
        telemetry.count(f"codegen.{self.name}.sources")
        telemetry.count(f"codegen.{self.name}.bytes", len(source))
        with telemetry.tracing.span(
            f"compile_program:{name}", cat="kernel", backend=self.name,
            units=len(plan), bodies=len(bodies),
        ):
            lib = compile_and_load(
                source, openmp=self._openmp, timeout=cc_timeout
            )
        guards = guards if guards is not None else Guards.from_env()
        kernels = []
        for group, shapes, op in plan:

            def specialize(s, d, group=group, shapes=shapes, op=op) -> Callable:
                if s == shapes and d == dt:
                    ctx = CodegenContext(group, shapes, ctype_for(dt))
                    return make_ffi_wrapper(lib, f"sf_op{op}", ctx)
                # another shape is not in the program: its own artifact
                return self.specializer(
                    group, cc_timeout=cc_timeout, **options
                )(s, d)

            kernels.append(CompiledKernel(
                group, specialize, shapes, dt, guards=guards,
                backend_name=self.name,
            ))
        return CompiledProgram(
            name, lib, len(bodies), kernels, self.name, guards, source,
            source_tag(source, openmp=self._openmp),
        )

    def artifact_info(self, group, shapes, dtype=None, **options):
        """Cache identity of the artifact this group would compile to.

        Renders the source (cheap) but never invokes the compiler:
        ``cache_key`` is the JIT tag, ``source_path``/``artifact_path``
        are where :func:`~repro.backends.jit.compile_and_load` keeps
        ``sf_<tag>.c`` / ``sf_<tag>.so``, and ``cached`` says whether
        the shared object is already on disk.
        """
        options.pop("cc_timeout", None)
        shapes = {g: tuple(int(x) for x in s) for g, s in shapes.items()}
        dt = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
        sched = self.pop_schedule(group, options)(shapes)
        src = self.generate(group, shapes, dt, schedule=sched)
        tag = source_tag(src, openmp=self._openmp)
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


register_backend(CBackend(), "c99")
