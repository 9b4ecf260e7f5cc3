"""Shared C99 emitter for the compiled micro-compilers.

Renders the optimized kernel IR into loop nests.  Responsibilities:

* grid/param naming, and *size-generic* row-major layout: grid extents
  arrive at run time in the ``dims`` table, so loop bounds, tile
  clamps, strides and snapshot sizes are affine expressions in them and
  one translation unit serves every shape that makes the same
  decisions (a multigrid operator compiles once, not once per level),
* rendering a :class:`~repro.kernel.ir.KernelBody` as C99 let-bindings:
  depth-0 bindings become a ``const`` scalar prelude before the loop
  nest, deeper bindings become ``const`` locals in the innermost loop
  body, and the result expression feeds the store (every binding name
  gets a per-kernel ``k<n>_`` prefix, so the same stencil may appear
  several times in one translation unit),
* affine index expressions ``(scale*i + off) * stride`` folded per dim,
* gather-semantics snapshots for hazardous in-place stencils (decided by
  the dependence analysis — safe stencils pay nothing),
* the *multicolor reordering* nest (paper SectionIV-A): when the
  schedule hands down a :class:`~repro.schedule.ir.ParityClass`, the
  checkerboard boxes are fused into a single dense nest whose innermost
  loop start is parity corrected, replacing 2^(d-1) strided sweeps with
  one cache-friendly sweep,
* arbitrary-dimension tiling of the outermost free loop (used by the
  OpenMP target to form tasks, and by the sequential one for cache
  blocking),
* the nests of one axis-0 plane, for a plane-lagged schedule: each
  step's nest runs inside the walker's plane loop with its axis-0 loop
  replaced by a guard on ``i0``.

The emitter is purely mechanical: fusion, snapshot and sweep decisions
arrive precomputed on the :class:`~repro.schedule.ir.Schedule` steps.
Every shape-dependent *decision* — those, plus which domain boxes are
empty, which loop is tiled and whether it is long enough to tile — is
still taken per shape in Python; only the numbers that follow from the
decisions are left to run time.  Two shapes share a compiled artifact
exactly when their generated text is identical.  The emitter knows
nothing about scheduling pragmas either: they are fields of the
backend's :class:`~repro.backends.c_backend.Target` row, and
:meth:`StencilLoops.emit` takes the task pragma as an argument.
:meth:`CodegenContext.stores` is the one store emission, shared by the
CPU nests and the GPU kernel bodies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ..analysis.structure import Unbounded
from ..core.domains import RectDomain, ResolvedRect
from ..core.stencil import Stencil, StencilGroup
from ..core.validate import iteration_extents, iteration_shape
from ..kernel.ir import (
    KAdd,
    KConst,
    KDiv,
    KExpr,
    KFma,
    KLoad,
    KMul,
    KParam,
    KRef,
)
from ..kernel.lower import body_for
from ..schedule.ir import ParityClass, detect_parity_class

__all__ = [
    "CodegenContext",
    "StencilLoops",
    "C_PREAMBLE",
    "ctype_for",
    "render_decisions",
]


C_PREAMBLE = """\
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>
"""


def ctype_for(dtype) -> str:
    dt = np.dtype(dtype)
    if dt == np.float64:
        return "double"
    if dt == np.float32:
        return "float"
    raise TypeError(f"unsupported dtype for compiled backends: {dt}")


def sanitize(name: str) -> str:
    s = re.sub(r"\W", "_", name)
    if not s or s[0].isdigit():
        s = "_" + s
    return s


def _lit(value: float, ctype: str) -> str:
    return f"(({ctype}){value!r})"


@dataclass(frozen=True)
class Bound:
    """One loop bound: the C text ``sym + off``, worth ``value`` at the
    shape being compiled.

    ``sym`` is an extent expression read from ``dims`` (``None`` for a
    literal), so a bound anchored to the far end of a grid (``-1`` in a
    domain) stays correct at every size while one anchored to the near
    end (``1``) is a plain number.
    """

    sym: str | None
    off: int
    value: int

    @staticmethod
    def lit(v: int) -> "Bound":
        return Bound(None, v, v)

    def shift(self, k: int) -> "Bound":
        return Bound(self.sym, self.off + k, self.value + k)

    def __str__(self) -> str:
        if self.sym is None:
            return str(self.off)
        if self.off == 0:
            return self.sym
        sign = "+" if self.off > 0 else "-"
        return f"({self.sym} {sign} {abs(self.off)})"


def _scaled(k: int, sym: str) -> str:
    return sym if k == 1 else "-" + sym if k == -1 else f"{k}*{sym}"


def _sum(terms: Sequence[str]) -> str:
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


@dataclass
class CodegenContext:
    """Naming and layout information for one group at one shape.

    ``runtime_sizes`` (the C family) reads every grid extent from the
    kernel's ``dims`` argument: grids of equal shape share one set of
    extent/stride locals (``n<c>_<d>``, ``s<c>_<d>`` for shape class
    ``c``), and :meth:`index_expr`, :meth:`grid_size` and
    :meth:`iteration_extents` render in terms of them.  Without it
    (the GPU dialects) strides are baked into the text as numbers.
    ``time_tile`` is the depth ``k`` of a time tile the body lags in
    one plane loop: past one it rides in ``dims`` too, after the
    extents, and the body reads it into ``sf_k``, so the text is the
    same for every ``k > 1``.
    """

    group: StencilGroup
    shapes: Mapping[str, tuple[int, ...]]
    ctype: str
    runtime_sizes: bool = True
    time_tile: int = 1

    grid_order: list[str] = field(init=False)
    param_order: list[str] = field(init=False)
    grid_cname: dict[str, str] = field(init=False)
    param_cname: dict[str, str] = field(init=False)
    #: per grid, per dim: an extent local (runtime sizes) or the number
    extents: dict[str, tuple[int | str, ...]] = field(init=False)
    #: per grid, per dim: a stride local (runtime sizes) or the number
    strides: dict[str, tuple[int | str, ...]] = field(init=False)
    _kernel_seq: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.grid_order = sorted(self.group.grids())
        self.param_order = sorted(self.group.params())
        used: set[str] = set()

        def unique(base: str) -> str:
            c, k = base, 1
            while c in used:
                c = f"{base}_{k}"
                k += 1
            used.add(c)
            return c

        self.grid_cname = {g: unique("g_" + sanitize(g)) for g in self.grid_order}
        self.param_cname = {
            p: unique("p_" + sanitize(p)) for p in self.param_order
        }
        self.extents, self.strides = {}, {}
        classes: dict[tuple[int, ...], int] = {}
        for g in self.grid_order:
            shp = tuple(int(x) for x in self.shapes[g])
            if self.runtime_sizes:
                c = classes.setdefault(shp, len(classes))
                self.extents[g] = tuple(f"n{c}_{d}" for d in range(len(shp)))
                st: list[int | str] = [f"s{c}_{d}" for d in range(len(shp))]
                st[-1] = 1
            else:
                self.extents[g] = shp
                st = [1] * len(shp)
                for d in range(len(shp) - 2, -1, -1):
                    st[d] = st[d + 1] * shp[d + 1]
            self.strides[g] = tuple(st)

    def dims_table(self) -> list[int]:
        """The ``dims`` argument: every grid's extents, in grid order,
        then the time tile's depth when it is past one."""
        table = [int(x) for g in self.grid_order for x in self.shapes[g]]
        return table + [self.time_tile] if self.time_tile > 1 else table

    def grid_size(self, g: str) -> str:
        """Element count of ``g`` as a C expression."""
        return "*".join(str(x) for x in self.extents[g])

    def open_function(self, func_name: str) -> list[str]:
        """Head of the kernel body ``<func_name>_body`` up to its open
        scope: every grid a ``restrict`` parameter, then the params and
        the extents/strides unpacked from ``params``/``dims`` into named
        locals.

        The body is a function of its own, called by
        :meth:`entry_point`, because gcc takes ``restrict`` from
        parameters but not from locals loaded out of ``grids[]``;
        without it every loop is versioned on runtime alias checks, one
        per distinct stride offset, and past gcc's limit on those the
        loop is not vectorized at all.
        """
        grids = ", ".join(
            f"{self.ctype}* restrict {self.grid_cname[g]}"
            for g in self.grid_order
        )
        lines = [
            f"static void {func_name}_body({grids}, "
            "const double* params, const int64_t* dims)",
            "{",
        ]
        for i, p in enumerate(self.param_order):
            lines.append(
                f"  const {self.ctype} {self.param_cname[p]} = "
                f"({self.ctype})params[{i}];"
            )
        at, seen = 0, set()
        for g in self.grid_order:
            ext, st = self.extents[g], self.strides[g]
            if ext[0] not in seen:
                seen.add(ext[0])
                lines.append(
                    "  const int64_t "
                    + ", ".join(f"{n} = dims[{at + d}]" for d, n in enumerate(ext))
                    + ";"
                )
                if len(ext) > 1:
                    lines.append(
                        "  const int64_t "
                        + ", ".join(
                            f"{st[d]} = {ext[d + 1]}"
                            + ("" if d == len(ext) - 2 else f"*{st[d + 1]}")
                            for d in range(len(ext) - 2, -1, -1)
                        )
                        + ";"
                    )
            at += len(ext)
        if self.time_tile > 1:
            lines.append(f"  const int64_t sf_k = dims[{at}];")
        return lines

    def entry_point(self, func_name: str) -> list[str]:
        """The exported FFI symbol ``func_name(grids, params, dims)``,
        forwarding to the body :meth:`open_function` began."""
        args = ", ".join(f"grids[{i}]" for i in range(len(self.grid_order)))
        return [
            f"void {func_name}({self.ctype}** grids, const double* params, "
            "const int64_t* dims)",
            "{",
            f"  {func_name}_body({args}, params, dims);",
            "}",
        ]

    # -- expressions ---------------------------------------------------------

    def index_expr(
        self,
        grid: str,
        scale: Sequence[int],
        offset: Sequence[int],
        loopvars: Sequence[str],
    ) -> str:
        """Flat row-major index of ``grid[scale*i + offset]``."""
        strides = self.strides[grid]
        if not self.runtime_sizes:
            parts = []
            const = 0
            for s, o, st, v in zip(scale, offset, strides, loopvars):
                const += o * st
                coeff = s * st
                parts.append(v if coeff == 1 else f"{coeff}*{v}")
            if const != 0 or not parts:
                parts.append(str(const))
            return " + ".join(parts)
        terms, consts = [], []
        for s, o, st, v in zip(scale, offset, strides, loopvars):
            var = _scaled(s, v)
            if st == 1:
                terms.append(var)
                if o:
                    consts.append(str(o))
            else:
                terms.append(f"{var}*{st}")
                if o:
                    consts.append(_scaled(o, st))
        return _sum(terms + consts)

    def iteration_extents(self, stencil: Stencil) -> list[Bound]:
        """The extents ``stencil``'s domain resolves against, as
        :class:`Bound`\\ s (see :func:`~repro.core.validate.iteration_shape`)."""
        it = iteration_shape(stencil, self.shapes)
        grid = stencil.iteration_grid
        om = stencil.output_map
        if grid is None and om.is_identity():
            grid = stencil.output
        out = []
        for d, n in enumerate(it):
            if grid is not None:
                sym = self.extents[grid][d]
            else:
                # a scaled write: ceil((size - offset) / scale)
                s, o = om.scale[d], om.offset[d]
                sym = self.extents[stencil.output][d]
                if not isinstance(sym, str) or n <= 0:
                    sym = n
                else:
                    k = s - 1 - o
                    sym = f"(({_sum([sym, str(k)]) if k else sym}) / {s})"
            out.append(Bound(sym, 0, n) if isinstance(sym, str) else Bound.lit(n))
        return out

    # -- kernel IR rendering -------------------------------------------------

    def render_kexpr(
        self,
        expr: KExpr,
        loopvars: Sequence[str],
        source_name: Callable[[str], str],
        names: Mapping[str, str],
    ) -> str:
        """One kernel-IR expression as fully-parenthesized C.

        Parentheses pin the IR's evaluation order exactly; under the
        strict-ISO flag set (no ``-ffast-math``, default
        ``-ffp-contract=off``) the compiler preserves it, which is what
        keeps the compiled backends bitwise-equal to the reference
        interpreter.  A :class:`KFma` renders as a separate multiply
        and add for the same reason.
        """
        r = lambda e: self.render_kexpr(e, loopvars, source_name, names)  # noqa: E731
        if isinstance(expr, KConst):
            return _lit(expr.value, self.ctype)
        if isinstance(expr, KParam):
            return self.param_cname[expr.name]
        if isinstance(expr, KRef):
            return names[expr.name]
        if isinstance(expr, KLoad):
            idx = self.index_expr(expr.grid, expr.scale, expr.offset, loopvars)
            return f"{source_name(expr.grid)}[{idx}]"
        if isinstance(expr, KAdd):
            return f"({r(expr.lhs)} + {r(expr.rhs)})"
        if isinstance(expr, KMul):
            return f"({r(expr.lhs)} * {r(expr.rhs)})"
        if isinstance(expr, KDiv):
            return f"({r(expr.lhs)} / {r(expr.rhs)})"
        if isinstance(expr, KFma):
            return f"({r(expr.a)} * {r(expr.b)} + {r(expr.c)})"
        raise TypeError(f"cannot render {type(expr).__name__}")

    def stores(
        self,
        stencils: Sequence[Stencil],
        loopvars: Sequence[str],
        source_name: Callable[[str], str],
    ) -> tuple[list[str], list[str]]:
        """The (cached) kernel bodies of ``stencils`` — a fused chain,
        head first — as C lines ``(prelude, stores)``; loads go through
        ``source_name``, writes hit the live output grids.

        The prelude holds the depth-0 bindings and belongs before the
        loop nest (or at kernel top, before the launch-grid guards);
        the stores hold each member's deeper bindings and assignment,
        unindented, for the innermost scope.  Binding names get a fresh
        ``k<n>_`` prefix per member: the same :class:`Stencil` may be
        emitted several times in one translation unit.
        """
        prelude: list[str] = []
        lines: list[str] = []
        for st in stencils:
            body, _ = body_for(st)
            prefix = f"k{self._kernel_seq}_"
            self._kernel_seq += 1
            names = {l.name: prefix + l.name for l in body.lets}

            def render(e: KExpr) -> str:
                return self.render_kexpr(e, loopvars, source_name, names)

            for let in body.lets:
                (prelude if let.depth == 0 else lines).append(
                    f"const {self.ctype} {names[let.name]} = {render(let.expr)};"
                )
            om = st.output_map
            out = self.index_expr(st.output, om.scale, om.offset, loopvars)
            lines.append(f"{self.grid_cname[st.output]}[{out}] = {render(body.result)};")
        return prelude, lines


# ---------------------------------------------------------------------------
# loop nests
# ---------------------------------------------------------------------------


def _rect_bounds(
    rdom: RectDomain, rect: ResolvedRect, extents: Sequence[Bound]
) -> list[tuple[Bound, Bound, int]]:
    """``(low, end, step)`` per dimension of one non-empty box, ``end``
    exclusive — :meth:`RectDomain.resolve` with the grid-relative
    (negative) indices kept relative to the extents they resolve
    against."""
    out = []
    for d, (start, end, stride) in enumerate(
        zip(rdom.start, rdom.end, rdom.stride)
    ):
        ext = extents[d]
        lo = ext.shift(start) if start < 0 else Bound.lit(start)
        if lo.value != rect.lows[d]:  # starts before the grid: clipped
            lo = Bound.lit(rect.lows[d])
        if stride == 0:
            out.append((lo, lo.shift(1), 1))
            continue
        if end < 0:
            hi = ext.shift(end)
        elif end <= ext.value:
            hi = Bound.lit(end)
        else:
            hi = ext
        out.append((lo, hi, stride))
    return out


def _tiling(counts: Sequence[int], tile: int | None) -> tuple[int | None, bool]:
    """``(dim, tiled)``: the outermost loop of more than one iteration,
    which carries the tiles (and the task pragma), and whether it is
    longer than ``tile``."""
    dim = next((d for d, c in enumerate(counts) if c > 1), None)
    return dim, dim is not None and bool(tile) and counts[dim] > tile


def _parity_box(
    rects: Sequence[tuple[ResolvedRect, list]], pc: ParityClass
) -> list[tuple[Bound, Bound, int, int]]:
    """The dense box ``[base, high]`` of a parity class as ``(low, end,
    step, count)`` per dimension: its low is the low of the box that
    starts there, its end one past the last point of the box that
    reaches furthest (``rects`` pairs each box with its bounds)."""
    dims = []
    for d in range(len(pc.base)):
        lo = next(b[d][0] for _, b in rects if b[d][0].value == pc.base[d])
        b = next(b for r, b in rects if r.highs()[d] == pc.high[d])
        end = b[d][1].shift(pc.high[d] + 1 - b[d][1].value)
        dims.append((lo, end, 1, pc.high[d] - pc.base[d] + 1))
    return dims


def render_decisions(
    group: StencilGroup, shapes, rects, tile: int | None, tasks: bool,
    lagged: bool = False,
) -> None:
    """Take every shape-dependent decision :class:`CodegenContext` and
    :class:`StencilLoops` take for ``group`` at ``shapes``, for the
    thresholds they record: run as the ``extra`` of
    :func:`repro.analysis.structure.verdict` (on symbolic ``shapes``
    and the stencils' bound domain boxes ``rects``), it settles the
    shape classes, empty and clipped boxes, the parity-class sweeps
    and, when there are tiles or tasks (``tile``, ``tasks``), the loop
    that carries them — within a plane when the nests run plane-lagged
    (``lagged``; the lags themselves are settled on their own, by
    :func:`~repro.schedule.lower.plane_lag_facts`) — so every shape
    above the threshold renders the same text.  A bound whose text
    would change with the shape raises
    :class:`~repro.analysis.structure.Unbounded`."""
    grids = sorted(group.grids())
    # (each ``_ =`` below is a decision taken for its recorded threshold)
    # which grids share extent locals: CodegenContext's shape classes
    _ = [shapes[g] == shapes[h] for g in grids for h in grids if g < h]
    for stencil, resolved in zip(group, rects):
        it = iteration_extents(stencil, shapes)
        if stencil.iteration_grid is None and not stencil.output_map.is_identity():
            _ = [n <= 0 for n in it]  # is a scaled write's extent symbolic
        extents = [Bound("n", 0, n) for n in it]
        boxes = [
            (rect, _rect_bounds(rdom, rect, extents))
            for rdom, rect in zip(stencil.domain.rects, resolved)
            if not rect.is_empty()
        ]
        nests = [(bounds, rect.counts) for rect, bounds in boxes]
        pc = detect_parity_class([rect for rect, _ in boxes])
        if pc is not None:
            dims = _parity_box(boxes, pc)
            nests.append(([d[:2] for d in dims], [d[3] for d in dims[:-1]] + [1]))
        for bounds, counts in nests:
            if tile or tasks:
                _tiling([1, *counts[1:]] if lagged else counts, tile)
            if any(not isinstance(b.off, int) for lh in bounds for b in lh[:2]):
                raise Unbounded("a loop bound's text depends on the shape")


def _on_plane(lo: Bound, end: Bound, step: int) -> str:
    """The C condition that plane ``i0`` lies in ``[lo, end)`` on the
    stride ``step`` from ``lo``.

    A range is one unsigned comparison: gcc splits a loop at a two-sided
    guard on its induction variable, and the plane loop's whole body
    would be compiled twice."""
    if end == lo.shift(1):  # a pinned dimension: one plane
        return f"i0 == {lo}"
    rel = "i0" if lo == Bound.lit(0) else f"i0 - {lo}"
    span = end.shift(-lo.off) if lo.sym is None else f"({end} - {lo})"
    cond = f"(uint64_t)({rel}) < (uint64_t){span}"
    if step > 1:
        cond += f" && ({rel}) % {step} == 0"
    return cond


class StencilLoops:
    """Emit the loop nests of one stencil (all domain boxes).

    ``task_pragma`` (an argument of :meth:`emit`, the target row's
    :attr:`~repro.backends.c_backend.Target.task_pragma`) wraps each
    outer tile in a task; ``None`` produces plain loops.

    ``fused_with`` carries additional stencils sharing this stencil's
    domain and iteration extents whose stores are emitted in the *same*
    loop nest, each through its own output map — the fusion
    transformation the dependence analysis legalizes (only
    snapshot-free, mutually independent stencils may be fused;
    :func:`repro.schedule.lower.fusion_refusals` decides).

    ``parity`` is the schedule's multicolor verdict for this stencil:
    a :class:`~repro.schedule.ir.ParityClass` selects the fused dense
    nest, ``None`` emits one nest per domain box.

    ``parallel`` is the step's verdict that no member carries a
    loop-carried hazard (:attr:`~repro.schedule.ir.Step.parallel`, the
    dependence analysis's proof): it emits ``#pragma GCC ivdep`` before
    each innermost loop, so gcc vectorizes it without versioning on
    runtime alias checks.  ``unroll`` emits ``#pragma GCC unroll N``
    there too, after it.  Both are pure performance hints (the
    arithmetic and its order are unchanged, and nothing is reassociated
    without ``-ffast-math``, so results stay bitwise identical).

    ``plane`` is the step's plane lag (:attr:`~repro.schedule.ir.Step.lag`)
    in a plane-lagged schedule: the nests then run inside the walker's
    loop over planes ``sf_t``, on the one plane ``i0 = sf_t - plane``
    guarded to each box's axis-0 range and stride, and the tiles (and
    tasks) go on the outermost of the remaining loops.  ``app_lag`` is
    the schedule's application lag
    (:attr:`~repro.schedule.ir.Schedule.app_lag`) when the walker runs a
    time tile's applications ``sf_a`` in the plane loop too: the plane
    is then ``sf_t - plane - app_lag*sf_a``.

    Bounds are :class:`Bound`\\ s over the context's extents; whether a
    box is empty and whether a loop is long enough to tile are decided
    here, at the shape being compiled.
    """

    def __init__(
        self,
        ctx: CodegenContext,
        stencil: Stencil,
        *,
        tile: int | None = None,
        parity: ParityClass | None = None,
        snapshot_name: str | None = None,
        fused_with: Sequence[Stencil] = (),
        unroll: int | None = None,
        parallel: bool = False,
        plane: int | None = None,
        app_lag: int | None = None,
    ) -> None:
        self.ctx = ctx
        self.stencil = stencil
        self.tile = tile
        self.parity = parity
        self.snapshot_name = snapshot_name
        self.unroll = unroll
        self.parallel = parallel
        self.plane = plane
        self.app_lag = app_lag
        self.fused_with = tuple(fused_with)
        if self.fused_with and snapshot_name is not None:
            raise ValueError("fused clusters must be snapshot-free")
        self.extents = extents = ctx.iteration_extents(stencil)
        it_shape = [e.value for e in extents]
        self.rects = [
            (rect, _rect_bounds(rdom, rect, extents))
            for rdom, rect in zip(
                stencil.domain.rects, stencil.domain.resolve(it_shape)
            )
            if not rect.is_empty()
        ]
        # Kernel bodies rendered once per StencilLoops: every nest form
        # (rect or parity) uses the same i0..i{d-1} loop variables.
        # Fused members are snapshot-free, so source_name reads them
        # from the live grids.
        self.prelude, self.stores = ctx.stores(
            (stencil, *self.fused_with),
            [f"i{d}" for d in range(stencil.ndim)],
            self.source_name,
        )

    # -- naming --------------------------------------------------------------

    def source_name(self, grid: str) -> str:
        if self.snapshot_name is not None and grid == self.stencil.output:
            return self.snapshot_name
        return self.ctx.grid_cname[grid]

    # -- emission ------------------------------------------------------------

    def emit(self, task_pragma: str | None = None) -> list[str]:
        """Full C lines for this stencil (without snapshot management).

        Starts with the hoisted scalar prelude (depth-0 bindings,
        evaluated once per sweep), then the loop nests.  Under OpenMP
        the prelude precedes the task pragmas; the ``const`` locals are
        firstprivate-captured by the tasks.
        """
        return self.prelude + self.nests(task_pragma)

    def nests(self, task_pragma: str | None = None) -> list[str]:
        """The loop nests alone: :meth:`emit` without the prelude.  On a
        plane they sit in a block that fixes ``i0``."""
        pc = self.parity
        if pc is not None:
            lines = self._emit_parity_nest(pc, task_pragma)
        else:
            lines = []
            for rect, bounds in self.rects:
                lines += self._nest(
                    [(lo, end, step, ct)
                     for (lo, end, step), ct in zip(bounds, rect.counts)],
                    task_pragma,
                )
        if self.plane is None:
            return lines
        at = f"sf_t - {self.plane}" if self.plane else "sf_t"
        if self.app_lag:
            at += f" - {_scaled(self.app_lag, 'sf_a')}"
        return [
            "{", f"  const int64_t i0 = {at};",
            *("  " + l for l in lines), "}",
        ]

    def _nest(
        self,
        dims: Sequence[tuple[Bound | str, Bound, int, int]],
        task_pragma: str | None,
        inner_start: Sequence[str] = (),
    ) -> list[str]:
        """Loops over ``dims`` — ``(low, end, step, count)`` each — with
        the outermost one of ``count > 1`` tiled when it is longer than
        ``tile`` and the task pragma on that loop's body (tiled) or
        around the whole nest from it (untiled).  ``inner_start`` are
        the lines that define the innermost loop's low, just before
        it."""
        nd = len(dims)
        loopvars = [f"i{d}" for d in range(nd)]
        lines: list[str] = []
        indent = ""

        def add(s: str) -> None:
            lines.append(indent + s)

        counts = [c for *_, c in dims]
        if self.plane is not None:
            counts[0] = 1  # the plane: one i0 per sf_t
        tile_dim, tiled = _tiling(counts, self.tile)
        for d, (lo, end, step, count) in enumerate(dims):
            v = loopvars[d]
            if d == 0 and self.plane is not None:
                add(f"if ({_on_plane(lo, end, step)}) {{")
                indent += "  "
                continue
            if d == nd - 1:
                for s in inner_start:
                    add(s)
            if d == tile_dim and tiled:
                span = step * self.tile
                add(f"for (int64_t t{d} = {lo}; t{d} < {end}; t{d} += {span}) {{")
                indent += "  "
                if task_pragma:
                    add(task_pragma)
                    add("{")
                    indent += "  "
                add(
                    f"const int64_t e{d} = (t{d} + {span} < {end}) "
                    f"? t{d} + {span} : {end};"
                )
                lo, end = f"t{d}", f"e{d}"
            elif d == tile_dim and task_pragma:
                # untiled task: one task wraps the whole nest
                add(task_pragma)
                add("{")
                indent += "  "
            if d == nd - 1 and self.parallel:
                add("#pragma GCC ivdep")
            if d == nd - 1 and self.unroll:
                add(f"#pragma GCC unroll {self.unroll}")
            add(f"for (int64_t {v} = {lo}; {v} < {end}; {v} += {step}) {{")
            indent += "  "
        for s in self.stores:
            add(s)
        while indent:
            indent = indent[:-2]
            lines.append(indent + "}")
        return lines

    def _emit_parity_nest(
        self, pc: ParityClass, task_pragma: str | None
    ) -> list[str]:
        """Fused multicolor nest: dense leading loops, parity-corrected
        stride-2 innermost loop (the paper's multicolor reordering)."""
        last = len(pc.base) - 1
        dims = _parity_box(self.rects, pc)
        off_sum = " + ".join(
            f"(i{d} - {dims[d][0]})" for d in range(last)
        ) or "0"
        start = (
            f"const int64_t lo{last} = {dims[last][0]} + "
            f"((({pc.parity} - ({off_sum})) % 2 + 2) % 2);"
        )
        dims[last] = (f"lo{last}", dims[last][1], 2, 1)
        return self._nest(dims, task_pragma, [start])

