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
  OpenMP backend to form tasks, and by the sequential backend for cache
  blocking).

The emitter is purely mechanical: fusion, snapshot and sweep decisions
arrive precomputed on the :class:`~repro.schedule.ir.Schedule` steps
(``ParityClass``/``detect_parity_class`` are re-exported here for
backward compatibility).  Every shape-dependent *decision* — those, plus
which domain boxes are empty, which loop is tiled and whether it is long
enough to tile — is still taken per shape in Python; only the numbers
that follow from the decisions are left to run time.  Two shapes share
a compiled artifact exactly when their generated text is identical.
The emitter knows nothing about scheduling pragmas either; backends
inject those through small hook callables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ..analysis.dependence import is_parallel_safe
from ..core.domains import RectDomain, ResolvedRect
from ..core.stencil import Stencil, StencilGroup
from ..core.validate import iteration_shape
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
    "KernelParts",
    "StencilLoops",
    "C_PREAMBLE",
    "ctype_for",
    "ParityClass",
    "detect_parity_class",
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


@dataclass
class KernelParts:
    """One stencil's kernel body rendered to C fragments.

    ``scalar_lines`` (depth-0 bindings) belong *before* the loop nest,
    ``inner_lines`` in the innermost loop body just above the store of
    ``result``.  Names are already ``k<n>_``-prefixed, unique within
    the :class:`CodegenContext` that produced them.
    """

    scalar_lines: list[str]
    inner_lines: list[str]
    result: str


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
    """

    group: StencilGroup
    shapes: Mapping[str, tuple[int, ...]]
    ctype: str
    runtime_sizes: bool = True

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
        """The ``dims`` argument: every grid's extents, in grid order."""
        return [int(x) for g in self.grid_order for x in self.shapes[g]]

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

    def fresh_prefix(self) -> str:
        """Unique let-binding prefix — the same :class:`Stencil` object
        may be emitted several times in one translation unit (a group
        can list it at multiple indices), so names cannot key on the
        stencil."""
        p = f"k{self._kernel_seq}_"
        self._kernel_seq += 1
        return p

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

    def kernel_parts(
        self,
        stencil: Stencil,
        loopvars: Sequence[str],
        source_name: Callable[[str], str],
        optimize: bool | None = None,
    ) -> KernelParts:
        """Render ``stencil``'s (cached) kernel body to C fragments."""
        body, _ = body_for(stencil, optimize)
        prefix = self.fresh_prefix()
        names = {l.name: prefix + l.name for l in body.lets}
        scalar: list[str] = []
        inner: list[str] = []
        for let in body.lets:
            line = (
                f"const {self.ctype} {names[let.name]} = "
                f"{self.render_kexpr(let.expr, loopvars, source_name, names)};"
            )
            (scalar if let.depth == 0 else inner).append(line)
        return KernelParts(
            scalar, inner,
            self.render_kexpr(body.result, loopvars, source_name, names),
        )


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


class StencilLoops:
    """Emit the loop nests of one stencil (all domain boxes).

    ``task_pragma`` (an argument of :meth:`emit`) lets the OpenMP
    backend wrap each outer tile in a task; ``None`` produces plain
    loops.

    ``fused_with`` carries additional stencils sharing this stencil's
    domain and output map whose stores are emitted in the *same* loop
    nest — the fusion transformation the dependence analysis legalizes
    (only snapshot-free, mutually independent stencils may be fused;
    :func:`repro.schedule.fusion_chains` decides).

    ``parity`` is the schedule's multicolor verdict for this stencil:
    a :class:`~repro.schedule.ir.ParityClass` selects the fused dense
    nest, ``None`` emits one nest per domain box.

    ``unroll`` emits ``#pragma GCC unroll N`` immediately before each
    innermost loop — a pure performance hint (the arithmetic and its
    order are unchanged, so results stay bitwise identical); ``None``
    emits nothing.

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
    ) -> None:
        self.ctx = ctx
        self.stencil = stencil
        self.tile = tile
        self.parity = parity
        self.snapshot_name = snapshot_name
        self.unroll = unroll
        self.fused_with = tuple(fused_with)
        if self.fused_with and snapshot_name is not None:
            raise ValueError("fused clusters must be snapshot-free")
        extents = ctx.iteration_extents(stencil)
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
        loopvars = [f"i{d}" for d in range(stencil.ndim)]
        self.parts = [ctx.kernel_parts(stencil, loopvars, self.source_name)]
        for st in self.fused_with:
            # fused members are snapshot-free by construction
            self.parts.append(
                ctx.kernel_parts(st, loopvars, lambda g: ctx.grid_cname[g])
            )

    # -- naming --------------------------------------------------------------

    def source_name(self, grid: str) -> str:
        if self.snapshot_name is not None and grid == self.stencil.output:
            return self.snapshot_name
        return self.ctx.grid_cname[grid]

    def needs_snapshot(self) -> bool:
        return self.stencil.is_inplace() and not is_parallel_safe(
            self.stencil, self.ctx.shapes
        )

    # -- emission ------------------------------------------------------------

    def emit(self, task_pragma: str | None = None) -> list[str]:
        """Full C lines for this stencil (without snapshot management).

        Starts with the hoisted scalar prelude (depth-0 bindings,
        evaluated once per sweep), then the loop nests.  Under OpenMP
        the prelude precedes the task pragmas; the ``const`` locals are
        firstprivate-captured by the tasks.
        """
        lines: list[str] = []
        for parts in self.parts:
            lines += parts.scalar_lines
        pc = self.parity
        if pc is not None:
            lines += self._emit_parity_nest(pc, task_pragma)
            return lines
        for rect, bounds in self.rects:
            lines += self._nest(
                [(lo, end, step, ct)
                 for (lo, end, step), ct in zip(bounds, rect.counts)],
                task_pragma,
            )
        return lines

    def _store_stmt(self, loopvars: Sequence[str]) -> list[str]:
        ctx = self.ctx
        stmts = []
        for st, parts in zip((self.stencil, *self.fused_with), self.parts):
            om = st.output_map
            out_idx = ctx.index_expr(st.output, om.scale, om.offset, loopvars)
            stmts.extend(parts.inner_lines)
            out = ctx.grid_cname[st.output]
            stmts.append(f"{out}[{out_idx}] = {parts.result};")
        return stmts

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

        tile_dim = next((d for d in range(nd) if dims[d][3] > 1), None)
        for d, (lo, end, step, count) in enumerate(dims):
            v = loopvars[d]
            if d == nd - 1:
                for s in inner_start:
                    add(s)
            if d == tile_dim and self.tile and count > self.tile:
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
            if d == nd - 1 and self.unroll:
                add(f"#pragma GCC unroll {self.unroll}")
            add(f"for (int64_t {v} = {lo}; {v} < {end}; {v} += {step}) {{")
            indent += "  "
        for s in self._store_stmt(loopvars):
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
        nd = len(pc.base)
        last = nd - 1
        # the dense box [base, high] as bounds: its low is the low of
        # the box that starts there, its end one past the last point of
        # the box that reaches furthest
        dims = []
        for d in range(nd):
            lo = next(b[d][0] for _, b in self.rects if b[d][0].value == pc.base[d])
            b = next(b for r, b in self.rects if r.highs()[d] == pc.high[d])
            end = b[d][1].shift(pc.high[d] + 1 - b[d][1].value)
            dims.append((lo, end, 1, pc.high[d] - pc.base[d] + 1))
        off_sum = " + ".join(
            f"(i{d} - {dims[d][0]})" for d in range(last)
        ) or "0"
        start = (
            f"const int64_t lo{last} = {dims[last][0]} + "
            f"((({pc.parity} - ({off_sum})) % 2 + 2) % 2);"
        )
        dims[last] = (f"lo{last}", dims[last][1], 2, 1)
        return self._nest(dims, task_pragma, [start])


def snapshot_decl(ctx: CodegenContext, stencil: Stencil, name: str) -> list[str]:
    """Allocate + fill a gather-semantics snapshot of the output grid."""
    g = stencil.output
    n = ctx.grid_size(g)
    src = ctx.grid_cname[g]
    return [
        f"{ctx.ctype}* {name} = ({ctx.ctype}*)malloc({n} * sizeof({ctx.ctype}));",
        f"memcpy({name}, {src}, {n} * sizeof({ctx.ctype}));",
    ]
