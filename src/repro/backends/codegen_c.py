"""Shared C99 emitter for the compiled micro-compilers.

Renders the optimized kernel IR into loop nests.  Responsibilities:

* grid/param naming and row-major stride baking (shape-specialized),
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
backward compatibility).  The emitter knows nothing about scheduling
pragmas either; backends inject those through small hook callables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ..analysis.dependence import is_parallel_safe
from ..core.domains import ResolvedRect
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


@dataclass
class CodegenContext:
    """Shape/dtype-specialized naming and layout information."""

    group: StencilGroup
    shapes: Mapping[str, tuple[int, ...]]
    ctype: str

    grid_order: list[str] = field(init=False)
    param_order: list[str] = field(init=False)
    grid_cname: dict[str, str] = field(init=False)
    param_cname: dict[str, str] = field(init=False)
    strides: dict[str, tuple[int, ...]] = field(init=False)
    _kernel_seq: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.grid_order = sorted(self.group.grids())
        self.param_order = sorted(self.group.params())
        used: set[str] = set()
        self.grid_cname = {}
        for g in self.grid_order:
            base = "g_" + sanitize(g)
            c = base
            k = 1
            while c in used:
                c = f"{base}_{k}"
                k += 1
            used.add(c)
            self.grid_cname[g] = c
        self.param_cname = {}
        for p in self.param_order:
            base = "p_" + sanitize(p)
            c = base
            k = 1
            while c in used:
                c = f"{base}_{k}"
                k += 1
            used.add(c)
            self.param_cname[p] = c
        self.strides = {}
        for g in self.grid_order:
            shp = tuple(int(x) for x in self.shapes[g])
            st = [1] * len(shp)
            for d in range(len(shp) - 2, -1, -1):
                st[d] = st[d + 1] * shp[d + 1]
            self.strides[g] = tuple(st)

    def grid_size(self, g: str) -> int:
        n = 1
        for x in self.shapes[g]:
            n *= int(x)
        return n

    def prologue(self) -> list[str]:
        """Unpack the grids/params arrays into named locals."""
        lines = []
        for i, g in enumerate(self.grid_order):
            lines.append(
                f"{self.ctype}* restrict {self.grid_cname[g]} = grids[{i}];"
            )
        for i, p in enumerate(self.param_order):
            lines.append(
                f"const {self.ctype} {self.param_cname[p]} = "
                f"({self.ctype})params[{i}];"
            )
        return lines

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
        parts = []
        const = 0
        for s, o, st, v in zip(scale, offset, strides, loopvars):
            const += o * st
            coeff = s * st
            if coeff == 1:
                parts.append(v)
            else:
                parts.append(f"{coeff}*{v}")
        if const != 0 or not parts:
            parts.append(str(const))
        return " + ".join(parts)

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


class StencilLoops:
    """Emit the loop nests of one stencil (all domain boxes).

    ``task_hook(depth_lines, tile_var)`` lets the OpenMP backend wrap the
    outer tile loop body in a task pragma; ``None`` produces plain loops.

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
        it_shape = iteration_shape(stencil, ctx.shapes)
        self.rects = [
            r for r in stencil.domain.resolve(it_shape) if not r.is_empty()
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
        for rect in self.rects:
            lines += self._emit_rect_nest(rect, task_pragma)
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

    def _emit_rect_nest(
        self, rect: ResolvedRect, task_pragma: str | None
    ) -> list[str]:
        nd = rect.ndim
        loopvars = [f"i{d}" for d in range(nd)]
        lines: list[str] = []
        indent = ""

        def add(s: str) -> None:
            lines.append(indent + s)

        # Outermost free (count>1) dimension gets tiled when requested.
        tile_dim = next((d for d in range(nd) if rect.counts[d] > 1), None)
        for d in range(nd):
            lo, st, ct = rect.lows[d], rect.strides[d], rect.counts[d]
            step = st if st > 0 else 1
            hi = lo + st * (ct - 1)
            v = loopvars[d]
            if d == tile_dim and self.tile and ct > self.tile:
                tstep = step * self.tile
                add(
                    f"for (int64_t t{d} = {lo}; t{d} <= {hi}; t{d} += {tstep}) {{"
                )
                indent += "  "
                if task_pragma:
                    add(task_pragma)
                    add("{")
                    indent += "  "
                add(
                    f"const int64_t e{d} = (t{d} + {step * (self.tile - 1)} "
                    f"< {hi}) ? t{d} + {step * (self.tile - 1)} : {hi};"
                )
                if d == nd - 1 and self.unroll:
                    add(f"#pragma GCC unroll {self.unroll}")
                add(f"for (int64_t {v} = t{d}; {v} <= e{d}; {v} += {step}) {{")
                indent += "  "
            else:
                if d == tile_dim and task_pragma:
                    add(task_pragma.replace("%TILEVAR%", v))
                    # untiled task: one task wraps the whole nest
                    add("{")
                    indent += "  "
                    task_pragma = None  # consume
                if d == nd - 1 and self.unroll:
                    add(f"#pragma GCC unroll {self.unroll}")
                add(f"for (int64_t {v} = {lo}; {v} <= {hi}; {v} += {step}) {{")
                indent += "  "
        for s in self._store_stmt(loopvars):
            add(s)
        # close braces
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
        loopvars = [f"i{d}" for d in range(nd)]
        lines: list[str] = []
        indent = ""

        def add(s: str) -> None:
            lines.append(indent + s)

        # leading dims: dense
        for d in range(nd - 1):
            v = loopvars[d]
            if d == 0 and self.tile and (pc.high[0] - pc.base[0] + 1) > self.tile:
                add(
                    f"for (int64_t t0 = {pc.base[0]}; t0 <= {pc.high[0]}; "
                    f"t0 += {self.tile}) {{"
                )
                indent += "  "
                if task_pragma:
                    add(task_pragma)
                    add("{")
                    indent += "  "
                add(
                    f"const int64_t e0 = (t0 + {self.tile - 1} < {pc.high[0]})"
                    f" ? t0 + {self.tile - 1} : {pc.high[0]};"
                )
                add(f"for (int64_t {v} = t0; {v} <= e0; ++{v}) {{")
                indent += "  "
            else:
                if d == 0 and task_pragma:
                    add(task_pragma)
                    add("{")
                    indent += "  "
                add(
                    f"for (int64_t {v} = {pc.base[d]}; {v} <= {pc.high[d]}; "
                    f"++{v}) {{"
                )
                indent += "  "
        # innermost: stride 2 with parity-corrected start
        last = nd - 1
        off_sum = " + ".join(
            f"({loopvars[d]} - {pc.base[d]})" for d in range(nd - 1)
        ) or "0"
        add(
            f"const int64_t s{last} = {pc.base[last]} + "
            f"((({pc.parity} - ({off_sum})) % 2 + 2) % 2);"
        )
        if self.unroll:
            add(f"#pragma GCC unroll {self.unroll}")
        add(
            f"for (int64_t {loopvars[last]} = s{last}; "
            f"{loopvars[last]} <= {pc.high[last]}; {loopvars[last]} += 2) {{"
        )
        indent += "  "
        for s in self._store_stmt(loopvars):
            add(s)
        while indent:
            indent = indent[:-2]
            lines.append(indent + "}")
        return lines


def snapshot_decl(ctx: CodegenContext, stencil: Stencil, name: str) -> list[str]:
    """Allocate + fill a gather-semantics snapshot of the output grid."""
    g = stencil.output
    n = ctx.grid_size(g)
    src = ctx.grid_cname[g]
    return [
        f"{ctx.ctype}* {name} = ({ctx.ctype}*)malloc({n} * sizeof({ctx.ctype}));",
        f"memcpy({name}, {src}, {n} * sizeof({ctx.ctype}));",
    ]
