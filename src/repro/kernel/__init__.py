"""Kernel expression IR: one optimized loop body, lowered once.

Before this package existed every backend re-lowered the scalar loop
body on its own: the C emitter, the two GPU code generators and both
interpreters each walked :class:`~repro.core.flatten.FlatStencil`
term by term, re-indexing and re-loading repeated grid reads, folding
nothing.  The kernel IR centralizes that work (the single-lowering
thesis of StencilFlow, and the shared-subterm optimization argument of
Orchard & Mycroft):

* :mod:`repro.kernel.ir` — scalar expression nodes (:class:`KLoad`
  with affine index maps, :class:`KParam`, :class:`KConst`, add/mul/
  div/fma) and :class:`KernelBody`, a sequence of let-bindings tagged
  with the loop depth at which each is invariant, plus a result
  expression;
* :mod:`repro.kernel.lower` — lowers a ``FlatStencil`` to a raw
  ``KernelBody`` **once per stencil** (cached), bit-compatible with the
  historical term-by-term emission order;
* :mod:`repro.kernel.optimize` — the pass pipeline (constant folding,
  CSE of repeated grid reads and shared subexpressions, loop-invariant
  hoisting, FMA grouping), every rewrite tallied in an
  :class:`OptReport`;
* :mod:`repro.kernel.eval` — the interpreters (per-point for the
  python reference, per-rect vectorized for numpy);
* :mod:`repro.kernel.cost` — the analytic per-point flops/bytes model
  (compulsory-traffic convention of paper SectionV-B).

Every pass is *bitwise semantics preserving* on IEEE doubles: constant
folding computes the same operations at lower time, CSE only names
subexpressions, hoisting only moves invariant work, and FMA grouping
is structural (``a*b + c`` stays a separate multiply and add — no
hardware contraction).  The C/OpenMP/OpenCL-sim/CUDA-sim backends
therefore agree bit-for-bit with the python reference on the same
optimized body.

Optimization is always on; :func:`no_optimization` is the one
raw-vs-optimised switch, a context manager the equivalence tests use
to compare both paths.
"""

from __future__ import annotations

from contextlib import contextmanager

from .cost import KernelCost, SweptCost, kernel_cost, swept_cost
from .eval import eval_point, eval_rect, eval_scalar_lets
from .ir import (
    KAdd,
    KConst,
    KDiv,
    KExpr,
    KFma,
    KLet,
    KLoad,
    KMul,
    KParam,
    KRef,
    KernelBody,
)
from .lower import body_for, lower_flat
from .optimize import OptReport, optimize_kernel

__all__ = [
    "KExpr",
    "KConst",
    "KParam",
    "KLoad",
    "KRef",
    "KAdd",
    "KMul",
    "KDiv",
    "KFma",
    "KLet",
    "KernelBody",
    "lower_flat",
    "body_for",
    "optimize_kernel",
    "OptReport",
    "KernelCost",
    "SweptCost",
    "kernel_cost",
    "swept_cost",
    "eval_point",
    "eval_rect",
    "eval_scalar_lets",
    "optimization_enabled",
    "no_optimization",
]

_OPT_ENABLED = True


def optimization_enabled() -> bool:
    """Is the kernel pass pipeline applied (not inside :func:`no_optimization`)?"""
    return _OPT_ENABLED


@contextmanager
def no_optimization():
    """Temporarily lower raw (unoptimized) kernel bodies everywhere.

    Compiled-backend sources differ between the two modes, so the JIT
    cache keys them apart automatically; interpreters consult the flag
    on every application.
    """
    global _OPT_ENABLED
    prev = _OPT_ENABLED
    _OPT_ENABLED = False
    try:
        yield
    finally:
        _OPT_ENABLED = prev
