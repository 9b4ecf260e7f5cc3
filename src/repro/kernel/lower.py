"""Lower :class:`~repro.core.flatten.FlatStencil` to a raw kernel body.

This is the **single** lowering point: every backend obtains its loop
body through :func:`body_for` (cached per stencil instance), so the
scalar expression is lowered — and, when enabled, optimized — exactly
once no matter how many backends compile the stencil.

The flat form distributes every scalar and shared read over its terms
(``λ·(rhs − A x)`` gives one ``λ`` factor per stencil point), so the
lowering emits the sum *factored*, by greedy multivariate Horner
(:func:`lower_flat`), each leaf one :func:`lower_term`.  No stencil gets
more flops per point than its term-by-term sum.  Every backend runs
this one body, so they stay bitwise equal to each other; against the
term-by-term sum only the rounding differs.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from ..core.flatten import FlatStencil, FlatTerm
from .ir import KAdd, KConst, KDiv, KExpr, KLoad, KMul, KParam, KernelBody

if TYPE_CHECKING:  # pragma: no cover
    from ..core.stencil import Stencil

__all__ = ["lower_flat", "lower_term", "body_for"]


def lower_term(term: FlatTerm) -> KExpr:
    """One flat term as a left-associative scalar expression."""
    expr: KExpr = KConst(term.coeff)
    for p in term.params:
        expr = KMul(expr, KParam(p))
    for p in term.denom_params:
        expr = KDiv(expr, KParam(p))
    for read in term.reads:
        expr = KMul(expr, KLoad(read.grid, read.offset, read.scale))
    return expr


def _divide(term: FlatTerm, factor) -> FlatTerm:
    """``term`` with one occurrence of ``factor`` (a param name or a
    grid read) taken out."""
    params, reads = list(term.params), list(term.reads)
    (params if isinstance(factor, str) else reads).remove(factor)
    return FlatTerm(term.coeff, tuple(params), term.denom_params, tuple(reads))


def _term_cost(term: FlatTerm) -> int:
    """Flops per point of :func:`lower_term` once optimized: the scalar
    prefix is hoisted, and a bare ``1.0`` prefix folds away."""
    if not term.reads:
        return 0
    bare = term.coeff == 1.0 and not term.params and not term.denom_params
    return len(term.reads) - bare


def _signature(factor) -> str:
    return f"p:{factor}" if isinstance(factor, str) else factor.signature()


def _horner(terms: list[FlatTerm], params: bool = True):
    """``(expr, flops per point once optimized, reads a grid)`` of a
    non-empty flat sum in greedy multivariate Horner form.

    Pulls out the param or grid read that the most terms share (ties by
    signature, never by hash or set order, so the text is the same in
    every process) and recurses into the group and the rest, until no
    factor is shared by two terms; a group stands where its first term
    stood.  Costs follow :func:`~repro.kernel.optimize.optimize_kernel`:
    load-free subtrees are hoisted, ``1.0 *`` folds (CSE is not
    modelled).  A read pulled out of m >= 2 terms adds one multiply and
    removes one from every term but a bare read, so it never costs more.
    A param's scalar is hoisted anyway, so pulling it out can cost a
    multiply: it is taken only if that costs no more than the fold-left
    sum, and after one refusal the sum pulls reads only.
    """
    if len(terms) == 1:
        return lower_term(terms[0]), _term_cost(terms[0]), bool(terms[0].reads)
    loads = [bool(t.reads) for t in terms]
    # fold-left: an add is per point once either side reads a grid
    budget = sum(map(_term_cost, terms)) + sum(
        any(loads[: k + 1]) for k in range(1, len(terms))
    )
    shared = Counter(f for t in terms for f in {*t.params, *t.reads})
    candidates = [f for f, count in shared.items() if count > 1]
    for factor in sorted(candidates, key=lambda f: (-shared[f], _signature(f))):
        is_param = isinstance(factor, str)
        if is_param and not params:
            continue
        has = [factor in (t.params if is_param else t.reads) for t in terms]
        inner, cost, load = _horner(
            [_divide(t, factor) for t, h in zip(terms, has) if h], params
        )
        expr = KMul(inner, KParam(factor) if is_param else KLoad(
            factor.grid, factor.offset, factor.scale
        ))
        load = load or not is_param
        cost += load
        rest = [t for t, h in zip(terms, has) if not h]
        if rest:
            other, other_cost, other_load = _horner(rest, params)
            expr = KAdd(expr, other) if has[0] else KAdd(other, expr)
            cost += other_cost + (load or other_load)
            load = load or other_load
        if cost <= budget:
            return expr, cost, load
        params = False
    expr = lower_term(terms[0])
    for t in terms[1:]:
        expr = KAdd(expr, lower_term(t))
    return expr, budget, any(loads)


def lower_flat(flat: FlatStencil) -> KernelBody:
    """Lower the canonical flat form to a raw (un-optimized) body."""
    if not flat.terms:
        return KernelBody(flat.ndim, (), KConst(0.0))
    return KernelBody(flat.ndim, (), _horner(list(flat.terms))[0])


def body_for(stencil: "Stencil", optimize: bool | None = None):
    """``(KernelBody, OptReport | None)`` for ``stencil``, cached.

    ``optimize=None`` consults the package-level toggle
    (:func:`repro.kernel.optimization_enabled`).  Both variants are
    cached on the stencil instance, so repeated compiles — and the six
    backends — all share one lowering.  The raw variant carries no
    report.
    """
    if optimize is None:
        from . import optimization_enabled

        optimize = optimization_enabled()
    cache = stencil.__dict__.setdefault("_kernel_bodies", {})
    key = bool(optimize)
    if key not in cache:
        raw = lower_flat(stencil.flat)
        if key:
            from .optimize import optimize_kernel

            cache[key] = optimize_kernel(raw)
        else:
            cache[key] = (raw, None)
    return cache[key]
