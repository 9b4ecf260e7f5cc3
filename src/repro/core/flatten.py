"""Flattening: lower arbitrary stencil expressions to canonical form.

Every Snowflake expression — arbitrarily nested components, variable
coefficients, arithmetic — lowers to the *canonical flat form*

    result(i) = sum_k  c_k * (prod params) / (prod params) * prod_j grid_j[S_j * i + O_j]

i.e. a sum of terms, each a scalar coefficient times a product of grid
reads with affine index maps.  This form is the narrow interface between
the platform-agnostic frontend and the per-platform micro-compilers
(paper SectionIV): the analysis engine and every backend consume only
:class:`FlatStencil`, never raw expression trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .components import Component
from .expr import BinOp, Constant, Expr, GridRead, Neg, Param

__all__ = ["FlatTerm", "FlatStencil", "flatten_expr"]


@dataclass(frozen=True)
class FlatTerm:
    """One product term: ``coeff * prod(params) / prod(denom_params) * prod(reads)``."""

    coeff: float
    params: tuple[str, ...]        # sorted, with multiplicity
    denom_params: tuple[str, ...]  # sorted, with multiplicity
    reads: tuple[GridRead, ...]    # sorted by signature, with multiplicity

    def key(self) -> tuple:
        return (self.params, self.denom_params, self.reads)

    def signature(self) -> str:
        bits = [repr(self.coeff)]
        bits += list(self.params)
        if self.denom_params:
            bits.append("/" + "*".join(self.denom_params))
        bits += [r.signature() for r in self.reads]
        return "*".join(bits)

    def degree(self) -> int:
        """Number of grid-read factors (1 = linear stencil term)."""
        return len(self.reads)


def _term(coeff: float = 1.0, params=(), denom=(), reads=()) -> FlatTerm:
    return FlatTerm(
        float(coeff),
        tuple(sorted(params)),
        tuple(sorted(denom)),
        tuple(sorted(reads, key=lambda r: r.signature())),
    )


def _merge(terms: list[FlatTerm]) -> list[FlatTerm]:
    acc: dict[tuple, float] = {}
    order: list[tuple] = []
    reps: dict[tuple, FlatTerm] = {}
    for t in terms:
        k = t.key()
        if k not in acc:
            acc[k] = 0.0
            order.append(k)
            reps[k] = t
        acc[k] += t.coeff
    out = []
    for k in order:
        c = acc[k]
        if c != 0.0:
            r = reps[k]
            out.append(FlatTerm(c, r.params, r.denom_params, r.reads))
    return out


def _mul(a: list[FlatTerm], b: list[FlatTerm]) -> list[FlatTerm]:
    out = []
    for ta in a:
        for tb in b:
            out.append(
                _term(
                    ta.coeff * tb.coeff,
                    ta.params + tb.params,
                    ta.denom_params + tb.denom_params,
                    ta.reads + tb.reads,
                )
            )
    return _merge(out)


def _neg(a: list[FlatTerm]) -> list[FlatTerm]:
    return [FlatTerm(-t.coeff, t.params, t.denom_params, t.reads) for t in a]


def _flatten(expr: Expr, ndim: int | None) -> list[FlatTerm]:
    if isinstance(expr, Constant):
        return [] if expr.value == 0.0 else [_term(expr.value)]
    if isinstance(expr, Param):
        return [_term(1.0, params=(expr.name,))]
    if isinstance(expr, GridRead):
        if ndim is not None and expr.ndim != ndim:
            raise ValueError(
                f"read of {expr.grid!r} is {expr.ndim}-D, expected {ndim}-D"
            )
        return [_term(1.0, reads=(expr,))]
    if isinstance(expr, Component):
        if ndim is not None and expr.ndim != ndim:
            raise ValueError(
                f"component on {expr.grid!r} is {expr.ndim}-D, expected {ndim}-D"
            )
        out: list[FlatTerm] = []
        for off, w in expr.weights:
            read = GridRead(expr.grid, off, expr.scale)
            if isinstance(w, Expr):
                # Weight expression evaluated at the shifted point
                # scale*i + off: compose every read inside it.
                inner = _flatten(w, ndim)
                inner = [
                    FlatTerm(
                        t.coeff,
                        t.params,
                        t.denom_params,
                        tuple(
                            sorted(
                                (r.compose(expr.scale, off) for r in t.reads),
                                key=lambda r: r.signature(),
                            )
                        ),
                    )
                    for t in inner
                ]
            else:
                inner = [_term(float(w))]
            out.extend(_mul(inner, [_term(1.0, reads=(read,))]))
        return _merge(out)
    if isinstance(expr, Neg):
        return _neg(_flatten(expr.operand, ndim))
    if isinstance(expr, BinOp):
        lhs = _flatten(expr.lhs, ndim)
        rhs = _flatten(expr.rhs, ndim)
        if expr.op == "+":
            return _merge(lhs + rhs)
        if expr.op == "-":
            return _merge(lhs + _neg(rhs))
        if expr.op == "*":
            return _mul(lhs, rhs)
        if expr.op == "/":
            if not rhs:
                raise ZeroDivisionError("stencil expression divides by zero")
            if len(rhs) != 1 or rhs[0].reads:
                raise ValueError(
                    "division is only supported by scalar expressions "
                    "(constants and params) — divide-by-grid is not a "
                    "linear stencil operation"
                )
            d = rhs[0]
            if d.coeff == 0.0:
                raise ZeroDivisionError("stencil expression divides by zero")
            return [
                _term(
                    t.coeff / d.coeff,
                    t.params + d.denom_params,
                    t.denom_params + d.params,
                    t.reads,
                )
                for t in lhs
            ]
        raise AssertionError(expr.op)
    raise TypeError(f"cannot flatten {type(expr).__name__}")


class FlatStencil:
    """The canonical lowered form of one stencil body.

    Immutable; provides the queries the analysis and backends need:
    reads grouped by grid, offset radius, traffic estimates, and a stable
    ``signature`` for JIT caching.
    """

    def __init__(self, terms: Sequence[FlatTerm], ndim: int) -> None:
        self.terms: tuple[FlatTerm, ...] = tuple(terms)
        self.ndim = int(ndim)
        for t in self.terms:
            for r in t.reads:
                if r.ndim != self.ndim:
                    raise ValueError("mixed-dimensionality reads")

    # -- queries -------------------------------------------------------------

    def grids(self) -> set[str]:
        return {r.grid for t in self.terms for r in t.reads}

    def params(self) -> set[str]:
        out: set[str] = set()
        for t in self.terms:
            out.update(t.params)
            out.update(t.denom_params)
        return out

    def reads(self) -> list[GridRead]:
        """All distinct reads, sorted."""
        seen = {r for t in self.terms for r in t.reads}
        return sorted(seen, key=lambda r: r.signature())

    def radius(self) -> int:
        """Max Chebyshev offset over unit-scale reads (stencil reach)."""
        r = 0
        for read in self.reads():
            r = max(r, max((abs(o) for o in read.offset), default=0))
        return r

    def signature(self) -> str:
        return f"F{self.ndim}d(" + "+".join(t.signature() for t in self.terms) + ")"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FlatStencil)
            and other.ndim == self.ndim
            and other.terms == self.terms
        )

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:  # pragma: no cover
        return self.signature()


def flatten_expr(expr: Expr, ndim: int | None = None) -> FlatStencil:
    """Lower ``expr`` to :class:`FlatStencil`.

    ``ndim`` may be omitted when the expression contains at least one grid
    read (it is then inferred and cross-checked).
    """
    if ndim is None:
        for node in _iter_reads(expr):
            ndim = node.ndim
            break
        if ndim is None:
            raise ValueError("cannot infer dimensionality of a scalar expression")
    terms = _flatten(expr, ndim)
    return FlatStencil(terms, ndim)


def _iter_reads(expr: Expr):
    from .expr import walk

    for node in walk(expr):
        if isinstance(node, GridRead):
            yield node
        elif isinstance(node, Component):
            yield GridRead(node.grid, (0,) * node.ndim, node.scale)
