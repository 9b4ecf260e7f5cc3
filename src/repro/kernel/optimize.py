"""The kernel pass pipeline: fold → CSE → hoist → FMA, with a report.

Every pass is **bitwise semantics preserving** on IEEE doubles, which
is what lets the compiled backends keep agreeing bit-for-bit with the
reference interpreter on the optimized body:

* *constant folding* evaluates pure-constant subtrees with Python
  floats — the same IEEE-754 double operations the C compiler would
  perform at runtime — and strips exact identities (``1.0 * x``,
  ``x / 1.0``).  The unsafe algebraic folds are deliberately absent:
  ``0 * x -> 0`` would swallow NaN/Inf propagation and ``x + 0.0 -> x``
  changes ``-0.0 + 0.0``;
* *CSE* only names repeated subexpressions (most importantly repeated
  grid reads — the shared ``beta`` faces of the variable-coefficient
  operators) — every operation still executes exactly once per use
  site's value;
* *hoisting* moves load-free subexpressions to depth 0 (the scalar
  prelude outside the loop nest) — the same operations on the same
  operands, computed once per sweep instead of once per point;
* *FMA grouping* rewrites ``x + a*b`` into a structural
  :class:`~repro.kernel.ir.KFma` that every backend renders as a
  separately-rounded multiply-then-add (never a fused hardware FMA).

:func:`optimize_kernel` tallies what each pass did into an
:class:`OptReport`, surfaced by ``repro explain`` next to the schedule
evidence.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterator

from .ir import (
    KAdd,
    KConst,
    KDiv,
    KExpr,
    KFma,
    KLet,
    KLoad,
    KMul,
    KRef,
    KernelBody,
    walk,
)

__all__ = ["OptReport", "optimize_kernel", "fold_constants", "group_fma"]

#: node types CSE may bind (leaves that cost nothing stay inline).
_CSE_CANDIDATES = (KLoad, KAdd, KMul, KDiv, KFma)


@dataclass(frozen=True)
class OptReport:
    """What the pass pipeline did to one kernel body."""

    nodes_before: int
    nodes_after: int
    consts_folded: int
    reads_deduped: int   # repeated-load occurrences replaced by a ref
    cse_bound: int       # let-bindings introduced by CSE
    bindings_hoisted: int  # depth-0 bindings (evaluated once per sweep)
    fma_grouped: int

    def to_dict(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        return (
            f"nodes {self.nodes_before}->{self.nodes_after}, "
            f"{self.consts_folded} folded, "
            f"{self.reads_deduped} reads deduped, "
            f"{self.cse_bound} cse-bound, "
            f"{self.bindings_hoisted} hoisted, "
            f"{self.fma_grouped} fma-grouped"
        )


def _rebuild(node: KExpr, kids: list[KExpr]) -> KExpr:
    if isinstance(node, (KAdd, KMul, KDiv)):
        return type(node)(kids[0], kids[1])
    if isinstance(node, KFma):
        return KFma(kids[0], kids[1], kids[2])
    return node  # leaves carry no children


# ---------------------------------------------------------------------------
# constant folding
# ---------------------------------------------------------------------------


def fold_constants(expr: KExpr) -> tuple[KExpr, int]:
    """Fold pure-constant subtrees and exact multiplicative identities."""
    n = [0]

    def go(e: KExpr) -> KExpr:
        e = _rebuild(e, [go(c) for c in e.children()])
        if isinstance(e, (KAdd, KMul, KDiv)) and (
            isinstance(e.lhs, KConst) and isinstance(e.rhs, KConst)
        ):
            a, b = e.lhs.value, e.rhs.value
            if isinstance(e, KAdd):
                n[0] += 1
                return KConst(a + b)
            if isinstance(e, KMul):
                n[0] += 1
                return KConst(a * b)
            if b != 0.0:  # keep a div-by-zero for runtime to raise
                n[0] += 1
                return KConst(a / b)
            return e
        if isinstance(e, KMul):
            # 1.0 * x and x * 1.0 are exact for every x (incl. NaN/±0).
            if isinstance(e.lhs, KConst) and e.lhs.value == 1.0:
                n[0] += 1
                return e.rhs
            if isinstance(e.rhs, KConst) and e.rhs.value == 1.0:
                n[0] += 1
                return e.lhs
        if isinstance(e, KDiv) and (
            isinstance(e.rhs, KConst) and e.rhs.value == 1.0
        ):
            n[0] += 1
            return e.lhs
        return e

    return go(expr), n[0]


# ---------------------------------------------------------------------------
# CSE
# ---------------------------------------------------------------------------


def _names(prefix: str, taken: set[str]) -> Iterator[str]:
    i = 0
    while True:
        name = f"{prefix}{i}"
        i += 1
        if name not in taken:
            yield name


def _cse(body: KernelBody) -> tuple[KernelBody, int, int]:
    """Bind every subexpression that occurs twice or more.

    Returns ``(body, reads_deduped, cse_bound)``.  New bindings are
    placed in first-completion (post-)order, so dependencies always
    precede their uses; a binding's depth is ``ndim`` when its value
    touches a grid load, else ``0``.
    """
    counts: dict[str, int] = {}
    load_occurrences: dict[str, int] = {}

    def tally(e: KExpr) -> None:
        for node in walk(e):
            if isinstance(node, _CSE_CANDIDATES):
                sig = node.signature()
                counts[sig] = counts.get(sig, 0) + 1
                if isinstance(node, KLoad):
                    load_occurrences[sig] = counts[sig]

    for e in body.exprs():
        tally(e)

    taken = {l.name for l in body.lets}
    fresh = _names("t", taken)
    bound: dict[str, tuple[str, bool]] = {}  # sig -> (name, has_load)
    loady_lets = {l.name for l in body.lets if l.depth > 0}
    new_lets: list[KLet] = []

    def rewrite(e: KExpr) -> tuple[KExpr, bool]:
        hit = bound.get(e.signature())
        if hit is not None:
            return KRef(hit[0]), hit[1]
        pairs = [rewrite(c) for c in e.children()]
        has_load = isinstance(e, KLoad) or any(h for _, h in pairs)
        if isinstance(e, KRef) and e.name in loady_lets:
            has_load = True
        out = _rebuild(e, [p for p, _ in pairs])
        if isinstance(e, _CSE_CANDIDATES) and counts[e.signature()] >= 2:
            name = next(fresh)
            depth = body.ndim if has_load else 0
            new_lets.append(KLet(name, out, depth))
            if has_load:
                loady_lets.add(name)
            bound[e.signature()] = (name, has_load)
            return KRef(name), has_load
        return out, has_load

    lets: list[KLet] = []
    for let in body.lets:
        expr, _ = rewrite(let.expr)
        lets.extend(new_lets)
        new_lets.clear()
        lets.append(KLet(let.name, expr, let.depth))
    result, _ = rewrite(body.result)
    lets.extend(new_lets)

    deduped = sum(c - 1 for c in load_occurrences.values() if c >= 2)
    return KernelBody(body.ndim, lets, result), deduped, len(
        [l for l in lets if l.name.startswith("t")]
    )


# ---------------------------------------------------------------------------
# loop-invariant hoisting
# ---------------------------------------------------------------------------


def _hoist(body: KernelBody) -> KernelBody:
    """Extract maximal load-free compound subtrees into depth-0 lets.

    CSE already gave depth 0 to *repeated* scalar subexpressions; this
    pass catches the single-occurrence ones — e.g. each term's
    ``coeff * params / denoms`` scalar prefix — so the innermost loop
    performs no parameter arithmetic at all.
    """
    scalar_names = {l.name for l in body.lets if l.depth == 0}
    taken = {l.name for l in body.lets}
    fresh = _names("s", taken)
    new_scalars: list[KLet] = []
    memo: dict[str, str] = {}

    def is_invariant(e: KExpr) -> bool:
        for node in walk(e):
            if isinstance(node, KLoad):
                return False
            if isinstance(node, KRef) and node.name not in scalar_names:
                return False
        return True

    def extract(e: KExpr) -> KExpr:
        if not e.children():
            return e
        if is_invariant(e):
            sig = e.signature()
            if sig not in memo:
                name = next(fresh)
                memo[sig] = name
                new_scalars.append(KLet(name, e, 0))
                scalar_names.add(name)
            return KRef(memo[sig])
        return _rebuild(e, [extract(c) for c in e.children()])

    inner = [
        KLet(l.name, extract(l.expr), l.depth)
        for l in body.lets
        if l.depth > 0
    ]
    result = extract(body.result)
    lets = (
        [l for l in body.lets if l.depth == 0] + new_scalars + inner
    )
    return KernelBody(body.ndim, lets, result)


# ---------------------------------------------------------------------------
# FMA grouping
# ---------------------------------------------------------------------------


def group_fma(expr: KExpr) -> tuple[KExpr, int]:
    """Rewrite ``x + a*b`` / ``a*b + x`` into structural FMA nodes."""
    n = [0]

    def go(e: KExpr) -> KExpr:
        e = _rebuild(e, [go(c) for c in e.children()])
        if isinstance(e, KAdd):
            if isinstance(e.rhs, KMul):
                n[0] += 1
                return KFma(e.rhs.lhs, e.rhs.rhs, e.lhs)
            if isinstance(e.lhs, KMul):
                n[0] += 1
                return KFma(e.lhs.lhs, e.lhs.rhs, e.rhs)
        return e

    return go(expr), n[0]


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


def _map_counted(body: KernelBody, rewrite) -> tuple[KernelBody, int]:
    """Apply a counting expression rewrite to every binding and the result."""
    n = 0

    def go(e: KExpr) -> KExpr:
        nonlocal n
        out, k = rewrite(e)
        n += k
        return out

    return body.map_exprs(go), n


def optimize_kernel(raw: KernelBody) -> tuple[KernelBody, OptReport]:
    """Run fold → CSE → hoist → FMA on a raw body; returns (body, report)."""
    body, folded = _map_counted(raw, fold_constants)
    body, deduped, bound = _cse(body)
    body = _hoist(body)
    # FMA grouping never adds or removes lets, so the hoisted body's
    # scalar prelude is the final one.
    hoisted = len(body.scalar_lets())
    body, fmas = _map_counted(body, group_fma)
    report = OptReport(
        nodes_before=raw.node_count(),
        nodes_after=body.node_count(),
        consts_folded=folded,
        reads_deduped=deduped,
        cse_bound=bound,
        bindings_hoisted=hoisted,
        fma_grouped=fmas,
    )
    return body, report
