"""The pass pipeline: folding, CSE, hoisting, FMA grouping, OptReport."""

from repro.bench import paper_operators
from repro.core.domains import RectDomain
from repro.core.expr import GridRead, Param
from repro.core.stencil import Stencil
from repro.kernel.ir import (
    KAdd,
    KConst,
    KDiv,
    KFma,
    KLoad,
    KMul,
    KParam,
    KRef,
    walk,
)
from repro.kernel.lower import body_for, lower_flat
from repro.kernel.optimize import fold_constants, group_fma, optimize_kernel

DOM = RectDomain((1, 1), (-1, -1))


def _load(grid="u", offset=(0, 0)):
    return KLoad(grid, offset, (1, 1))


# -- constant folding ---------------------------------------------------------


def test_fold_pure_constants():
    e, n = fold_constants(KMul(KConst(2.0), KConst(3.0)))
    assert e == KConst(6.0) and n == 1


def test_fold_one_identities():
    e, n = fold_constants(KMul(KConst(1.0), _load()))
    assert e == _load() and n == 1
    e, n = fold_constants(KMul(_load(), KConst(1.0)))
    assert e == _load() and n == 1
    e, n = fold_constants(KDiv(_load(), KConst(1.0)))
    assert e == _load() and n == 1


def test_fold_never_rewrites_zero():
    # 0*x -> 0 and x+0.0 -> x change IEEE semantics (signed zeros, NaN)
    z_mul = KMul(KConst(0.0), _load())
    e, n = fold_constants(z_mul)
    assert e == z_mul and n == 0
    z_add = KAdd(_load(), KConst(0.0))
    e, n = fold_constants(z_add)
    assert e == z_add and n == 0


# -- CSE ----------------------------------------------------------------------


def test_cse_names_repeated_reads():
    # u*u*w: one term reading u twice, which factoring cannot take out
    # (w*u + u would lower to u*(w + 1), one read)
    s = Stencil(
        GridRead("u", (1, 0)) * GridRead("u", (1, 0)) * Param("w"),
        "out",
        DOM,
    )
    body, report = body_for(s, optimize=True)
    assert report.reads_deduped >= 1
    assert report.cse_bound >= 1
    # the repeated load appears exactly once in the optimized body
    occurrences = sum(
        1
        for e in body.exprs()
        for n in walk(e)
        if isinstance(n, KLoad) and n.offset == (1, 0)
    )
    assert occurrences == 1


def test_cse_reduces_vc_gsrb_loads():
    """Acceptance: the variable-coefficient GSRB kernel deduplicates."""
    st = paper_operators(8)["vc_gsrb"]
    raw, _ = body_for(st, optimize=False)
    opt, report = body_for(st, optimize=True)
    assert report.reads_deduped > 0
    assert opt.load_count() < raw.load_count()


# -- hoisting -----------------------------------------------------------------


def test_param_products_are_hoisted_to_depth_zero():
    s = Stencil(
        GridRead("u", (0, 0)) * (Param("w") * Param("w")), "out", DOM
    )
    body, report = body_for(s, optimize=True)
    assert report.bindings_hoisted >= 1
    scalars = body.scalar_lets()
    assert scalars, "expected a loop-invariant scalar binding"
    for let in scalars:
        assert all(
            not isinstance(n, KLoad) for n in walk(let.expr)
        ), "hoisted binding must be load-free"


def test_hoisting_never_moves_loads():
    st = paper_operators(8)["cc_jacobi"]
    body, _ = body_for(st, optimize=True)
    for let in body.scalar_lets():
        assert all(not isinstance(n, KLoad) for n in walk(let.expr))


# -- FMA grouping -------------------------------------------------------------


def test_group_fma_structural():
    e = KAdd(KParam("a"), KMul(KParam("b"), KParam("c")))
    out, n = group_fma(e)
    assert n == 1
    assert out == KFma(KParam("b"), KParam("c"), KParam("a"))


def test_group_fma_prefers_rhs_multiply():
    e = KAdd(KMul(KParam("a"), KParam("b")), KMul(KParam("c"), KParam("d")))
    out, n = group_fma(e)
    assert n == 1
    assert isinstance(out, KFma)
    # rhs multiply becomes the product; lhs stays the addend
    assert out.a == KParam("c") and out.b == KParam("d")


# -- the pipeline and its report ---------------------------------------------


def test_optimize_kernel_report_is_consistent():
    st = paper_operators(8)["cc_jacobi"]
    raw, _ = body_for(st, optimize=False)
    body, report = optimize_kernel(raw)
    assert report.nodes_before == raw.node_count()
    assert report.nodes_after == body.node_count()
    assert report.nodes_after <= report.nodes_before
    d = report.to_dict()
    assert set(d) == {
        "nodes_before",
        "nodes_after",
        "consts_folded",
        "reads_deduped",
        "cse_bound",
        "bindings_hoisted",
        "fma_grouped",
    }
    assert isinstance(report.summary(), str) and report.summary()


def test_optimized_body_keeps_reference_integrity():
    """Every KRef in the optimized body resolves to an earlier binding
    (KernelBody.__init__ would raise otherwise — construct explicitly)."""
    for st in paper_operators(8).values():
        body, _ = body_for(st, optimize=True)
        names = set()
        for let in body.lets:
            for n in walk(let.expr):
                if isinstance(n, KRef):
                    assert n.name in names
            names.add(let.name)
        for n in walk(body.result):
            if isinstance(n, KRef):
                assert n.name in names
