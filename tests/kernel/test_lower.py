"""Lowering: FlatStencil -> raw KernelBody, bit-compatible with legacy order."""

import pytest

from repro.core.domains import RectDomain
from repro.core.expr import Constant, GridRead, Param
from repro.core.stencil import Stencil
from repro.kernel import no_optimization, optimization_enabled
from repro.kernel.ir import KAdd, KConst, KDiv, KLoad, KMul, KParam
from repro.kernel.lower import body_for, lower_flat, lower_term

DOM = RectDomain((1, 1), (-1, -1))


def test_lower_term_reproduces_legacy_order():
    # w * u[i] / w2 -> ((1.0 * w) / w2) * u : coeff, params, denoms, loads
    s = Stencil(
        Param("w") * GridRead("u", (0, 0)) / Param("w2"), "out", DOM
    )
    (term,) = s.flat.terms
    e = lower_term(term)
    assert isinstance(e, KMul)
    assert isinstance(e.rhs, KLoad) and e.rhs.grid == "u"
    assert isinstance(e.lhs, KDiv)
    assert e.lhs.rhs == KParam("w2")
    assert e.lhs.lhs == KMul(KConst(1.0), KParam("w"))


def test_lower_flat_folds_terms_left():
    s = Stencil(
        GridRead("u", (0, 0)) + GridRead("v", (0, 0)) + Constant(3.0),
        "out",
        DOM,
    )
    body = lower_flat(s.flat)
    assert body.lets == ()  # raw lowering introduces no bindings
    # fold-left sum with no leading 0.0: ((t0 + t1) + t2)
    assert isinstance(body.result, KAdd)
    assert isinstance(body.result.lhs, KAdd)
    assert not isinstance(body.result.lhs.lhs, KAdd)


def test_lower_flat_empty_body_is_zero():
    s = Stencil(Constant(0.0) * GridRead("u", (0, 0)), "out", DOM)
    if s.flat.terms:  # zero-coeff terms may survive flattening
        pytest.skip("flatten kept the zero term")
    body = lower_flat(s.flat)
    assert body.result == KConst(0.0)


def test_body_for_caches_both_variants():
    s = Stencil(GridRead("u", (0, 0)) * Param("w"), "out", DOM)
    opt1, rep1 = body_for(s, optimize=True)
    opt2, rep2 = body_for(s, optimize=True)
    raw1, raw_rep = body_for(s, optimize=False)
    assert opt1 is opt2 and rep1 is rep2
    assert raw1 is body_for(s, optimize=False)[0]
    assert raw_rep is None  # raw variant carries no report
    assert rep1 is not None


def test_body_for_follows_package_toggle():
    # w*u[1,0] + u[1,0]: distinct terms flatten can't merge, so the
    # repeated read survives to lowering and only CSE can name it
    s = Stencil(
        Param("w") * GridRead("u", (1, 0)) + GridRead("u", (1, 0)),
        "out",
        DOM,
    )
    assert optimization_enabled()
    body_on, rep_on = body_for(s)  # optimize=None -> toggle (on)
    with no_optimization():
        assert not optimization_enabled()
        body_off, rep_off = body_for(s)
    assert optimization_enabled()
    assert rep_on is not None and rep_off is None
    # CSE named the repeated read only on the optimized variant
    assert body_on.lets and not body_off.lets
