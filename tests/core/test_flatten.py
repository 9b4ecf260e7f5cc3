"""Flattening to the canonical sum-of-products form."""

import pytest

from repro.core.components import Component
from repro.core.expr import Constant, GridRead, Param
from repro.core.flatten import FlatStencil, flatten_expr
from repro.core.weights import SparseArray, WeightArray


def terms_as_dict(flat: FlatStencil):
    """{(params, denom, reads) -> coeff} for easy assertions."""
    return {t.key(): t.coeff for t in flat.terms}


class TestBasics:
    def test_constant(self):
        f = flatten_expr(Constant(3.0), ndim=1)
        assert len(f.terms) == 1
        assert f.terms[0].coeff == 3.0
        assert f.terms[0].reads == ()

    def test_zero_constant_vanishes(self):
        f = flatten_expr(Constant(0.0), ndim=2)
        assert f.terms == ()

    def test_param(self):
        f = flatten_expr(Param("w"), ndim=1)
        assert f.terms[0].params == ("w",)

    def test_grid_read(self):
        f = flatten_expr(GridRead("u", (1,)))
        assert f.ndim == 1
        assert f.terms[0].reads[0].grid == "u"

    def test_ndim_inferred_from_reads(self):
        f = flatten_expr(GridRead("u", (0, 0)) + 1)
        assert f.ndim == 2

    def test_ndim_required_for_scalar_exprs(self):
        with pytest.raises(ValueError):
            flatten_expr(Constant(1.0))

    def test_mixed_ndim_rejected(self):
        with pytest.raises(ValueError):
            flatten_expr(GridRead("u", (0,)) + GridRead("v", (0, 0)))


class TestAlgebra:
    def test_like_terms_merge(self):
        r = GridRead("u", (0,))
        f = flatten_expr(r + r)
        assert len(f.terms) == 1
        assert f.terms[0].coeff == 2.0

    def test_cancellation_drops_term(self):
        r = GridRead("u", (0,))
        f = flatten_expr(r - r)
        assert f.terms == ()

    def test_distribution(self):
        u, v = GridRead("u", (0,)), GridRead("v", (0,))
        f = flatten_expr((u + v) * 2.0)
        d = terms_as_dict(f)
        assert len(d) == 2
        assert all(c == 2.0 for c in d.values())

    def test_product_of_reads(self):
        u, v = GridRead("u", (0,)), GridRead("v", (1,))
        f = flatten_expr(u * v)
        assert f.terms[0].degree() == 2

    def test_neg(self):
        f = flatten_expr(-GridRead("u", (0,)))
        assert f.terms[0].coeff == -1.0

    def test_division_by_constant(self):
        f = flatten_expr(GridRead("u", (0,)) / 4.0)
        assert f.terms[0].coeff == 0.25

    def test_division_by_param(self):
        f = flatten_expr(GridRead("u", (0,)) / Param("d"))
        assert f.terms[0].denom_params == ("d",)

    def test_division_by_grid_rejected(self):
        with pytest.raises(ValueError):
            flatten_expr(Constant(1.0) / GridRead("u", (0,)))

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            flatten_expr(GridRead("u", (0,)) / 0.0)

    def test_division_by_sum_rejected(self):
        with pytest.raises(ValueError):
            flatten_expr(GridRead("u", (0,)) / (Param("a") + Param("b")))

    def test_param_products_keep_multiplicity(self):
        w = Param("w")
        f = flatten_expr(w * w * GridRead("u", (0,)))
        assert f.terms[0].params == ("w", "w")


class TestComponentExpansion:
    def test_numeric_weights(self):
        c = Component("u", WeightArray([1, -2, 1]))
        f = flatten_expr(c)
        d = {t.reads[0].offset: t.coeff for t in f.terms}
        assert d == {(-1,): 1.0, (0,): -2.0, (1,): 1.0}

    def test_scaled_component(self):
        c = Component("fine", {(-1,): 0.5, (0,): 0.5}, scale=2)
        f = flatten_expr(c)
        for t in f.terms:
            assert t.reads[0].scale == (2,)

    def test_expression_weight_is_anchored_at_shifted_point(self):
        # weight at offset +1 reads beta at its own centre -> beta[i+1]
        beta = Component("beta", SparseArray({(0,): 1.0}))
        c = Component("x", SparseArray({(1,): beta}))
        f = flatten_expr(c)
        assert len(f.terms) == 1
        reads = {r.grid: r.offset for r in f.terms[0].reads}
        assert reads == {"x": (1,), "beta": (1,)}

    def test_vc_construction_low_face(self):
        # weight at -1 reading beta's +1 entry -> beta[i] (the low face)
        beta_hi = Component("beta", SparseArray({(1,): 1.0}))
        c = Component("x", SparseArray({(-1,): beta_hi}))
        f = flatten_expr(c)
        reads = {r.grid: r.offset for r in f.terms[0].reads}
        assert reads == {"x": (-1,), "beta": (0,)}

    def test_nested_component_degree(self):
        beta = Component("beta", SparseArray({(0,): 1.0}))
        c = Component("x", SparseArray({(0,): beta}))
        f = flatten_expr(c)
        assert f.terms[0].degree() == 2  # beta * x

    def test_paper_fig4_flattens(self):
        from repro.hpgmg.operators import vc_laplacian

        Ax = vc_laplacian(2, h=0.1)
        b = Component("rhs", SparseArray({(0, 0): 1.0}))
        lam = Component("lam", SparseArray({(0, 0): 1.0}))
        orig = Component("x", SparseArray({(0, 0): 1.0}))
        final = orig + lam * (b - Ax)
        f = flatten_expr(final)
        assert f.grids() == {"x", "rhs", "lam", "beta_0", "beta_1"}
        # lam * beta * x terms are degree 3
        assert max(t.degree() for t in f.terms) == 3


class TestQueries:
    def _flat(self):
        body = Param("w") * GridRead("u", (1, 0)) + GridRead("v", (0, 0)) / Param("d")
        return flatten_expr(body)

    def test_grids(self):
        assert self._flat().grids() == {"u", "v"}

    def test_params(self):
        assert self._flat().params() == {"w", "d"}

    def test_reads_sorted_distinct(self):
        r = GridRead("u", (0,))
        f = flatten_expr(r * r + r)
        assert f.reads() == [r]

    def test_radius(self):
        f = flatten_expr(GridRead("u", (3, 0)) + GridRead("u", (0, -2)))
        assert f.radius() == 3

    def test_signature_stable_and_order_sensitive(self):
        a = flatten_expr(GridRead("u", (0,)) + GridRead("v", (0,)))
        b = flatten_expr(GridRead("u", (0,)) + GridRead("v", (0,)))
        assert a.signature() == b.signature()
        assert a == b and hash(a) == hash(b)

    def test_equality_differs_on_coeff(self):
        a = flatten_expr(2 * GridRead("u", (0,)))
        b = flatten_expr(3 * GridRead("u", (0,)))
        assert a != b
