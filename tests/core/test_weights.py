"""WeightArray / SparseArray: centering, normalization, queries."""

import pytest

from repro.core.expr import Constant, Param
from repro.core.weights import SparseArray, WeightArray, as_weights


class TestWeightArray1D:
    def test_centering_odd_length(self):
        w = WeightArray([1, -2, 1])
        assert w.entries == {(-1,): 1.0, (0,): -2.0, (1,): 1.0}

    def test_centering_even_length_rounds_down(self):
        # length 2: centre is index 0, so offsets are {0, +1}
        w = WeightArray([3, 4])
        assert w.entries == {(0,): 3.0, (1,): 4.0}

    def test_single_element_is_pure_center(self):
        assert WeightArray([7]).entries == {(0,): 7.0}

    def test_zeros_dropped(self):
        w = WeightArray([0, 1, 0])
        assert w.offsets() == [(0,)]

    def test_ndim(self):
        assert WeightArray([1, 2, 3]).ndim == 1


class TestWeightArray2D:
    def test_paper_3x3(self):
        w = WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]])
        assert w.ndim == 2
        assert w[(0, 0)] == -4.0
        assert w[(-1, 0)] == 1.0
        assert w[(0, -1)] == 1.0
        assert (1, 1) not in w

    def test_shape(self):
        assert WeightArray([[1, 2, 3]]).shape == (1, 3)

    def test_column_vector(self):
        w = WeightArray([[0], [1], [0]])
        assert w.ndim == 2
        assert w.entries == {(0, 0): 1.0}

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            WeightArray([[1, 2], [3]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            WeightArray([[]])

    def test_scalar_rejected(self):
        with pytest.raises(TypeError):
            WeightArray(3.0)


class TestExpressionWeights:
    def test_expr_entries_survive(self):
        p = Param("w")
        w = WeightArray([0, p, 0])
        assert w[(0,)] is p

    def test_constant_zero_expr_dropped(self):
        w = WeightArray([Constant(0.0), 1, 2])
        assert (-1,) not in w

    def test_3d_nesting(self):
        w = WeightArray([[[1]], [[2]], [[3]]])
        assert w.ndim == 3
        assert w[(1, 0, 0)] == 3.0


class TestSparseArray:
    def test_basic(self):
        s = SparseArray({(0, 5): 2.0, (-3, 0): 1.0})
        assert s.ndim == 2
        assert s[(0, 5)] == 2.0

    def test_zero_dropped(self):
        s = SparseArray({(0,): 0.0, (1,): 1.0})
        assert (0,) not in s

    def test_requires_entries(self):
        with pytest.raises(ValueError):
            SparseArray({})

    def test_rejects_mixed_dims(self):
        with pytest.raises(ValueError):
            SparseArray({(0,): 1.0, (0, 0): 1.0})

    def test_rejects_bad_weight_type(self):
        with pytest.raises(TypeError):
            SparseArray({(0,): "x"})

    def test_large_offsets_for_boundaries(self):
        s = SparseArray({(10, 0): -1.0})
        assert s.radius() == 10


class TestQueries:
    def test_radius(self):
        assert WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]).radius() == 1
        assert SparseArray({(2, 0): 1.0}).radius() == 2
        assert SparseArray({(0, 0): 1.0}).radius() == 0

    @staticmethod
    def _point_symmetric(w) -> bool:
        """Every weight equals the one at the mirrored offset."""
        return all(
            w.entries.get(tuple(-c for c in off)) == v
            for off, v in w.entries.items()
        )

    def test_symmetric(self):
        # a dense array is centred, so [1, -2, 1] sits at offsets -1, 0, 1
        assert self._point_symmetric(WeightArray([1, -2, 1]))
        assert not self._point_symmetric(WeightArray([1, -2, 0.5]))

    def test_asymmetric_boundary_stencil(self):
        assert not self._point_symmetric(SparseArray({(1,): -1.0}))

    def test_equality_across_types(self):
        w = WeightArray([1, -2, 1])
        s = SparseArray({(-1,): 1.0, (0,): -2.0, (1,): 1.0})
        assert w == s
        assert hash(w) == hash(s)

    def test_len_and_iter(self):
        w = WeightArray([1, 0, 2])
        assert len(w) == 2
        assert dict(iter(w)) == {(-1,): 1.0, (1,): 2.0}

    def test_signature_stable(self):
        a = WeightArray([1, -2, 1]).signature()
        b = WeightArray([1, -2, 1]).signature()
        assert a == b


class TestAsWeights:
    def test_list(self):
        assert as_weights([1, 2, 3]).ndim == 1

    def test_dict(self):
        assert as_weights({(0, 0): 1.0}).ndim == 2

    def test_scalar_needs_ndim(self):
        with pytest.raises(ValueError):
            as_weights(1.0)
        w = as_weights(1.0, ndim=3)
        assert w.entries == {(0, 0, 0): 1.0}

    def test_passthrough(self):
        w = WeightArray([1])
        assert as_weights(w) is w

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            as_weights(object())
