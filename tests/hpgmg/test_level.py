"""Level storage, coefficients, norms."""

import numpy as np
import pytest

from repro.hpgmg.level import Level, default_beta


class TestConstruction:
    def test_shapes(self):
        lvl = Level(8, 3)
        assert lvl.shape == (10, 10, 10)
        assert lvl.h == 1 / 8
        assert lvl.dof == 512
        for g in ("x", "rhs", "res", "tmp"):
            assert lvl.grids[g].shape == (10, 10, 10)

    def test_constant_has_no_betas(self):
        lvl = Level(8, 2, coefficients="constant")
        assert "beta_0" not in lvl.grids
        assert "lam" not in lvl.grids

    def test_variable_has_betas_and_lam(self):
        lvl = Level(8, 2, coefficients="variable")
        assert {"beta_0", "beta_1", "lam"} <= set(lvl.grids)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            Level(1, 2)

    def test_bad_coefficients(self):
        with pytest.raises(ValueError):
            Level(8, 2, coefficients="random")

    def test_dtype(self):
        lvl = Level(4, 2, dtype=np.float32)
        assert lvl.grids["x"].dtype == np.float32


class TestCoefficients:
    def test_default_beta_positive(self):
        lvl = Level(16, 3, coefficients="variable")
        for d in range(3):
            assert (lvl.grids[f"beta_{d}"] > 0).all()

    def test_beta_heterogeneous(self):
        lvl = Level(16, 2, coefficients="variable")
        assert lvl.grids["beta_0"].std() > 1e-3

    def test_lam_is_inverse_diagonal(self):
        lvl = Level(8, 2, coefficients="variable")
        h2 = lvl.h * lvl.h
        b0, b1 = lvl.grids["beta_0"], lvl.grids["beta_1"]
        diag = (
            b0[1:-1, 1:-1] + b0[2:, 1:-1] + b1[1:-1, 1:-1] + b1[1:-1, 2:]
        ) / h2
        np.testing.assert_allclose(lvl.grids["lam"][1:-1, 1:-1], 1.0 / diag)

    def test_face_field_offset_half_cell(self):
        lvl = Level(8, 1, coefficients="variable",
                    beta_fn=lambda p: p[..., 0] + 10.0)
        # beta_0[i] sits at coordinate (i-1)*h
        want = (np.arange(10) - 1) * lvl.h + 10.0
        np.testing.assert_allclose(lvl.grids["beta_0"], want)

    def test_custom_beta_fn(self):
        lvl = Level(8, 2, coefficients="variable", beta_fn=lambda p: 0 * p[..., 0] + 3.0)
        assert np.allclose(lvl.grids["beta_0"], 3.0)


class TestViewsAndNorms:
    def test_interior_selector(self):
        lvl = Level(4, 2)
        lvl.grids["x"][...] = 1.0
        assert lvl.interior_of("x").shape == (4, 4)

    def test_zero(self):
        lvl = Level(4, 2)
        lvl.grids["x"][...] = 5.0
        lvl.zero("x")
        assert not lvl.grids["x"].any()

    def test_norms(self):
        lvl = Level(4, 2)
        lvl.grids["res"][lvl.interior] = 2.0
        assert lvl.norm("res", "l2") == pytest.approx(2.0)
        assert lvl.norm("res", "max") == 2.0
        with pytest.raises(ValueError):
            lvl.norm("res", "l7")

    def test_cell_centers(self):
        lvl = Level(4, 1)
        pts = lvl.cell_centers()
        assert pts.shape == (6, 1)
        assert pts[1, 0] == pytest.approx(0.5 * lvl.h)
        assert pts[4, 0] == pytest.approx(1 - 0.5 * lvl.h)
