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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_lam_is_bitwise_the_full_grid_formula(self, ndim, dtype):
        """``lam`` accumulated in place equals, bit for bit, the formula
        over a full ``diag`` grid and a ``lo + hi`` temporary per
        dimension, written out here as the oracle."""
        lvl = Level(33, ndim, coefficients="variable",
                    dtype=dtype)
        inner = tuple(slice(1, -1) for _ in range(ndim))
        diag = np.zeros(lvl.shape, dtype=lvl.dtype)
        for d in range(ndim):
            beta = lvl.grids[f"beta_{d}"]
            hi = tuple(slice(2, None) if k == d else slice(1, -1)
                       for k in range(ndim))
            diag[inner] += beta[inner] + beta[hi]
        diag[inner] /= lvl.h * lvl.h
        want = np.ones(lvl.shape, dtype=lvl.dtype)
        want[inner] = 1.0 / diag[inner]
        got = lvl.grids["lam"]
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_face_field_offset_half_cell(self):
        lvl = Level(8, 1, coefficients="variable",
                    beta_fn=lambda x: x + 10.0)
        # beta_0[i] sits at coordinate (i-1)*h
        want = (np.arange(10) - 1) * lvl.h + 10.0
        np.testing.assert_allclose(lvl.grids["beta_0"], want)

    def test_custom_beta_fn(self):
        lvl = Level(8, 2, coefficients="variable", beta_fn=lambda x, y: 0 * x + 3.0)
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
        (pts,) = lvl.cell_centers()
        assert pts.shape == (6,)
        assert pts[1] == pytest.approx(0.5 * lvl.h)
        assert pts[4] == pytest.approx(1 - 0.5 * lvl.h)

    def test_cell_centers_are_open_grid_axes(self):
        x, y, z = Level(4, 3).cell_centers()
        assert (x.shape, y.shape, z.shape) == ((6, 1, 1), (1, 6, 1), (1, 1, 6))


def _point_cloud(lvl: Level) -> np.ndarray:
    """Every cell's coordinates, shape ``(*shape, ndim)``: the
    materialized form of the open-grid axes, kept here as the oracle."""
    axes = [(np.arange(lvl.n + 2) - 0.5) * lvl.h for _ in range(lvl.ndim)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _cloud_default_beta(points: np.ndarray) -> np.ndarray:
    acc = np.ones(points.shape[:-1])
    for d in range(points.shape[-1]):
        acc = acc + 0.25 * np.sin(2.0 * np.pi * points[..., d] + 0.5 * d)
    return acc


#: (open-grid beta_fn, the same field over a point cloud)
BETAS = {
    "default": (None, _cloud_default_beta),
    "nonseparable": (
        lambda *c: c[0] * c[-1] + 1.0,
        lambda p: p[..., 0] * p[..., -1] + 1.0,
    ),
}


class TestOpenGridIsThePointCloud:
    """Coefficient fields and the manufactured solution, evaluated on
    open-grid axes, are bitwise what the point-cloud formulas give."""

    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [2, 8, 33])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_every_grid_bitwise(self, ndim, n, dtype, beta):
        fn, cloud_fn = BETAS[beta]
        lvl = Level(n, ndim, coefficients="variable", beta_fn=fn, dtype=dtype)
        ref = Level(n, ndim, coefficients="variable", beta_fn=lambda *c: 1.0,
                    dtype=dtype)
        for d in range(ndim):
            pts = _point_cloud(ref)
            pts[..., d] -= 0.5 * ref.h
            ref.grids[f"beta_{d}"] = np.ascontiguousarray(
                cloud_fn(pts).astype(ref.dtype)
            )
        ref.grids["lam"] = ref._inverse_diagonal()
        assert lvl.grids.keys() == ref.grids.keys()
        for g, want in ref.grids.items():
            got = lvl.grids[g]
            assert got.dtype == want.dtype and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes(), g

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_smooth_u_exact_bitwise(self, ndim, dtype):
        from repro.hpgmg.problem import smooth_u_exact

        lvl = Level(8, ndim, dtype=dtype)
        pts = _point_cloud(lvl)
        u = np.ones(lvl.shape, dtype=dtype)
        for d in range(ndim):
            u *= np.sin(np.pi * pts[..., d])
        want = np.zeros_like(u)
        want[lvl.interior] = u[lvl.interior]
        assert smooth_u_exact(lvl).tobytes() == want.tobytes()

    def test_scalar_beta_broadcasts(self):
        lvl = Level(4, 3, coefficients="variable", beta_fn=lambda *c: 2.0)
        assert lvl.grids["beta_2"].shape == (6, 6, 6)
        assert (lvl.grids["beta_2"] == 2.0).all()

    def test_non_broadcastable_beta_is_refused(self):
        with pytest.raises(ValueError, match="does not broadcast"):
            Level(4, 2, coefficients="variable",
                  beta_fn=lambda x, y: np.ones((3, 3)))
