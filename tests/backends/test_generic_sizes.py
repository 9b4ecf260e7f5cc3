"""Size-generic C emitter: one artifact, many shapes, bitwise results.

The C family reads every grid extent from the kernel's ``dims``
argument, so the same translation unit serves every shape whose
schedule renders the same text.  Each case below runs on ``c`` and
``openmp`` at two non-cubic, non-power-of-two shapes (one
``CompiledKernel`` per shape), checks every output bitwise against the
python reference, and checks that all of them were served by a single
compiler run.
"""

import shutil

import numpy as np
import pytest

from repro import telemetry
from repro.backends import jit
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.expr import GridRead, Param
from repro.core.stencil import OutputMap, Stencil, StencilGroup
from repro.core.weights import SparseArray
from repro.hpgmg.operators import (
    boundary_stencils,
    interpolation_linear_group,
    jacobi_stencil,
    restriction_stencil,
    smooth_group,
    vc_laplacian,
)

pytestmark = pytest.mark.skipif(
    shutil.which("gcc") is None, reason="requires a C toolchain"
)

LAP3 = Component("x", SparseArray({
    (0, 0, 0): -6.0, (1, 0, 0): 1.0, (-1, 0, 0): 1.0,
    (0, 1, 0): 1.0, (0, -1, 0): 1.0, (0, 0, 1): 1.0, (0, 0, -1): 1.0,
}))


def _same(shape):
    return lambda group: {g: shape for g in group.grids()}


def _pair(fine, coarse, *, fine_names):
    """Shapes for a two-level group: the named grids live on the fine
    level, every other grid on the coarse one."""
    def shapes(group):
        return {
            g: fine if g in fine_names else coarse for g in group.grids()
        }
    return shapes


def _coarse_of(fine):
    return tuple((n - 2) // 2 + 2 for n in fine)


def gsrb_vc():
    """The solver's smoother: boundaries + the GSRB parity nest, with
    ``1/h²`` as a runtime param."""
    Ax = vc_laplacian(3, 1.0, inv_h2=Param("inv_h2"))
    return smooth_group(3, Ax, lam="lam"), {"inv_h2": 37.0}


def jacobi_in_place():
    """A hazardous in-place stencil: read through a snapshot."""
    st = jacobi_stencil(3, LAP3, grid="x", out="x", lam=Param("lam"))
    return StencilGroup([st], name="jacobi_in_place"), {"lam": 0.125}


def fused_chain_2d():
    """Two independent same-domain stencils, fused into one nest."""
    interior = RectDomain((1, 1), (-1, -1))
    lap = Component("u", SparseArray({
        (0, 0): -4.0, (1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0,
    }))
    a = Stencil(lap, "p", interior, name="lap_p")
    b = Stencil(Param("w") * GridRead("u", (1, -1)), "q", interior,
                name="shift_q")
    return StencilGroup([a, b], name="fused_chain"), {"w": 0.5}


def strided_2d():
    """Strided, pinned and far-anchored boxes and a scaled write with no
    iteration grid (the ``ceil((n - o) / s)`` extent)."""
    body = GridRead("u", (0, 0)) * 2.0 + GridRead("u", (0, 1))
    return StencilGroup([
        Stencil(body, "p", RectDomain((1, -4), (-1, -1), (2, 1)),
                name="strided"),
        Stencil(GridRead("u", (0, 0)), "p", RectDomain((-2, 1), (-1, -1),
                (0, 1)), name="pinned"),
        Stencil(GridRead("u", (1, 0), (2, 2)) + 1.0, "q",
                RectDomain((0, 0), (-1, -1)), output_map=OutputMap((2, 2),
                (1, 0)), name="scaled_write"),
    ], name="strided"), {}


def restrict3():
    return (
        StencilGroup([restriction_stencil(3)], name="restrict"), {}
    )


def interp3():
    group = StencilGroup(
        boundary_stencils(3, "coarse_x")
        + list(interpolation_linear_group(3, add=True)),
        name="interp",
    )
    return group, {}


S3 = [(7, 10, 13), (9, 8, 11)]
S2 = [(9, 6), (11, 9)]
F3 = [(8, 10, 12), (12, 8, 14)]  # fine = 2n + 2 around coarse n + 2

#: (id, case, shape makers, schedule options, applications per call)
CASES = [
    ("gsrb", gsrb_vc, [_same(s) for s in S3], {}, 1),
    ("gsrb-tile3", gsrb_vc, [_same(s) for s in S3], {"tile": 3}, 1),
    ("gsrb-time3", gsrb_vc, [_same(s) for s in S3], {"time_tile": 3}, 3),
    ("snapshot", jacobi_in_place, [_same(s) for s in S3], {"tile": 3}, 1),
    ("fused-2d", fused_chain_2d, [_same(s) for s in S2],
     {"fuse": True, "tile": 3}, 1),
    ("strided-2d", strided_2d, [_same(s) for s in S2], {}, 1),
    ("restrict", restrict3,
     [_pair(f, _coarse_of(f), fine_names=("res",)) for f in F3], {}, 1),
    ("interp", interp3,
     [_pair(f, _coarse_of(f), fine_names=("x",)) for f in F3], {}, 1),
]


def _arrays(group, shapes, seed):
    rng = np.random.default_rng(seed)
    out = {g: rng.standard_normal(shapes[g]) for g in sorted(group.grids())}
    if "lam" in out:  # keep the 1/diag surrogate well-conditioned
        out["lam"] = np.abs(out["lam"]) * 0.01 + 0.01
    return out


def _run(group, shapes, arrays, params, backend, times, **options):
    work = {g: a.copy() for g, a in arrays.items()}
    kernel = group.compile(
        backend=backend, shapes=shapes, dtype=np.float64, **options
    )
    for _ in range(times):
        kernel(**work, **params)
    return work


@pytest.fixture
def private_jit(monkeypatch, tmp_path):
    """An empty JIT cache, on disk and in process, and counters on."""
    monkeypatch.setenv("SNOWFLAKE_CACHE_DIR", str(tmp_path / "jit"))
    monkeypatch.setenv("SNOWFLAKE_CC", "gcc")
    monkeypatch.setattr(jit, "_loaded", {})
    monkeypatch.setattr(jit, "_tag_locks", {})
    telemetry.set_mode("counters")
    yield lambda: telemetry.snapshot()["counters"].get("jit.cache.miss", 0)
    telemetry.set_mode(None)


@pytest.mark.parametrize("backend", ["c", "openmp"])
@pytest.mark.parametrize(
    "make, shape_makers, options, times",
    [c[1:] for c in CASES], ids=[c[0] for c in CASES],
)
def test_bitwise_at_every_shape_from_one_artifact(
    private_jit, backend, make, shape_makers, options, times
):
    group, params = make()
    misses = private_jit()
    for seed, shapes_of in enumerate(shape_makers):
        shapes = shapes_of(group)
        arrays = _arrays(group, shapes, seed)
        ref = _run(group, shapes, arrays, params, "python", times)
        got = _run(group, shapes, arrays, params, backend, 1, **options)
        for g in ref:
            np.testing.assert_array_equal(
                got[g], ref[g], err_msg=f"{backend} at {shapes[g]}: {g}"
            )
    assert private_jit() - misses == 1


def test_a_different_decision_is_a_different_artifact(private_jit):
    """A loop too short to tile renders different text: the emitter
    decides per shape, and only identical text shares a ``.so``."""
    group, params = jacobi_in_place()
    misses = private_jit()
    for n in (3, 7):  # interior 3 (not tiled) vs 7 (tiled by 3)
        shapes = {g: (n + 2,) * 3 for g in group.grids()}
        arrays = _arrays(group, shapes, n)
        ref = _run(group, shapes, arrays, params, "python", 1)
        got = _run(group, shapes, arrays, params, "c", 1, tile=3)
        np.testing.assert_array_equal(got["x"], ref["x"])
    assert private_jit() - misses == 2
