"""Sequential C backend: codegen structure, options."""

import re

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.codegen_c import CodegenContext, ctype_for
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import Stencil, StencilGroup
from repro.core.weights import SparseArray, WeightArray
from repro.hpgmg.operators import red_black_domains
from repro.schedule import ScheduleOptions, detect_parity_class

INTERIOR = RectDomain((1, 1), (-1, -1))
LAP = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))


def group_of(*stencils):
    return StencilGroup(stencils)


class TestSourceGeneration:
    def test_signature_and_prologue(self):
        g = group_of(Stencil(LAP, "out", INTERIOR))
        src = get_backend("c").generate(g, {"u": (8, 8), "out": (8, 8)}, np.float64)
        assert (
            "void sf_kernel(double** grids, const double* params, "
            "const int64_t* dims)" in src
        )
        # the grids are restrict *parameters* of the body (gcc ignores
        # restrict on locals loaded from grids[])
        assert (
            "static void sf_kernel_body(double* restrict g_out, "
            "double* restrict g_u, const double* params, "
            "const int64_t* dims)" in src
        )
        assert "sf_kernel_body(grids[0], grids[1], params, dims);" in src
        # equal shapes share one set of extents, read from dims
        assert "const int64_t n0_0 = dims[0], n0_1 = dims[1];" in src
        assert "n1_0" not in src

    def test_sizes_read_at_run_time(self):
        """No extent or stride of the grids appears in the source, and
        the artifact is the same one at 16^3 and 32^3."""
        from repro import get_backend

        g = group_of(Stencil(LAP, "out", INTERIOR))
        src = get_backend("c").generate(g, {"u": (8, 16), "out": (8, 16)}, np.float64)
        assert not re.search(r"\b(6|7|8|14|15|16)\b", src)
        assert "i0*s0_0" in src  # row stride, from dims
        lap3 = Component("u", SparseArray({(0, 0, 0): -6.0, (1, 0, 0): 1.0}))
        st = Stencil(lap3, "out", RectDomain((1,) * 3, (-1,) * 3))
        info = [
            get_backend(b).artifact_info(
                group_of(st), {"u": (n,) * 3, "out": (n,) * 3}
            )
            for b in ("c", "openmp")
            for n in (18, 34)
        ]
        assert info[0]["cache_key"] == info[1]["cache_key"]
        assert info[2]["cache_key"] == info[3]["cache_key"]
        assert info[0]["cache_key"] != info[2]["cache_key"]

    def test_float32_ctype(self):
        g = group_of(Stencil(LAP, "out", INTERIOR))
        src = get_backend("c").generate(g, {"u": (8, 8), "out": (8, 8)}, np.float32)
        assert "float* restrict" in src
        with pytest.raises(TypeError):
            ctype_for(np.int32)

    def test_snapshot_emitted_only_for_hazards(self):
        safe = Stencil(LAP, "out", INTERIOR)
        src = get_backend("c").generate(
            group_of(safe), {"u": (8, 8), "out": (8, 8)}, np.float64
        )
        assert "memcpy" not in src
        hazard = Stencil(LAP, "u", INTERIOR)
        src = get_backend("c").generate(group_of(hazard), {"u": (8, 8)}, np.float64)
        assert "memcpy" in src and "snap_0" in src and "free(snap_0)" in src

    def test_gsrb_colors_need_no_snapshot(self):
        red, _ = red_black_domains(2)
        s = Stencil(LAP, "u", red)
        src = get_backend("c").generate(group_of(s), {"u": (10, 10)}, np.float64)
        assert "memcpy" not in src

    def test_multicolor_fusion_collapses_boxes(self):
        red, _ = red_black_domains(2)
        s = Stencil(LAP, "u", red)
        fused = get_backend("c").generate(
            group_of(s), {"u": (12, 12)}, np.float64,
            schedule=ScheduleOptions(multicolor=True),
        )
        unfused = get_backend("c").generate(
            group_of(s), {"u": (12, 12)}, np.float64,
            schedule=ScheduleOptions(multicolor=False),
        )
        # fused: one nest with a parity-corrected start; unfused: two nests
        assert fused.count("for (int64_t i0") == 1
        assert unfused.count("for (int64_t i0") == 2
        assert "% 2" in fused

    def test_tiling_emits_tile_loop(self):
        s = Stencil(LAP, "out", INTERIOR)
        src = get_backend("c").generate(
            group_of(s), {"u": (64, 64), "out": (64, 64)}, np.float64,
            schedule=ScheduleOptions(tile=8),
        )
        assert "for (int64_t t0" in src

    def test_params_unpacked(self):
        from repro.core.expr import Param

        s = Stencil(Param("w") * LAP, "out", INTERIOR)
        src = get_backend("c").generate(
            group_of(s), {"u": (8, 8), "out": (8, 8)}, np.float64
        )
        assert "const double p_w = (double)params[0];" in src

    def test_weird_grid_names_sanitized(self):
        c = Component("beta-x.1", WeightArray([[1]]))
        s = Stencil(c, "out grid", INTERIOR)
        shapes = {"beta-x.1": (8, 8), "out grid": (8, 8)}
        src = get_backend("c").generate(group_of(s), shapes, np.float64)
        assert "g_beta_x_1" in src and "g_out_grid" in src
        # and it actually compiles + runs
        arrays = {"beta-x.1": np.ones((8, 8)), "out grid": np.zeros((8, 8))}
        k = s.compile(backend="c")
        k(**arrays)
        assert arrays["out grid"][1:-1, 1:-1].all()


LAP3 = Component("u", SparseArray({
    (0, 0, 0): -6.0, **{o: 1.0 for o in (
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))},
}))


def _innermost_pragmas(src: str, ndim: int) -> dict[str, list[list[str]]]:
    """Per step comment, the ``#pragma GCC`` lines directly above each
    of the step's innermost loops."""
    lines = [line.strip() for line in src.splitlines()]
    steps: dict[str, list[list[str]]] = {}
    for k, line in enumerate(lines):
        if line.startswith("/* stencil(s)"):
            current = steps.setdefault(line, [])
        elif line.startswith(f"for (int64_t i{ndim - 1} "):
            j = k
            while lines[j - 1].startswith("#pragma GCC"):
                j -= 1
            current.append(lines[j:k])
    return steps


class TestIvdep:
    """``#pragma GCC ivdep`` marks exactly the innermost loops of the
    steps the dependence analysis proved parallel."""

    @pytest.mark.parametrize("backend", ["c", "openmp"])
    @pytest.mark.parametrize("unroll", [None, 4])
    def test_parallel_steps_only(self, backend, unroll):
        red, _ = red_black_domains(3)
        interior = RectDomain((1,) * 3, (-1,) * 3)
        group = group_of(
            Stencil(LAP3, "out", interior),  # parallel, out of place
            Stencil(LAP3, "v", red),  # parallel, one parity sweep
            Stencil(LAP3, "u", interior),  # hazard: a snapshot step
        )
        shapes = {g: (12, 12, 12) for g in ("u", "v", "out")}
        be = get_backend(backend)
        options = {} if unroll is None else {"unroll": unroll}
        sched = be.pop_schedule(group, dict(options))(shapes)
        src = be.generate(group, shapes, np.float64, schedule=sched)
        found = _innermost_pragmas(src, 3)
        kinds, ivdeps = set(), 0
        for step in sched.steps():
            loops = found[next(k for k in found if str(list(step.stencils)) in k)]
            assert loops
            want = ["#pragma GCC ivdep"] if step.parallel else []
            if unroll is not None:
                want.append(f"#pragma GCC unroll {unroll}")
            assert all(pragmas == want for pragmas in loops), (step, loops)
            kinds.add((step.parallel, step.snapshot, step.sweep is not None))
            ivdeps += len(loops) if step.parallel else 0
        assert {(True, False, False), (True, False, True),
                (False, True, False)} <= kinds
        assert src.count("#pragma GCC ivdep") == ivdeps  # nowhere else


class TestParityDetection:
    def _rects(self, dom, shape):
        from repro.core.domains import as_domain

        return [r for r in as_domain(dom).resolve(shape) if not r.is_empty()]

    def test_checkerboard_detected(self):
        red, black = red_black_domains(2)
        pc = detect_parity_class(self._rects(red, (12, 12)))
        assert pc is not None
        assert pc.parity == 0
        pc2 = detect_parity_class(self._rects(black, (12, 12)))
        assert pc2 is not None and pc2.parity == 1

    def test_checkerboard_detected_odd_interior(self):
        red, _ = red_black_domains(2)
        assert detect_parity_class(self._rects(red, (13, 13))) is not None

    def test_3d_checkerboard_detected(self):
        red, _ = red_black_domains(3)
        assert detect_parity_class(self._rects(red, (8, 8, 8))) is not None

    def test_single_box_not_detected(self):
        dom = RectDomain((1, 1), (-1, -1), (2, 2))
        assert detect_parity_class(self._rects(dom, (12, 12))) is None

    def test_stride3_not_detected(self):
        dom = RectDomain((1, 1), (-1, -1), (3, 3)) + RectDomain(
            (2, 2), (-1, -1), (3, 3)
        )
        assert detect_parity_class(self._rects(dom, (14, 14))) is None

    def test_mixed_parity_not_detected(self):
        dom = RectDomain((1, 1), (-1, -1), (2, 2)) + RectDomain(
            (1, 2), (-1, -1), (2, 2)
        )
        assert detect_parity_class(self._rects(dom, (12, 12))) is None


class TestOptions:
    def test_unknown_option_rejected(self):
        s = Stencil(LAP, "out", INTERIOR)
        with pytest.raises(TypeError):
            s.compile(backend="c", frobnicate=True)

    def test_tile_changes_nothing_numerically(self, rng):
        s = Stencil(LAP, "out", INTERIOR)
        u = rng.random((32, 32))
        outs = []
        for tile in (None, 4, 8):
            out = np.zeros((32, 32))
            s.compile(backend="c", tile=tile)(u=u, out=out)
            outs.append(out)
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[0], outs[2])
