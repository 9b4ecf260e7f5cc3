"""Machine substrate: STREAM, roofline constants, platform specs."""

import numpy as np
import pytest

from repro.core.domains import RectDomain
from repro.core.stencil import Stencil
from repro.hpgmg.operators import (
    cc_diagonal,
    cc_laplacian,
    gsrb_stencils,
    interior,
    jacobi_stencil,
    residual_stencil,
    vc_laplacian,
)
from repro.machine.roofline import (
    PAPER_BYTES_PER_STENCIL,
    bytes_per_point,
    roofline_stencils_per_s,
    roofline_time,
)
from repro.machine.specs import I7_4765T, K20C, MachineSpec
from repro.machine.stream import STREAM_DOT_C_SOURCE, stream_dot_bandwidth


class TestSpecs:
    def test_paper_cpu_numbers(self):
        assert I7_4765T.stream_bw == pytest.approx(22.2e9)
        assert I7_4765T.kind == "cpu"

    def test_paper_gpu_numbers(self):
        assert K20C.stream_bw == pytest.approx(127e9)
        assert K20C.kind == "gpu"

    def test_effective_bw_cache_crossover(self):
        small = I7_4765T.cache_bytes / 2
        big = I7_4765T.cache_bytes * 2
        assert I7_4765T.effective_bw(small) > I7_4765T.effective_bw(big)
        assert I7_4765T.effective_bw(big) == I7_4765T.stream_bw

    def test_host_spec_takes_no_arguments(self, monkeypatch):
        # always measured: no unmeasured placeholder can stick in the
        # per-process cache
        from repro.machine import specs

        monkeypatch.setattr(specs, "_HOST_CACHE", None)
        with pytest.raises(TypeError):
            specs.host_spec(measure=False)
        assert specs._HOST_CACHE is None


class TestRooflineConstants:
    """SectionV-B: 24 / 40 / 64 bytes per stencil (E6 in DESIGN.md)."""

    def test_cc_7pt_analytic_is_24(self):
        # reads {x}, writes out with write-allocate: 8 + 8 + 8
        s = residual_stencil(3, cc_laplacian(3, 0.1))
        # residual also reads rhs; build the bare operator apply instead
        bare = Stencil(cc_laplacian(3, 0.1), "out", interior(3))
        assert bytes_per_point(bare) == PAPER_BYTES_PER_STENCIL["cc_7pt"]

    def test_cc_jacobi_analytic_is_40(self):
        # paper counts x, rhs, the D^{-1} array, the store + write-allocate
        jac = jacobi_stencil(3, cc_laplacian(3, 0.1), lam="lam")
        assert bytes_per_point(jac) == PAPER_BYTES_PER_STENCIL["cc_jacobi"]

    def test_vc_gsrb_analytic_is_64(self):
        red, _ = gsrb_stencils(3, vc_laplacian(3, 0.1), lam="lam")
        # reads {x, rhs, beta_0, beta_1, beta_2, lam} = 48, +8 store,
        # +8 write-allocate is NOT charged (x already read) -> 56; the
        # paper charges the fill anyway -> 64.  We report the
        # write-allocate-charged figure for in-place updates too:
        assert bytes_per_point(red) in (56.0, 64.0)
        assert bytes_per_point(red, write_allocate=False) == 56.0

    def test_roofline_rates_scale_with_bw(self):
        r_cpu = roofline_stencils_per_s(I7_4765T, 24.0)
        r_gpu = roofline_stencils_per_s(K20C, 24.0)
        assert r_gpu / r_cpu == pytest.approx(127 / 22.2, rel=1e-3)

    def test_roofline_time_inverse(self):
        t = roofline_time(I7_4765T, 64.0, 10**6)
        assert t == pytest.approx(10**6 * 64.0 / 22.2e9)


class TestStream:
    def test_source_matches_fig6_shape(self):
        assert "reduction(+:beta)" in STREAM_DOT_C_SOURCE
        assert "a[j] * b[j]" in STREAM_DOT_C_SOURCE

    @pytest.mark.parametrize("flavor", ["c", "numpy"])
    def test_bandwidth_sane(self, flavor):
        bw = stream_dot_bandwidth(n=2**18, repeats=2, flavor=flavor)
        assert 1e8 < bw < 1e12  # between 0.1 and 1000 GB/s

    def test_unknown_flavor(self):
        with pytest.raises(ValueError):
            stream_dot_bandwidth(n=1024, flavor="cuda")
