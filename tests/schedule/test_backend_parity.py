"""Every backend executes the same Schedule bit-identically.

The tentpole guarantee of the schedule IR: structure is decided once,
so the six backends — including the OpenCL/CUDA simulators running
fused multicolor GSRB they previously could not express — produce
bitwise-identical grids from the same prebuilt :class:`Schedule`.
"""

import numpy as np
import pytest

from repro.schedule import ScheduleOptions, schedule_for
from tests._helpers import ALL_BACKENDS
from tests.schedule._cases import fusable_pair_group, gsrb_workload

#: backends with no toolchain requirement (the CI schedule-parity job)
SIM_BACKENDS = ("python", "numpy", "opencl-sim", "cuda-sim")


def run_with_schedule(group, shapes, arrays, backend, sched):
    work = {g: a.copy() for g, a in arrays.items()}
    group.compile(backend=backend, shapes=shapes, schedule=sched)(**work)
    return work


class TestFusedMulticolorParity:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_gsrb_bitwise_identical_from_one_schedule(self, backend):
        group, shapes, arrays = gsrb_workload()
        sched = schedule_for(
            group, shapes, ScheduleOptions(fuse=True, multicolor=True)
        )
        ref = run_with_schedule(group, shapes, arrays, "python", sched)
        got = run_with_schedule(group, shapes, arrays, backend, sched)
        for g in sorted(shapes):
            np.testing.assert_array_equal(
                got[g], ref[g],
                err_msg=f"backend {backend!r} diverges on {g!r}",
            )

    @pytest.mark.parametrize("backend", ("opencl-sim", "cuda-sim"))
    def test_gpu_sims_execute_parity_kernels(self, backend):
        # The schedule carries the multicolor sweeps; the GPU programs
        # must actually lower them to parity-corrected kernels.
        from repro.backends import get_backend
        from repro.backends.gpu_backend import generate_gpu_program

        group, shapes, _ = gsrb_workload()
        program = generate_gpu_program(
            group, shapes, np.float64, get_backend(backend).dialect,
            schedule=ScheduleOptions(fuse=True, multicolor=True),
        )
        assert "_p" in program.source  # parity kernels were emitted

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_fused_chain_parity(self, backend):
        group, shapes = fusable_pair_group()
        rng = np.random.default_rng(11)
        arrays = {g: rng.standard_normal(s) for g, s in shapes.items()}
        sched = schedule_for(group, shapes, ScheduleOptions(fuse=True))
        ref = run_with_schedule(group, shapes, arrays, "python", sched)
        got = run_with_schedule(group, shapes, arrays, backend, sched)
        for g in sorted(shapes):
            np.testing.assert_array_equal(got[g], ref[g])


class TestScheduleVsLegacyEquivalence:
    """Loose knobs and a prebuilt Schedule are the same computation."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_knobs_equal_prebuilt_schedule(self, backend):
        group, shapes, arrays = gsrb_workload()
        knobs = {"fuse": True, "multicolor": True}
        sched = schedule_for(group, shapes, ScheduleOptions(**knobs))
        via_sched = run_with_schedule(group, shapes, arrays, backend, sched)
        via_knobs = {g: a.copy() for g, a in arrays.items()}
        group.compile(backend=backend, shapes=shapes, **knobs)(**via_knobs)
        for g in sorted(shapes):
            np.testing.assert_array_equal(via_knobs[g], via_sched[g])

    @pytest.mark.parametrize("policy", ("greedy", "wavefront", "serial"))
    def test_policies_agree_on_hpgmg_results(self, policy):
        # Any legal barrier policy computes the same function.
        group, shapes, arrays = gsrb_workload()
        ref = {g: a.copy() for g, a in arrays.items()}
        group.compile(backend="numpy", shapes=shapes)(**ref)
        got = {g: a.copy() for g, a in arrays.items()}
        group.compile(backend="numpy", shapes=shapes, schedule=policy)(
            **got
        )
        for g in sorted(shapes):
            np.testing.assert_array_equal(got[g], ref[g])

    def test_default_c_results_unchanged_by_refactor(self):
        # The greedy default preserves program order, so the C backend's
        # default output must equal the plain sequential reference.
        group, shapes, arrays = gsrb_workload()
        ref = {g: a.copy() for g, a in arrays.items()}
        group.compile(backend="python", shapes=shapes)(**ref)
        got = {g: a.copy() for g, a in arrays.items()}
        group.compile(backend="c", shapes=shapes)(**got)
        for g in sorted(shapes):
            np.testing.assert_array_equal(got[g], ref[g])
