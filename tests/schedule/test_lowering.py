"""Lowering: chains, evidence, memoization, coercion."""

import pytest

from repro.schedule import (
    Schedule,
    ScheduleOptions,
    as_schedule,
    build_schedule,
    fusion_chains,
    schedule_for,
)
from tests.schedule._cases import (
    fusable_pair_group,
    gsrb_workload,
    laplacian_pair,
    straddle_group,
)


class TestFusionChains:
    def test_program_order_glues_across_barrier(self):
        # The legacy view: s1/s2 share a domain and have no mutual
        # dependence, so program-order chaining merges them...
        group, shapes = straddle_group()
        assert fusion_chains(group, shapes) == [[0], [1, 2]]

    def test_phase_local_chains_respect_barriers(self):
        # ...but s2 RAW-depends on s0, which bars it from s1's phase:
        # a chain straddling that barrier would hoist s2's reads of
        # ``a`` ahead of the taskwait that publishes them.
        group, shapes = straddle_group()
        sched = build_schedule(group, shapes, ScheduleOptions(fuse=True))
        assert [list(ph.stencils()) for ph in sched.phases] == [[0, 1], [2]]
        assert all(not s.fused for s in sched.steps())

    def test_fused_schedule_never_straddles_execution(self):
        # End-to-end regression: fused OpenMP execution of the straddle
        # group must equal the sequential reference.
        import numpy as np

        group, shapes = straddle_group()
        rng = np.random.default_rng(3)
        ref_arrays = {g: rng.standard_normal(s) for g, s in shapes.items()}
        got_arrays = {g: a.copy() for g, a in ref_arrays.items()}
        group.compile(backend="python", shapes=shapes)(**ref_arrays)
        group.compile(backend="openmp", shapes=shapes, fuse=True)(
            **got_arrays
        )
        for g in shapes:
            np.testing.assert_array_equal(got_arrays[g], ref_arrays[g])

    def test_legal_pair_fuses_with_evidence(self):
        group, shapes = fusable_pair_group()
        sched = build_schedule(group, shapes, ScheduleOptions(fuse=True))
        (step,) = sched.steps()
        assert step.stencils == (0, 1) and step.fused
        assert any(e.claim == "fuse" for e in step.evidence)

    def test_fuse_off_keeps_singletons(self):
        group, shapes = fusable_pair_group()
        sched = build_schedule(group, shapes, ScheduleOptions(fuse=False))
        assert [s.stencils for s in sched.steps()] == [(0,), (1,)]


class TestMulticolorRecognition:
    def test_gsrb_sweeps_recognized(self):
        group, shapes, _ = gsrb_workload()
        sched = build_schedule(
            group, shapes, ScheduleOptions(multicolor=True)
        )
        sweeps = [s for s in sched.steps() if s.sweep is not None]
        assert len(sweeps) == 2  # one red, one black half-sweep
        assert {s.sweep.parity for s in sweeps} == {0, 1}
        for s in sweeps:
            assert any(e.claim == "multicolor" for e in s.evidence)

    def test_multicolor_off_emits_no_sweeps(self):
        group, shapes, _ = gsrb_workload()
        sched = build_schedule(
            group, shapes, ScheduleOptions(multicolor=False)
        )
        assert all(s.sweep is None for s in sched.steps())


class TestScheduleObject:
    def test_stencil_order_covers_group_once(self):
        group, shapes, _ = gsrb_workload()
        sched = schedule_for(group, shapes)
        assert sorted(sched.stencil_order()) == list(range(len(group)))

    def test_step_for_and_describe(self):
        group, shapes = fusable_pair_group()
        sched = schedule_for(group, shapes, ScheduleOptions(fuse=True))
        assert sched.step_for(1).fused
        with pytest.raises(KeyError):
            sched.step_for(99)
        assert "fused chain" in sched.describe()

    def test_to_dict_is_json_able(self):
        import json

        group, shapes, _ = gsrb_workload()
        sched = schedule_for(
            group, shapes, ScheduleOptions(fuse=True, multicolor=True)
        )
        doc = json.loads(json.dumps(sched.to_dict()))
        assert doc["group"] == group.name
        assert doc["options"]["fuse"] is True
        sweeps = [
            st for ph in doc["phases"] for st in ph["steps"] if st["sweep"]
        ]
        assert sweeps and {"base", "high", "parity"} <= set(sweeps[0]["sweep"])


class TestMemoizationAndCoercion:
    def test_schedule_for_memoizes(self):
        group, shapes = laplacian_pair()
        opts = ScheduleOptions(fuse=True)
        assert schedule_for(group, shapes, opts) is schedule_for(
            group, shapes, opts
        )

    def test_as_schedule_passthrough_and_coercions(self):
        group, shapes = laplacian_pair()
        sched = schedule_for(group, shapes)
        assert as_schedule(sched, group, shapes) is sched
        opts = ScheduleOptions(policy="wavefront")
        assert as_schedule(opts, group, shapes).options == opts
        assert as_schedule(None, group, shapes).options == ScheduleOptions()
        # strings are the resolver's job (Backend.pop_schedule)
        for bad in ("wavefront", 42):
            with pytest.raises(TypeError):
                as_schedule(bad, group, shapes)

    def test_as_schedule_rejects_wrong_shapes(self):
        group, shapes = laplacian_pair(12)
        sched = schedule_for(group, shapes)
        with pytest.raises(ValueError, match="shapes"):
            as_schedule(sched, group, {"u": (16, 16), "out": (16, 16)})

    def test_as_schedule_rejects_wrong_group(self):
        group, shapes = laplacian_pair()
        other, other_shapes = straddle_group()
        sched = schedule_for(other, other_shapes)
        with pytest.raises(ValueError, match="signature"):
            as_schedule(sched, group, shapes)
