"""Transform-algebra unit suite.

Legal compositions must reproduce today's preset schedules exactly —
structurally (``to_dict``) and bitwise on every backend — while illegal
compositions must raise a typed :class:`TransformError` carrying the
refusing :class:`~repro.schedule.Evidence`.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import Stencil, StencilGroup
from repro.core.weights import WeightArray
from repro.kernel.lower import body_for
from repro.schedule import (
    Evidence,
    ScheduleOptions,
    SchedulePhase,
    base_schedule,
    build_schedule,
)
from repro.transform import (
    Pipeline,
    Transform,
    TransformError,
    distribute,
    fuse,
    preset_pipeline,
    reorder,
    split,
    tile,
    time_tile,
    unroll,
    verify_schedule,
)
from tests.schedule._cases import (
    fusable_pair_group,
    gsrb_workload,
    laplacian_pair,
    solver_units,
    straddle_group,
)

PARITY_BACKENDS = ("python", "numpy", "c", "openmp")

PRESETS = [
    ScheduleOptions(),
    ScheduleOptions(fuse=True),
    ScheduleOptions(multicolor=False),
    ScheduleOptions(fuse=True, multicolor=True, tile=4),
    ScheduleOptions(tile=8, unroll=2),
    ScheduleOptions(fuse=True, time_tile=2),
]


def snapshot_group(n=10):
    """In-place symmetric read: serialized step with a gather snapshot."""
    w = WeightArray([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    s = Stencil(
        Component("u", w), "u", RectDomain((1, 1), (-1, -1)),
        name="inplace",
    )
    return StencilGroup([s], name="snap"), {"u": (n, n)}


def snapshot_pair_group(n=10):
    """The snapshot stencil plus an independent same-domain one."""
    group, shapes = snapshot_group(n)
    other = Stencil(
        Component("v", WeightArray([[1]])), "b", RectDomain((1, 1), (-1, -1)),
        name="copy",
    )
    return group + other, {**shapes, "v": (n, n), "b": (n, n)}


def raw_pair_group(n=10):
    """Two same-domain stencils, the second reading what the first wrote."""
    interior = RectDomain((1, 1), (-1, -1))
    w = WeightArray([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    s0 = Stencil(Component("u", w), "a", interior, name="write_a")
    s1 = Stencil(Component("a", w), "b", interior, name="read_a")
    return StencilGroup([s0, s1], name="raw"), {
        g: (n, n) for g in ("u", "a", "b")
    }


class TestPresetEquivalence:
    """build_schedule is nothing but base_schedule + preset_pipeline."""

    @pytest.mark.parametrize("opts", PRESETS, ids=lambda o: o.describe())
    def test_preset_pipeline_reproduces_build_schedule(self, opts):
        group, shapes, _ = gsrb_workload()
        via_build = build_schedule(group, shapes, opts)
        via_chain = preset_pipeline(opts)(
            base_schedule(group, shapes, policy=opts.policy)
        )
        assert via_chain.options == opts
        assert via_chain.to_dict() == via_build.to_dict()

    @pytest.mark.parametrize("opts", PRESETS, ids=lambda o: o.describe())
    def test_preset_evidence_identical(self, opts):
        group, shapes, _ = gsrb_workload()
        via_build = build_schedule(group, shapes, opts)
        via_chain = preset_pipeline(opts)(
            base_schedule(group, shapes, policy=opts.policy)
        )
        build_ev = [
            str(e) for st in via_build.steps() for e in st.evidence
        ]
        chain_ev = [
            str(e) for st in via_chain.steps() for e in st.evidence
        ]
        assert chain_ev == build_ev

    @pytest.mark.parametrize("backend", PARITY_BACKENDS)
    def test_bitwise_backend_parity(self, backend):
        opts = ScheduleOptions(fuse=True, multicolor=True, tile=4)
        group, shapes, arrays = gsrb_workload()
        via_chain = preset_pipeline(opts)(base_schedule(group, shapes))
        via_build = build_schedule(group, shapes, opts)
        ref = {g: a.copy() for g, a in arrays.items()}
        group.compile(backend=backend, shapes=shapes, schedule=via_build)(
            **ref
        )
        got = {g: a.copy() for g, a in arrays.items()}
        group.compile(backend=backend, shapes=shapes, schedule=via_chain)(
            **got
        )
        for g in sorted(shapes):
            np.testing.assert_array_equal(
                got[g], ref[g],
                err_msg=f"transform chain diverges on {backend}/{g}",
            )


class TestComposition:
    def test_pipeline_composes_and_flattens(self):
        p = fuse() | tile(8)
        q = p | unroll(2)
        assert isinstance(q, Pipeline)
        assert len(q) == 3
        assert list(q.describe_list()) == ["fuse()", "tile(8)", "unroll(2)"]

    def test_distribute_undoes_fuse(self):
        group, shapes = fusable_pair_group()
        fused = fuse()(base_schedule(group, shapes))
        assert any(len(st.stencils) > 1 for st in fused.steps())
        back = distribute()(fused)
        assert all(len(st.stencils) == 1 for st in back.steps())
        assert back.to_dict() == base_schedule(group, shapes).to_dict()

    def test_split_equals_distribute_on_a_pair(self):
        group, shapes = fusable_pair_group()
        fused = fuse()(base_schedule(group, shapes))
        idx = next(
            i for i, st in enumerate(fused.steps())
            if len(st.stencils) == 2
        )
        via_split = split(idx, 1)(fused)
        via_dist = distribute()(fused)
        split_steps = [st.stencils for st in via_split.steps()]
        dist_steps = [st.stencils for st in via_dist.steps()]
        assert split_steps == dist_steps

    @pytest.mark.parametrize("backend", PARITY_BACKENDS)
    @pytest.mark.parametrize(
        "unfuse", [distribute(), split(0, 1)], ids=["distribute", "split"]
    )
    def test_unfusing_under_a_time_tile_still_runs_every_step(
        self, backend, unfuse
    ):
        # a time tile's loop structure is read from the steps it wraps,
        # so restructuring after time_tile(k) cannot drop a step
        group, shapes = fusable_pair_group()
        k = 3
        sched = unfuse(time_tile(k)(fuse()(base_schedule(group, shapes))))
        assert verify_schedule(sched) == []
        assert [st.stencils for st in sched.steps()] == [(0,), (1,)]
        rng = np.random.default_rng(11)
        arrays = {g: rng.standard_normal(shapes[g]) for g in sorted(shapes)}
        ref = {g: a.copy() for g, a in arrays.items()}
        sweep = group.compile(backend="python", shapes=shapes)
        for _ in range(k):
            sweep(**ref)
        got = {g: a.copy() for g, a in arrays.items()}
        group.compile(backend=backend, shapes=shapes, schedule=sched)(**got)
        for g in sorted(shapes):
            np.testing.assert_array_equal(got[g], ref[g])

    def test_reorder_permutes_a_phase_and_preserves_results(self):
        group, shapes, arrays = gsrb_workload()
        sched = base_schedule(group, shapes)
        pi = next(
            i for i, ph in enumerate(sched.phases) if len(ph.steps) >= 2
        )
        perm = tuple(reversed(range(len(sched.phases[pi].steps))))
        swapped = reorder(pi, perm)(sched)
        assert [
            st.stencils for st in swapped.phases[pi].steps
        ] == [
            sched.phases[pi].steps[j].stencils for j in perm
        ]
        ref = {g: a.copy() for g, a in arrays.items()}
        group.compile(backend="numpy", shapes=shapes, schedule=sched)(**ref)
        got = {g: a.copy() for g, a in arrays.items()}
        group.compile(backend="numpy", shapes=shapes, schedule=swapped)(
            **got
        )
        for g in sorted(shapes):
            np.testing.assert_array_equal(got[g], ref[g])

    def test_verify_schedule_accepts_every_preset(self):
        # the presets with fuse=True step exactly the fusion_chains
        units = [
            gsrb_workload()[:2], laplacian_pair(), straddle_group(),
            fusable_pair_group(), *solver_units(32),
        ]
        for group, shapes in units:
            for opts in PRESETS:
                try:
                    sched = build_schedule(group, shapes, opts)
                except TransformError as e:
                    # a refused time tile is a verdict, not a schedule
                    assert opts.time_tile > 1
                    assert e.evidence.claim == "time-tile-refused"
                    continue
                assert verify_schedule(sched) == []


class TestIllegalCompositions:
    def test_fuse_across_a_barrier_is_refused(self):
        group, shapes = straddle_group()
        sched = base_schedule(group, shapes)
        with pytest.raises(TransformError) as ei:
            fuse(chains=((1, 2),))(sched)
        err = ei.value
        assert isinstance(err, ValueError)  # the tuner catches ValueError
        assert isinstance(err.evidence, Evidence)
        assert err.evidence.claim == "fuse-refused"
        assert "barrier" in str(err)

    def test_fuse_dependent_pair_is_refused(self):
        group, shapes = straddle_group()
        sched = base_schedule(group, shapes, policy="serial")
        with pytest.raises(TransformError) as ei:
            fuse(chains=((0, 2),))(sched)
        assert ei.value.evidence.claim == "fuse-refused"

    def test_split_out_of_range_is_refused(self):
        group, shapes = fusable_pair_group()
        sched = base_schedule(group, shapes)
        with pytest.raises(TransformError) as ei:
            split(99, 1)(sched)
        assert ei.value.evidence.claim == "split-refused"

    def test_split_singleton_is_refused(self):
        group, shapes = fusable_pair_group()
        sched = base_schedule(group, shapes)
        with pytest.raises(TransformError) as ei:
            split(0, 1)(sched)
        assert ei.value.evidence.claim == "split-refused"

    def test_reorder_non_permutation_is_refused(self):
        group, shapes, _ = gsrb_workload()
        sched = base_schedule(group, shapes)
        pi = next(
            i for i, ph in enumerate(sched.phases) if len(ph.steps) >= 2
        )
        with pytest.raises(TransformError) as ei:
            reorder(pi, (0,) * len(sched.phases[pi].steps))(sched)
        assert ei.value.evidence.claim == "reorder-refused"

    def test_time_tile_of_snapshot_step_is_refused(self):
        group, shapes = snapshot_group()
        sched = build_schedule(
            group, shapes, ScheduleOptions(multicolor=False)
        )
        with pytest.raises(TransformError) as ei:
            time_tile(2)(sched)
        err = ei.value
        assert err.evidence.claim == "time-tile-refused"
        assert err.refusals  # the full refusal list rides along
        assert all(r.claim == "time-tile-refused" for r in err.refusals)

    def test_bad_knob_value_is_refused_with_typed_evidence(self):
        group, shapes = fusable_pair_group()
        sched = base_schedule(group, shapes)
        with pytest.raises(TransformError) as ei:
            tile(-3)(sched)
        assert ei.value.evidence.claim == "tile-refused"

    def test_schedule_transform_rejects_kernel_body(self):
        group, _, _ = gsrb_workload()
        body, _ = body_for(group[0])
        with pytest.raises(TransformError):
            tile(4)(body)

    @pytest.mark.parametrize("case", ["domain", "snapshot", "raw"])
    def test_verifier_refuses_an_illegal_fused_step(self, case):
        # one rule judges fusion wherever it is asked: a hand-built
        # fused step of stencils 0 and 1 fails it for each reason
        group, shapes = {
            "domain": straddle_group,
            "snapshot": snapshot_pair_group,
            "raw": raw_pair_group,
        }[case]()
        sched = base_schedule(group, shapes)
        first = next(st for st in sched.steps() if st.stencils == (0,))
        fused = replace(first, stencils=(0, 1), snapshot=False)
        phases = tuple(
            SchedulePhase(ph.index, tuple(
                fused if st is first else st
                for st in ph.steps if st.stencils != (1,)
            ))
            for ph in sched.phases
        )
        problems = verify_schedule(replace(sched, phases=phases))
        assert [p.claim for p in problems] == ["fuse-refused"]
        with pytest.raises(TransformError) as ei:
            fuse(chains=((0, 1),))(sched)
        assert ei.value.evidence.claim == "fuse-refused"

    def test_refused_chain_stops_at_the_refusing_transform(self):
        group, shapes = snapshot_group()
        chain = tile(4) | time_tile(2) | unroll(2)
        sched = build_schedule(
            group, shapes, ScheduleOptions(multicolor=False)
        )
        with pytest.raises(TransformError) as ei:
            chain(sched)
        assert ei.value.evidence.claim == "time-tile-refused"


class TestTunedSpec:
    def test_tuned_spec_without_winner_is_the_defaults(
        self, tmp_path, monkeypatch
    ):
        from repro.backends import get_backend

        monkeypatch.setenv("SNOWFLAKE_CACHE_DIR", str(tmp_path))
        group, shapes = fusable_pair_group()
        sched = get_backend("c").pop_schedule(
            group, {"schedule": "tuned"}
        )(shapes)
        assert sched.options == ScheduleOptions()

    def test_transform_base_classes_exported(self):
        import repro.transform as tx

        for name in tx.__all__:
            assert getattr(tx, name) is not None
        assert issubclass(TransformError, ValueError)
        assert isinstance(fuse(), Transform)
