"""The one schedule check: :func:`verify_schedule`.

Every schedule passes it once — at the end of ``build_schedule``, or, for
a schedule built by hand, where it enters through ``as_schedule`` — and a
refusal is a typed :class:`ScheduleError` carrying the refusing
:class:`~repro.schedule.Evidence`.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.schedule import (
    ScheduleError,
    ScheduleOptions,
    SchedulePhase,
    as_schedule,
    build_schedule,
    verify_schedule,
)
from tests.schedule._cases import (
    child_raw_pair_group,
    fusable_pair_group,
    fuse_by_hand,
    gsrb_workload,
    laplacian_pair,
    raw_pair_group,
    same_child_pair_group,
    snapshot_group,
    snapshot_pair_group,
    solver_units,
    straddle_group,
    war_pair_group,
)

PARITY_BACKENDS = ("python", "numpy", "c", "openmp")
ALL_BACKENDS = (*PARITY_BACKENDS, "opencl-sim", "cuda-sim")

PRESETS = [
    ScheduleOptions(),
    ScheduleOptions(fuse=True),
    ScheduleOptions(multicolor=False),
    ScheduleOptions(fuse=True, multicolor=True, tile=4),
    ScheduleOptions(tile=8, unroll=2),
    ScheduleOptions(fuse=True, time_tile=2),
]

PLAIN = ScheduleOptions(multicolor=False)


class TestVerifier:
    def test_verify_schedule_accepts_every_preset(self):
        # the presets with fuse=True step exactly the fusion_chains
        units = [
            gsrb_workload()[:2], laplacian_pair(), straddle_group(),
            fusable_pair_group(), *solver_units(32),
        ]
        for group, shapes in units:
            for opts in PRESETS:
                sched = build_schedule(group, shapes, opts)
                assert sched.options == opts
                assert verify_schedule(sched) == []

    def test_every_preset_verifies_with_its_applications_lagged(
        self, always_lag
    ):
        units = [gsrb_workload()[:2], laplacian_pair(), *solver_units(32)]
        for group, shapes in units:
            for opts in PRESETS:
                sched = build_schedule(group, shapes, replace(opts, time_tile=2))
                assert verify_schedule(sched) == []

    @pytest.mark.parametrize(
        "case",
        ["domain", "snapshot", "raw", "war", "same_child", "child_raw"],
    )
    def test_verifier_refuses_an_illegal_fused_step(self, case):
        # one rule judges fusion wherever it is asked: a hand-built
        # fused step of stencils 0 and 1 fails it for each reason (a WAR
        # pair too: run point by point, the writer clobbers a cell the
        # reader has not read yet), the scale-2 interpolation members
        # too (two writing one child, or one reading the other's write
        # point)
        group, shapes = {
            "domain": straddle_group,
            "snapshot": snapshot_pair_group,
            "raw": raw_pair_group,
            "war": war_pair_group,
            "same_child": same_child_pair_group,
            "child_raw": child_raw_pair_group,
        }[case]()
        bad = fuse_by_hand(build_schedule(group, shapes, PLAIN))
        assert [p.claim for p in verify_schedule(bad)] == ["fuse-refused"]

    def test_verifier_refuses_a_lag_one_plane_short(self):
        # one rule judges plane lags wherever it is asked: a hand-built
        # black half-sweep one plane closer to red than their plane
        # distance allows fails it, naming that distance
        group, shapes, _ = gsrb_workload()
        sched = build_schedule(group, shapes, PLAIN)
        black = list(sched.steps())[-1]
        short = replace(black, lag=black.lag - 1)
        bad = replace(sched, phases=tuple(
            SchedulePhase(ph.index, tuple(
                short if st is black else st for st in ph.steps
            ))
            for ph in sched.phases
        ))
        assert [p.claim for p in verify_schedule(bad)] == ["lag-refused"]
        with pytest.raises(ScheduleError, match="plane distance 1") as ei:
            as_schedule(bad, group, shapes)
        assert "gsrb_red -> gsrb_black RAW on 'x'" in ei.value.evidence.basis
        assert f"needs lag >= {black.lag}" in ei.value.evidence.basis

    def test_verifier_refuses_lags_on_part_of_the_steps(self):
        group, shapes, _ = gsrb_workload()
        sched = build_schedule(group, shapes, PLAIN)
        first = next(sched.steps())
        bad = replace(sched, phases=tuple(
            SchedulePhase(ph.index, tuple(
                replace(st, lag=None) if st is first else st
                for st in ph.steps
            ))
            for ph in sched.phases
        ))
        assert [p.claim for p in verify_schedule(bad)] == ["lag-refused"]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_application_lag_one_plane_short_is_refused(
        self, always_lag, backend
    ):
        # one rule judges application lags wherever it is asked: the
        # smoother's lagged time tile with app_lag one plane short
        # fails it on every backend it is handed to, naming the
        # dependence that needs the plane
        group, shapes, _ = gsrb_workload()
        sched = build_schedule(group, shapes, ScheduleOptions(time_tile=3))
        assert sched.app_lag is not None
        short = replace(sched, app_lag=sched.app_lag - 1)
        with pytest.raises(ScheduleError) as ei:
            group.compile(backend=backend, shapes=shapes, schedule=short)
        assert [e.claim for e in ei.value.refusals] == ["lag-refused"]
        assert ei.value.evidence.basis == (
            f"application lag {sched.app_lag - 1} is short: it needs "
            f"{sched.app_lag} = lag 2 of [gsrb_black] + plane distance 1 "
            "(gsrb_black -> bc_x_d0lo RAW on 'x') - lag 0 of [bc_x_d0lo] "
            "of the next application"
        )

    @pytest.mark.parametrize(
        "change,why",
        [({"app_lag": -1}, "application lag -1 is short: it needs 0 = "),
         ({"options": ScheduleOptions(time_tile=1)}, "without a time tile")],
    )
    def test_application_lag_out_of_place_is_refused(
        self, always_lag, change, why
    ):
        group, shapes = laplacian_pair()
        sched = build_schedule(group, shapes, ScheduleOptions(time_tile=2))
        assert sched.app_lag == 0
        (problem,) = verify_schedule(replace(sched, **change))
        assert problem.claim == "lag-refused" and why in problem.basis

    def test_application_lagged_step_off_the_rule_is_refused(
        self, always_lag
    ):
        # a lagged tile's step lags are the rule's on the steps listed
        # twice, the lags its application lag is read from: a black
        # half-sweep one plane further back is refused, naming the lag
        # the rule gives it
        group, shapes, _ = gsrb_workload()
        sched = build_schedule(group, shapes, ScheduleOptions(time_tile=3))
        black = list(sched.steps())[-1]
        bad = replace(sched, phases=tuple(
            SchedulePhase(ph.index, tuple(
                replace(st, lag=black.lag + 1) if st is black else st
                for st in ph.steps
            ))
            for ph in sched.phases
        ))
        (problem,) = verify_schedule(bad)
        assert problem.claim == "lag-refused"
        assert problem.basis == (
            f"step [gsrb_black] has lag {black.lag + 1}, not the "
            f"{black.lag} the plane-lag rule gives it on the steps "
            "listed twice"
        )

    def test_time_tile_of_snapshot_step_verifies(self):
        # k applications are the verified program run k times: the
        # snapshot step is re-taken each time, nothing more to check
        group, shapes = snapshot_group()
        tiled = build_schedule(
            group, shapes, ScheduleOptions(multicolor=False, time_tile=2)
        )
        plain = build_schedule(group, shapes, PLAIN)
        assert verify_schedule(tiled) == []
        assert list(tiled.steps()) == list(plain.steps())
        assert [s.snapshot for s in tiled.steps()] == [True]

    def test_fuse_dependent_pair_is_refused(self):
        # s2 reads what s0 writes: one step cannot run both
        group, shapes = straddle_group()
        sched = build_schedule(
            group, shapes, ScheduleOptions(policy="serial", multicolor=False)
        )
        bad = fuse_by_hand(sched, 0, 2)
        with pytest.raises(ScheduleError) as ei:
            as_schedule(bad, group, shapes)
        assert ei.value.evidence.claim == "fuse-refused"

    def test_fusing_across_a_barrier_is_refused(self):
        # s2 reads what s0 writes: hoisting it into s1's step in the
        # first phase drops the barrier it must wait on
        group, shapes = straddle_group()
        bad = fuse_by_hand(build_schedule(group, shapes, PLAIN), 1, 2)
        with pytest.raises(ScheduleError, match="barrier") as ei:
            as_schedule(bad, group, shapes)
        assert [e.claim for e in ei.value.refusals] == ["order-refused"]

    def test_stencil_run_twice_or_never_is_refused(self):
        group, shapes, _ = gsrb_workload()
        sched = build_schedule(group, shapes)
        pi = next(
            i for i, ph in enumerate(sched.phases) if len(ph.steps) >= 2
        )
        ph = sched.phases[pi]
        phases = list(sched.phases)
        phases[pi] = SchedulePhase(ph.index, ph.steps[:1] * len(ph.steps))
        bad = replace(sched, phases=tuple(phases))
        with pytest.raises(ScheduleError) as ei:
            as_schedule(bad, group, shapes)
        assert {e.claim for e in ei.value.refusals} == {"coverage-refused"}


class TestHandBuiltSchedules:
    """A legal schedule assembled by hand is accepted and runs."""

    def test_reordered_phase_preserves_results(self):
        # steps of one phase are independent, so any order is legal
        group, shapes, arrays = gsrb_workload()
        sched = build_schedule(group, shapes)
        pi = next(
            i for i, ph in enumerate(sched.phases) if len(ph.steps) >= 2
        )
        phases = list(sched.phases)
        ph = phases[pi]
        phases[pi] = SchedulePhase(ph.index, ph.steps[::-1])
        swapped = replace(sched, phases=tuple(phases))
        assert as_schedule(swapped, group, shapes) is swapped
        ref = {g: a.copy() for g, a in arrays.items()}
        group.compile(backend="numpy", shapes=shapes, schedule=sched)(**ref)
        got = {g: a.copy() for g, a in arrays.items()}
        group.compile(backend="numpy", shapes=shapes, schedule=swapped)(
            **got
        )
        for g in sorted(shapes):
            np.testing.assert_array_equal(got[g], ref[g])

    @pytest.mark.parametrize("backend", PARITY_BACKENDS)
    def test_bitwise_backend_parity(self, backend):
        # the lowered preset, reassembled step by step, enters through
        # the as_schedule gate and computes bit for bit what the
        # options compute
        opts = ScheduleOptions(fuse=True, multicolor=True, tile=4)
        group, shapes, arrays = gsrb_workload()
        sched = build_schedule(group, shapes, opts)
        by_hand = replace(sched, phases=tuple(
            SchedulePhase(ph.index, tuple(replace(st) for st in ph.steps))
            for ph in sched.phases
        ))
        assert by_hand.to_dict() == sched.to_dict()
        assert as_schedule(by_hand, group, shapes) is by_hand
        ref = {g: a.copy() for g, a in arrays.items()}
        group.compile(backend=backend, shapes=shapes, schedule=opts)(**ref)
        got = {g: a.copy() for g, a in arrays.items()}
        group.compile(backend=backend, shapes=shapes, schedule=by_hand)(
            **got
        )
        for g in sorted(shapes):
            np.testing.assert_array_equal(
                got[g], ref[g],
                err_msg=f"hand-built schedule diverges on {backend}/{g}",
            )

    @pytest.mark.parametrize("backend", PARITY_BACKENDS)
    def test_unfusing_under_a_time_tile_still_runs_every_step(self, backend):
        # a time tile's loop structure is read from the steps it wraps,
        # so splitting a fused step after lowering cannot drop a step
        group, shapes = fusable_pair_group()
        k = 3
        sched = build_schedule(
            group, shapes, ScheduleOptions(fuse=True, time_tile=k)
        )
        fused = next(st for st in sched.steps() if st.fused)
        parts = tuple(
            replace(
                fused, stencils=(i,),
                evidence=tuple(e for e in fused.evidence if e.claim != "fuse"),
            )
            for i in fused.stencils
        )
        sched = replace(sched, phases=tuple(
            SchedulePhase(ph.index, tuple(
                x for st in ph.steps
                for x in (parts if st is fused else (st,))
            ))
            for ph in sched.phases
        ))
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
