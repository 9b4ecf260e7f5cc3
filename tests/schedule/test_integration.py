"""Schedule integration: explain provenance, pass manager."""

from repro.explain import explain
from repro.frontend.passes import default_pipeline
from repro.schedule import ScheduleOptions, schedule_for
from tests.schedule._cases import gsrb_workload


class TestExplainSchedule:
    def test_provenance_carries_schedule(self):
        group, shapes, _ = gsrb_workload()
        prov = explain(group, shapes, backend="numpy")
        assert prov.schedule is not None
        assert prov.schedule.options.policy == "greedy"
        assert sorted(prov.schedule.stencil_order()) == list(
            range(len(group))
        )

    def test_schedule_options_flow_through_explain(self):
        group, shapes, _ = gsrb_workload()
        prov = explain(
            group, shapes, backend="c", fuse=True, tile=8
        )
        assert prov.schedule.options.fuse is True
        assert prov.schedule.options.tile == 8
        sweeps = [s for s in prov.schedule.steps() if s.sweep is not None]
        assert len(sweeps) == 2

    def test_render_and_to_dict_include_schedule(self):
        group, shapes, _ = gsrb_workload()
        prov = explain(group, shapes, backend="numpy")
        assert "schedule:" in prov.render()
        doc = prov.to_dict()
        assert doc["schedule"]["group"] == group.name

    def test_explain_matches_compiled_schedule(self):
        # What explain reports is byte-for-byte what compile executes.
        group, shapes, _ = gsrb_workload()
        prov = explain(group, shapes, backend="c", fuse=True)
        direct = schedule_for(
            group, shapes, ScheduleOptions(fuse=True)
        )
        assert prov.schedule is direct  # same memoized object


class TestPassManagerPhaseReuse:
    def test_greedy_phases_called_n_plus_one_times(self, monkeypatch):
        # Satellite perf fix: each pass's after-count is the next pass's
        # before-count, so N passes cost N+1 phase analyses, not 2N.
        import repro.frontend.passes as passes_mod

        calls = {"n": 0}
        real = passes_mod.greedy_phases

        def counting(group, shapes):
            calls["n"] += 1
            return real(group, shapes)

        monkeypatch.setattr(passes_mod, "greedy_phases", counting)
        group, shapes, _ = gsrb_workload()
        pm = default_pipeline()
        pm.run(group, shapes)
        assert calls["n"] == len(pm.passes) + 1

    def test_records_chain_before_after(self):
        group, shapes, _ = gsrb_workload()
        pm = default_pipeline()
        pm.run(group, shapes)
        for prev, nxt in zip(pm.records, pm.records[1:]):
            assert prev.phases_after == nxt.phases_before
