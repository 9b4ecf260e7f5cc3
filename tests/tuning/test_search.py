"""Cost-model-guided schedule search: prediction, search, telemetry."""

import json
from collections import Counter

import numpy as np
import pytest

from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import Stencil, StencilGroup
from repro.backends import base
from repro.backends.numpy_backend import NumpyBackend
from repro.core.weights import WeightArray
from repro.schedule import ScheduleOptions
from repro.telemetry import tracing
from repro.tuning import predict_schedule_time, search_schedules
from repro.tuning.search import _default_grid, _neighbours
LAP = WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]])


def lap_workload(n=12):
    s = Stencil(Component("u", LAP), "out", RectDomain((1, 1), (-1, -1)))
    group = StencilGroup([s], name="lap")
    shapes = {"u": (n, n), "out": (n, n)}
    rng = np.random.default_rng(3)
    arrays = {g: rng.standard_normal(sh) for g, sh in shapes.items()}
    return group, shapes, arrays


@pytest.fixture
def refuse_fused(monkeypatch):
    """A lowering that refuses every ``fuse=True`` candidate, as a
    legality rule would: the tuner records the refusal and goes on."""
    from repro.schedule import Evidence, lower

    monkeypatch.setattr(lower, "_CACHE", type(lower._CACHE)())
    verify = lower.verify_schedule
    monkeypatch.setattr(
        lower, "verify_schedule",
        lambda sched: (
            [Evidence("fuse-refused", "refused for the test")]
            if sched.options.fuse else verify(sched)
        ),
    )


class NoTimeTileBackend(NumpyBackend):
    """A backend with no lowering for ``time_tile``: it refuses one."""

    name = "test-no-time-tile"

    def compile(self, group, **options):
        if options["schedule"].options.time_tile > 1:
            raise NotImplementedError("no time_tile lowering")
        return super().compile(group, **options)


class TestPredict:
    def test_deterministic_on_paper_spec(self):
        group, shapes, _ = lap_workload()
        opts = ScheduleOptions(tile=8)
        a = predict_schedule_time(group, shapes, opts, spec="paper-cpu")
        b = predict_schedule_time(group, shapes, opts, spec="paper-cpu")
        assert a == b  # bit-exact: pure arithmetic on a fixed record
        assert 0.0 < a < 1.0

    def test_time_tile_prediction_uses_swept_traffic(self):
        group, shapes, _ = lap_workload(64)
        base = predict_schedule_time(
            group, shapes, ScheduleOptions(), spec="paper-cpu"
        )
        tiled = predict_schedule_time(
            group, shapes, ScheduleOptions(time_tile=4), spec="paper-cpu"
        )
        # k applications per call: more than base, less than k * base
        assert base < tiled < 4 * base

    def test_refused_candidate_raises_through(self, refuse_fused):
        from repro.schedule import ScheduleError

        group, shapes, _ = lap_workload()
        with pytest.raises(ScheduleError):
            predict_schedule_time(
                group, shapes, ScheduleOptions(fuse=True), spec="paper-cpu",
            )

    def test_unknown_spec_rejected(self):
        # host, paper-cpu and paper-gpu are the names, as on the CLI
        group, shapes, _ = lap_workload()
        for spec in ("nonesuch", "cpu", "gpu"):
            with pytest.raises(ValueError, match="unknown machine spec"):
                predict_schedule_time(
                    group, shapes, ScheduleOptions(), spec=spec
                )


class TestSearch:
    def test_beam_measures_at_most_budget(self):
        group, shapes, arrays = lap_workload()
        res = search_schedules(
            group, arrays, backend="numpy", budget=3, repeats=1,
        )
        assert res.best is not None
        assert len(res.measured()) <= 3
        assert res.best_measured_s == min(
            t.measured_s for t in res.measured()
        )
        json.dumps(res.to_dict())  # artifact must serialize

    def test_listed_candidates_all_measured_before_any_neighbour(self):
        # The paper's "method of tuning tiling sizes": time an explicit
        # list.  budget == len(candidates) measures exactly the list.
        group, shapes, arrays = lap_workload()
        cands = [ScheduleOptions(tile=t) for t in (2, 4, 64)]
        res = search_schedules(
            group, arrays, backend="numpy", budget=3, repeats=1,
            candidates=cands,
        )
        assert sorted(t.options.tile for t in res.measured()) == [2, 4, 64]
        assert res.best in cands
        # with budget to spare the listed ones still come first
        res = search_schedules(
            group, arrays, backend="numpy", budget=5, repeats=1,
            candidates=cands,
        )
        first = [t.options for t in res.measured()[:3]]
        assert set(first) == set(cands)
        assert len(res.measured()) == 5

    def test_time_tile_is_never_varied(self):
        # a k-deep tile does k applications per call, so depths are not
        # comparable per call: every candidate keeps its seed's depth
        assert len(_default_grid()) == 12
        assert {o.time_tile for o in _default_grid()} == {1}
        seed = ScheduleOptions(tile=8, time_tile=2)
        assert {o.time_tile for o in _neighbours(seed)} == {2}
        group, shapes, arrays = lap_workload()
        res = search_schedules(
            group, arrays, backend="numpy", budget=4, repeats=1,
            candidates=[seed],
        )
        assert {t.options.time_tile for t in res.trials} == {2}

    def test_backend_alias_resolves_to_registry_name(self):
        group, shapes, arrays = lap_workload()
        res = search_schedules(
            group, arrays, backend="np", budget=1, repeats=1,
        )
        assert res.backend == "numpy"

    def test_refused_candidates_recorded_with_evidence_kind(
        self, refuse_fused
    ):
        group, shapes, arrays = lap_workload()
        with tracing.session():
            res = search_schedules(
                group, arrays, backend="numpy", budget=2, repeats=1,
                candidates=[ScheduleOptions(), ScheduleOptions(fuse=True)],
            )
        refused = [t for t in res.trials if t.status == "refused"]
        assert refused, "a refused seed must be recorded"
        assert all(t.detail == "fuse-refused" for t in refused)
        recs = [
            e["args"] for e in tracing.events()
            if e["name"] == "tuning.candidate.refused"
        ]
        assert recs and recs[0]["kind"] == "fuse-refused"

    def test_trial_and_winner_events_emitted(self):
        group, shapes, arrays = lap_workload()
        with tracing.session():
            search_schedules(
                group, arrays, backend="numpy", budget=2, repeats=1,
            )
        counts = Counter(e["name"] for e in tracing.events())
        assert counts["tuning.trial"] >= 1
        assert counts["tuning.winner"] == 1

    def test_table_renders_all_trials(self):
        group, shapes, arrays = lap_workload()
        res = search_schedules(
            group, arrays, backend="numpy", budget=2, repeats=1,
        )
        table = res.table()
        assert "measured" in table and "predicted" in table
        assert table.count("\n") + 1 >= len(res.trials)

    def test_search_writes_nothing_and_returns_a_compilable_winner(
        self, tmp_path, monkeypatch
    ):
        # a pure function of its arguments: the winner is the return
        # value, passed on as schedule=, and no file appears anywhere
        monkeypatch.setenv("SNOWFLAKE_CACHE_DIR", str(tmp_path))
        group, shapes, arrays = lap_workload()
        ref = {g: a.copy() for g, a in arrays.items()}
        res = search_schedules(
            group, {g: a.copy() for g, a in arrays.items()},
            backend="numpy", budget=2, repeats=1,
        )
        assert list(tmp_path.iterdir()) == []
        got = {g: a.copy() for g, a in arrays.items()}
        group.compile(backend="numpy", schedule=res.best)(**got)
        group.compile(backend="python")(**ref)
        for g in sorted(shapes):
            np.testing.assert_allclose(got[g], ref[g], rtol=1e-12)

    def test_beam_width_is_a_constant(self):
        from repro.tuning.search import BEAM_WIDTH

        assert BEAM_WIDTH == 4
        group, shapes, arrays = lap_workload()
        with pytest.raises(TypeError, match="beam_width"):
            search_schedules(
                group, arrays, backend="numpy", budget=1, repeats=1,
                beam_width=2,
            )

    def test_bad_budget_and_strategy_rejected(self):
        group, shapes, arrays = lap_workload()
        with pytest.raises(ValueError, match="budget"):
            search_schedules(group, arrays, backend="numpy", budget=0)
        with pytest.raises(ValueError, match="repeats"):  # nothing timed
            search_schedules(
                group, arrays, backend="numpy", budget=2, repeats=0
            )
        with pytest.raises(TypeError):  # one strategy: not an option
            search_schedules(
                group, arrays, backend="numpy", strategy="genetic"
            )

    def test_backend_refusal_at_measure_time_terminates(self, monkeypatch):
        # a time-tiled seed is predicted fine and refused by a backend
        # asked to lower it; the search records that and moves on
        be = NoTimeTileBackend()
        monkeypatch.setitem(base._REGISTRY, be.name, be)
        group, shapes, arrays = lap_workload()
        res = search_schedules(
            group, arrays, backend=be.name, budget=2, repeats=1,
            candidates=[ScheduleOptions(), ScheduleOptions(time_tile=2)],
        )
        assert res.best.time_tile == 1 and len(res.measured()) == 2
        refused = [t for t in res.trials if t.status == "refused"]
        assert [t.options for t in refused] == [ScheduleOptions(time_tile=2)]
        assert refused[0].detail == "not-implemented"
