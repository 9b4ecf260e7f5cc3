"""Cost-model-guided schedule search: prediction, search, telemetry."""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import Stencil, StencilGroup
from repro.core.weights import WeightArray
from repro.schedule import ScheduleOptions
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


def snapshot_workload(n=10):
    """In-place symmetric read — refuses time tiling (snapshot step)."""
    w = WeightArray([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    s = Stencil(
        Component("u", w), "u", RectDomain((1, 1), (-1, -1)),
        name="inplace",
    )
    group = StencilGroup([s], name="snap")
    shapes = {"u": (n, n)}
    rng = np.random.default_rng(3)
    arrays = {g: rng.standard_normal(sh) for g, sh in shapes.items()}
    return group, shapes, arrays


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

    def test_refused_candidate_raises_through(self):
        from repro.transform import TransformError

        group, shapes, _ = snapshot_workload()
        with pytest.raises(TransformError):
            predict_schedule_time(
                group, shapes,
                ScheduleOptions(multicolor=False, time_tile=2),
                spec="paper-cpu",
            )

    def test_unknown_spec_rejected(self):
        group, shapes, _ = lap_workload()
        with pytest.raises(ValueError, match="unknown machine spec"):
            predict_schedule_time(
                group, shapes, ScheduleOptions(), spec="nonesuch"
            )


class TestSearch:
    def test_beam_measures_at_most_budget(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SNOWFLAKE_CACHE_DIR", str(tmp_path))
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
            candidates=cands, persist=False,
        )
        assert sorted(t.options.tile for t in res.measured()) == [2, 4, 64]
        assert res.best in cands
        # with budget to spare the listed ones still come first
        res = search_schedules(
            group, arrays, backend="numpy", budget=5, repeats=1,
            candidates=cands, persist=False,
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
            candidates=[seed], persist=False,
        )
        assert {t.options.time_tile for t in res.trials} == {2}

    def test_backend_alias_resolves_to_registry_name(self):
        group, shapes, arrays = lap_workload()
        res = search_schedules(
            group, arrays, backend="np", budget=1, repeats=1, persist=False,
        )
        assert res.backend == "numpy"

    def test_refused_candidates_recorded_with_evidence_kind(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("SNOWFLAKE_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("SNOWFLAKE_TELEMETRY", "events")
        telemetry.events.reset()
        group, shapes, arrays = snapshot_workload()
        res = search_schedules(
            group, arrays, backend="numpy", budget=2, repeats=1,
            candidates=[
                ScheduleOptions(multicolor=False),
                ScheduleOptions(multicolor=False, time_tile=2),
            ],
            persist=False,
        )
        refused = [t for t in res.trials if t.status == "refused"]
        assert refused, "an illegal time-tiled seed must be refused"
        assert all(
            t.detail == "time-tile-refused" for t in refused
        )
        recs = [
            r for r in telemetry.events.records()
            if r["event"] == "tuning.candidate.refused"
        ]
        assert recs and recs[0]["kind"] == "time-tile-refused"

    def test_trial_and_winner_events_emitted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SNOWFLAKE_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("SNOWFLAKE_TELEMETRY", "events")
        telemetry.events.reset()
        group, shapes, arrays = lap_workload()
        search_schedules(
            group, arrays, backend="numpy", budget=2, repeats=1,
        )
        counts = telemetry.events.counts_by_name()
        assert counts.get("tuning.trial", 0) >= 1
        assert counts.get("tuning.winner", 0) == 1

    def test_table_renders_all_trials(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SNOWFLAKE_CACHE_DIR", str(tmp_path))
        group, shapes, arrays = lap_workload()
        res = search_schedules(
            group, arrays, backend="numpy", budget=2, repeats=1,
            persist=False,
        )
        table = res.table()
        assert "measured" in table and "predicted" in table
        assert table.count("\n") + 1 >= len(res.trials)

    def test_bad_budget_and_strategy_rejected(self):
        group, shapes, arrays = lap_workload()
        with pytest.raises(ValueError):
            search_schedules(group, arrays, backend="numpy", budget=0)
        with pytest.raises(TypeError):  # one strategy: not an option
            search_schedules(
                group, arrays, backend="numpy", strategy="genetic"
            )

    def test_backend_refusal_at_measure_time_terminates(self):
        # cuda-sim predicts a time-tiled seed fine and refuses it when
        # asked to lower it; the search records that and moves on
        group, shapes, arrays = lap_workload()
        res = search_schedules(
            group, arrays, backend="cuda-sim", budget=2, repeats=1,
            candidates=[ScheduleOptions(), ScheduleOptions(time_tile=2)],
            persist=False,
        )
        assert res.best.time_tile == 1 and len(res.measured()) == 2
        refused = [t for t in res.trials if t.status == "refused"]
        assert [t.options for t in refused] == [ScheduleOptions(time_tile=2)]
        assert refused[0].detail == "not-implemented"
