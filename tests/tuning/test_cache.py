"""Persistent tuning cache: round-trip, validation, and ``schedule="tuned"``."""

import json

import numpy as np
import pytest

from repro.explain import explain
from repro.schedule import ScheduleOptions, schedule_for
from repro.tuning.cache import (
    TUNE_SCHEMA,
    load_winner,
    machine_fingerprint,
    options_from_dict,
    save_winner,
    tune_tag,
    winner_path,
)
from tests.schedule._cases import fusable_pair_group, laplacian_pair


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("SNOWFLAKE_CACHE_DIR", str(tmp_path))
    return tmp_path


class TestRoundTrip:
    def test_save_then_load(self):
        group, shapes = laplacian_pair()
        opts = ScheduleOptions(tile=8, fuse=False)
        path = save_winner(
            group, shapes, opts, backend="numpy",
            measured_s=1.5e-4, predicted_s=2.5e-6, trials=3,
        )
        doc = load_winner(group, shapes, "numpy")
        assert doc is not None
        assert doc["schema"] == TUNE_SCHEMA
        assert doc["options"] == opts.to_dict()
        assert doc["measured_s"] == 1.5e-4
        assert doc["tune_tag"] == tune_tag(group, shapes)
        assert doc["fingerprint"] == machine_fingerprint()
        assert str(winner_path(group, shapes, "numpy")) == path

    def test_options_round_trip_every_field(self):
        opts = ScheduleOptions(
            policy="wavefront", fuse=True, multicolor=False,
            tile=16, block=(8, 4), time_tile=2, unroll=4,
        )
        assert options_from_dict(opts.to_dict()) == opts

    def test_different_shapes_do_not_collide(self):
        group, shapes = laplacian_pair(12)
        _, other = laplacian_pair(16)
        save_winner(
            group, shapes, ScheduleOptions(tile=8),
            backend="numpy", measured_s=1e-4,
        )
        assert load_winner(group, shapes, "numpy") is not None
        assert load_winner(group, other, "numpy") is None

    def test_backends_keep_separate_winners(self):
        # `repro tune --backend numpy` must neither overwrite nor steer
        # the c winner of the same group
        group, shapes = laplacian_pair()
        save_winner(
            group, shapes, ScheduleOptions(tile=4),
            backend="c", measured_s=1e-4,
        )
        save_winner(
            group, shapes, ScheduleOptions(tile=32, fuse=True),
            backend="numpy", measured_s=2e-4,
        )
        assert load_winner(group, shapes, "c")["options"]["tile"] == 4
        assert load_winner(group, shapes, "numpy")["options"]["tile"] == 32
        assert load_winner(group, shapes, "openmp") is None
        for b, tile in (("c", 4), ("numpy", 32), ("openmp", 8)):
            prov = explain(group, shapes, backend=b, schedule="tuned")
            assert prov.schedule.options.tile == tile


class TestValidation:
    def test_missing_file_is_none(self):
        group, shapes = laplacian_pair()
        assert load_winner(group, shapes, "numpy") is None

    def test_wrong_schema_rejected(self):
        group, shapes = laplacian_pair()
        save_winner(
            group, shapes, ScheduleOptions(tile=8),
            backend="numpy", measured_s=1e-4,
        )
        path = winner_path(group, shapes, "numpy")
        doc = json.loads(path.read_text())
        doc["schema"] = "snowflake-tune/1"  # what the old naming wrote
        path.write_text(json.dumps(doc))
        assert load_winner(group, shapes, "numpy") is None

    def test_file_under_the_old_backendless_name_is_ignored(self):
        group, shapes = laplacian_pair()
        save_winner(
            group, shapes, ScheduleOptions(tile=8),
            backend="numpy", measured_s=1e-4,
        )
        path = winner_path(group, shapes, "numpy")
        old = path.with_name(path.name.replace(".numpy.", "."))
        path.rename(old)
        assert load_winner(group, shapes, "numpy") is None

    def test_wrong_fingerprint_rejected(self):
        group, shapes = laplacian_pair()
        save_winner(
            group, shapes, ScheduleOptions(tile=8),
            backend="numpy", measured_s=1e-4,
        )
        path = winner_path(group, shapes, "numpy")
        doc = json.loads(path.read_text())
        doc["fingerprint"] = "deadbeefdeadbeef"
        path.write_text(json.dumps(doc))
        assert load_winner(group, shapes, "numpy") is None

    def test_corrupt_json_degrades_to_none(self):
        group, shapes = laplacian_pair()
        save_winner(
            group, shapes, ScheduleOptions(tile=8),
            backend="numpy", measured_s=1e-4,
        )
        winner_path(group, shapes, "numpy").write_text("{not json")
        assert load_winner(group, shapes, "numpy") is None
        # tuning must never break compilation: "tuned" is the defaults
        prov = explain(group, shapes, backend="numpy", schedule="tuned")
        assert prov.schedule.options == ScheduleOptions(multicolor=False)


class TestTunedSchedule:
    """``schedule="tuned"`` is the one way to a persisted winner."""

    def test_schedule_for_is_pure(self):
        # no ambient winner: None means the defaults, whatever is cached
        group, shapes = laplacian_pair()
        save_winner(
            group, shapes, ScheduleOptions(tile=16),
            backend="numpy", measured_s=1e-4,
        )
        assert schedule_for(group, shapes, None).options == ScheduleOptions()
        prov = explain(group, shapes, backend="numpy")
        assert prov.schedule.options.tile is None

    def test_explicit_options_always_win(self):
        group, shapes = laplacian_pair()
        save_winner(
            group, shapes, ScheduleOptions(tile=16),
            backend="numpy", measured_s=1e-4,
        )
        sched = schedule_for(group, shapes, ScheduleOptions(tile=4))
        assert sched.options.tile == 4

    def test_tuned_takes_hints_and_leaves_time_tile_to_the_caller(self):
        group, shapes = laplacian_pair()
        save_winner(
            group, shapes, ScheduleOptions(tile=8, fuse=True, time_tile=4),
            backend="numpy", measured_s=1e-4,
        )
        prov = explain(group, shapes, backend="numpy", schedule="tuned")
        assert prov.schedule.options == ScheduleOptions(tile=8, fuse=True)
        prov = explain(
            group, shapes, backend="numpy", schedule="tuned", time_tile=2
        )
        assert prov.schedule.options == ScheduleOptions(
            tile=8, fuse=True, time_tile=2
        )

    def test_unrelated_group_unaffected(self):
        group, shapes = laplacian_pair()
        other, other_shapes = fusable_pair_group()
        save_winner(
            group, shapes, ScheduleOptions(tile=16),
            backend="numpy", measured_s=1e-4,
        )
        prov = explain(other, other_shapes, backend="numpy", schedule="tuned")
        assert prov.schedule.options == ScheduleOptions(multicolor=False)

    def test_winner_executes_correctly(self):
        group, shapes = laplacian_pair()
        save_winner(
            group, shapes, ScheduleOptions(tile=8, fuse=False),
            backend="numpy", measured_s=1e-4,
        )
        rng = np.random.default_rng(5)
        arrays = {g: rng.standard_normal(s) for g, s in shapes.items()}
        ref = {g: a.copy() for g, a in arrays.items()}
        group.compile(backend="numpy", shapes=shapes)(**ref)
        got = {g: a.copy() for g, a in arrays.items()}
        # lazy shapes: the winner is looked up at the first call
        group.compile(backend="numpy", schedule="tuned")(**got)
        for g in sorted(shapes):
            np.testing.assert_array_equal(got[g], ref[g])

    def test_fresh_winner_is_visible_in_process(self):
        group, shapes = laplacian_pair()
        before = explain(group, shapes, backend="numpy", schedule="tuned")
        assert before.schedule.options.tile is None
        save_winner(
            group, shapes, ScheduleOptions(tile=8),
            backend="numpy", measured_s=1e-4,
        )
        after = explain(group, shapes, backend="numpy", schedule="tuned")
        assert after.schedule.options.tile == 8
