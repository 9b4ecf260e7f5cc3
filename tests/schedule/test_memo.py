"""The ``schedule_for`` memo: LRU recency and build-once concurrency."""

import shutil
import threading
import time
from dataclasses import replace

import pytest

from repro.schedule import Evidence, ScheduleOptions, schedule_for
from repro.schedule import lower
from tests.schedule import _cases
from tests.schedule._cases import laplacian_pair


@pytest.fixture
def counted_builds(monkeypatch):
    """Fresh memo + a counter on the underlying build_schedule."""
    monkeypatch.setattr(lower, "_CACHE", type(lower._CACHE)())
    monkeypatch.setattr(lower, "_BUILDING", {})
    calls = []
    real = lower.build_schedule

    def counting(group, shapes, options=None):
        calls.append(options)
        time.sleep(0.02)  # widen the race window
        return real(group, shapes, options)

    monkeypatch.setattr(lower, "build_schedule", counting)
    return calls


class TestLRU:
    def test_hit_refreshes_recency(self, counted_builds, monkeypatch):
        monkeypatch.setattr(lower, "_CACHE_CAP", 3)
        group, shapes = laplacian_pair()
        opts = [ScheduleOptions(tile=t) for t in (2, 3, 4, 5)]
        for o in opts[:3]:
            schedule_for(group, shapes, o)  # fill to cap: [2, 3, 4]
        schedule_for(group, shapes, opts[0])  # touch 2 -> [3, 4, 2]
        schedule_for(group, shapes, opts[3])  # insert 5, evict 3
        assert len(counted_builds) == 4
        schedule_for(group, shapes, opts[0])  # still memoized
        assert len(counted_builds) == 4
        schedule_for(group, shapes, opts[1])  # 3 was evicted: rebuild
        assert len(counted_builds) == 5

    def test_fifo_would_have_evicted_the_hot_entry(
        self, counted_builds, monkeypatch
    ):
        # The regression the LRU fix pins: under FIFO the oldest-inserted
        # entry dies even while hot.
        monkeypatch.setattr(lower, "_CACHE_CAP", 2)
        group, shapes = laplacian_pair()
        hot = ScheduleOptions(tile=2)
        schedule_for(group, shapes, hot)
        for t in (3, 4, 5):
            schedule_for(group, shapes, hot)  # keep it hot
            schedule_for(group, shapes, ScheduleOptions(tile=t))
        n = len(counted_builds)
        schedule_for(group, shapes, hot)
        assert len(counted_builds) == n  # survived every eviction round


class TestBuildOnce:
    def test_concurrent_misses_build_once(self, counted_builds):
        group, shapes = laplacian_pair()
        opts = ScheduleOptions(tile=8)
        results = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            results.append(schedule_for(group, shapes, opts))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(counted_builds) == 1
        assert all(r is results[0] for r in results)

    def test_distinct_keys_each_build_once(self, counted_builds):
        group, shapes = laplacian_pair()
        all_opts = [ScheduleOptions(tile=t) for t in (2, 4)] * 4
        barrier = threading.Barrier(len(all_opts))

        def worker(o):
            barrier.wait()
            schedule_for(group, shapes, o)

        threads = [
            threading.Thread(target=worker, args=(o,)) for o in all_opts
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(counted_builds) == 2


class TestRefusedBuild:
    def test_refused_build_leaves_no_build_lock(self, monkeypatch):
        monkeypatch.setattr(lower, "_CACHE", type(lower._CACHE)())
        monkeypatch.setattr(lower, "_BUILDING", {})
        verify = lower.verify_schedule
        monkeypatch.setattr(
            lower, "verify_schedule",
            lambda sched: [Evidence("fuse-refused", "refused for the test")]
            if sched.options.fuse else verify(sched),
        )
        group, shapes = _cases.snapshot_group()
        with pytest.raises(lower.ScheduleError):
            schedule_for(group, shapes, ScheduleOptions(fuse=True))
        # a plain ValueError raised inside the build, under its lock
        held = []

        def refusing_plan(*args, **kwargs):
            held.append(dict(lower._BUILDING))
            raise ValueError("plan refused for the test")

        monkeypatch.setattr(lower, "plan", refusing_plan)
        with pytest.raises(ValueError, match="plan refused for the test"):
            schedule_for(group, shapes, ScheduleOptions())
        assert [len(h) for h in held] == [1]
        assert lower._BUILDING == {}
        assert len(lower._CACHE) == 0


class TestVerifiedOnce:
    """A schedule :func:`schedule_for` built is verified once: handing it
    back to :func:`as_schedule` (as ``compile_program`` hands it to
    ``generate``) does not check it again; a hand-built one is."""

    @pytest.fixture
    def verifications(self, monkeypatch):
        calls = []
        real = lower.verify_schedule
        monkeypatch.setattr(
            lower, "verify_schedule", lambda s: calls.append(s) or real(s)
        )
        monkeypatch.setattr(lower, "_CACHE", type(lower._CACHE)())
        return calls

    def test_memoized_schedule_is_not_reverified(self, verifications):
        group, shapes = _cases.gsrb_workload()[:2]
        sched = schedule_for(group, shapes)
        assert len(verifications) == 1
        assert lower.as_schedule(sched, group, shapes) is sched
        assert len(verifications) == 1

    def test_hand_built_schedule_is_verified_where_it_enters(
        self, verifications
    ):
        group, shapes = _cases.gsrb_workload()[:2]
        by_hand = replace(schedule_for(group, shapes))
        lower.as_schedule(by_hand, group, shapes)
        assert verifications[-1] is by_hand

    @pytest.mark.skipif(shutil.which("gcc") is None, reason="requires gcc")
    def test_solver_program_verifies_each_unit_once(self, verifications):
        from repro.hpgmg import Level, MultigridSolver

        solver = MultigridSolver(
            Level(8, 3, coefficients="variable"), backend="c"
        )
        assert len(verifications) == len(solver.program.kernels) == 10
