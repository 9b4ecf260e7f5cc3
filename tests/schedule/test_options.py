"""ScheduleOptions validation and the one resolver, ``Backend.pop_schedule``."""

import pytest

from repro.backends import get_backend
from repro.schedule import POLICIES, Schedule, ScheduleOptions, schedule_for
from tests.schedule._cases import laplacian_pair


class TestScheduleOptions:
    def test_defaults(self):
        o = ScheduleOptions()
        assert o.policy == "greedy"
        assert o.fuse is False
        assert o.multicolor is True
        assert o.tile is None
        assert o.block is None
        assert o.time_tile == 1

    @pytest.mark.parametrize("time_tile", [0, -3, "deep"])
    def test_bad_time_tile_rejected(self, time_tile):
        with pytest.raises(ValueError):
            ScheduleOptions(time_tile=time_tile)

    def test_time_tile_in_describe_and_dict(self):
        o = ScheduleOptions(time_tile=4)
        assert "time_tile=4" in o.describe()
        assert o.to_dict()["time_tile"] == 4
        assert "time_tile" not in ScheduleOptions().describe()

    @pytest.mark.parametrize("policy", POLICIES)
    def test_valid_policies(self, policy):
        assert ScheduleOptions(policy=policy).policy == policy

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            ScheduleOptions(policy="eager")

    @pytest.mark.parametrize("tile", [0, -4, "wide"])
    def test_bad_tile_rejected(self, tile):
        with pytest.raises(ValueError):
            ScheduleOptions(tile=tile)

    @pytest.mark.parametrize("block", [(0, 4), (32,), "32x4"])
    def test_bad_block_rejected(self, block):
        with pytest.raises(ValueError):
            ScheduleOptions(block=block)

    def test_bools_coerced_and_hashable(self):
        o = ScheduleOptions(fuse=1, multicolor=0)
        assert o.fuse is True and o.multicolor is False
        assert hash(o) == hash(ScheduleOptions(fuse=True, multicolor=False))

    def test_describe_and_to_dict(self):
        o = ScheduleOptions(fuse=True, tile=8)
        assert "fuse=on" in o.describe() and "tile=8" in o.describe()
        assert o.to_dict()["tile"] == 8

    def test_options_round_trip_every_field(self):
        # how a tuned winner travels: `repro tune --json` prints
        # to_dict(), ScheduleOptions(**...) rebuilds it (block from a list)
        o = ScheduleOptions(
            policy="wavefront", fuse=True, multicolor=False,
            tile=16, block=(8, 4), time_tile=2, unroll=4,
        )
        assert set(o.to_dict()) == set(ScheduleOptions.__dataclass_fields__)
        assert ScheduleOptions(**o.to_dict()) == o

    def test_schedule_for_none_is_the_defaults(self):
        group, shapes = laplacian_pair()
        assert schedule_for(group, shapes, None).options == ScheduleOptions()


def resolve(options, backend="c"):
    """What ``compile(backend=..., **options)`` would schedule."""
    group, shapes = laplacian_pair()
    return get_backend(backend).pop_schedule(group, options)(shapes)


class TestPopScheduleSpec:
    def test_unknown_knob_names_valid_set(self):
        with pytest.raises(TypeError, match="tile"):
            resolve({"tilesize": 8})

    def test_builds_options_from_loose_knobs(self):
        opts = {"fuse": True, "tile": 4}
        assert resolve(opts).options == ScheduleOptions(fuse=True, tile=4)
        assert opts == {}  # consumed

    def test_policy_string_accepted(self):
        assert resolve({"schedule": "wavefront"}).options.policy == "wavefront"

    def test_loose_knobs_fill_from_the_backend_defaults(self):
        assert resolve({}, "openmp").options == ScheduleOptions(
            fuse=True, tile=8
        )
        assert resolve({}, "c").options == ScheduleOptions(fuse=True)
        assert resolve({"tile": 2}, "openmp").options.tile == 2
        for b in ("numpy", "python", "opencl-sim", "cuda-sim"):
            assert resolve({}, b).options == ScheduleOptions(multicolor=False)

    def test_prebuilt_options_pass_through(self):
        # an explicit record is taken verbatim: no backend default applies
        o = ScheduleOptions(fuse=True)
        assert resolve({"schedule": o}, "openmp").options == o

    def test_mixing_prebuilt_with_loose_knobs_rejected(self):
        with pytest.raises(TypeError, match="combine"):
            resolve({"schedule": ScheduleOptions(), "tile": 8})

    def test_mixing_prebuilt_schedule_with_loose_knobs_rejected(self):
        group, shapes = laplacian_pair()
        sched = schedule_for(group, shapes)
        assert isinstance(sched, Schedule)
        with pytest.raises(TypeError, match="combine"):
            resolve({"schedule": sched, "fuse": True})

    def test_non_string_spec_rejected(self):
        with pytest.raises(TypeError, match="policy"):
            resolve({"schedule": 42})

    def test_unknown_policy_string_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            resolve({"schedule": "eager"})

    def test_backend_surface_rejects_undeclared_knob(self):
        group, shapes = laplacian_pair()
        for backend in ("numpy", "c", "cuda-sim"):
            with pytest.raises(TypeError, match="tile"):
                group.compile(backend=backend, shapes=shapes, tilesize=8)
