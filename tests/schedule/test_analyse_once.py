"""Schedule construction analyses each (group, shapes) once.

``analysis.plan`` makes one pairwise dependence pass and one hazard
analysis per stencil (above the structure threshold, the shape family's
one symbolic pass); the lowering and the verifier that checks its
result read those verdicts off the plan instead of re-deriving them.
"""

import sys

import pytest

from repro.analysis import dag, dependence, footprint, structure
from repro.core.expr import Param
from repro.hpgmg.operators import smooth_group, vc_laplacian
from repro.schedule import ScheduleOptions, build_schedule

PRESETS = {
    "plain": ScheduleOptions(multicolor=False),
    "fuse": ScheduleOptions(fuse=True),
    "multicolor": ScheduleOptions(multicolor=True),
    "tile": ScheduleOptions(tile=4),
    "time_tile": ScheduleOptions(time_tile=2),
    "all": ScheduleOptions(fuse=True, tile=4, time_tile=2),
}


def _count(monkeypatch, real) -> list:
    """Record every call of ``real`` through any ``repro`` module that
    imported it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and (
            getattr(mod, real.__name__, None) is real
        ):
            monkeypatch.setattr(mod, real.__name__, counting)
    return calls


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_build_schedule_analyses_once(monkeypatch, preset):
    # a fresh structure memo: the one analysis happens in this build
    monkeypatch.setattr(structure, "_VERDICTS", type(structure._VERDICTS)())
    group = smooth_group(3, vc_laplacian(3, 0.1, inv_h2=Param("inv_h2")), lam="lam")
    shapes = {g: (10, 10, 10) for g in group.grids()}
    plans = _count(monkeypatch, dag.plan)
    hazards = _count(monkeypatch, dependence.intra_stencil_hazards)
    early_exit = _count(monkeypatch, footprint.access_conflicts)
    details = _count(monkeypatch, footprint.access_conflict_details)

    sched = build_schedule(group, shapes, PRESETS[preset])

    assert len(plans) == 1
    assert len(hazards) <= len(group)
    assert early_exit == []
    assert len(details) == len(group) * (len(group) - 1) // 2
    assert sched.plan.parallel_within == tuple(not h for h in sched.plan.hazards)
