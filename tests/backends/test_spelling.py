"""One scheduling vocabulary, two spellings, one verdict — on every backend.

``compile(backend=b, tile=4)`` and
``compile(backend=b, schedule=ScheduleOptions(tile=4))`` go through the
same resolver (:meth:`repro.backends.base.Backend.pop_schedule`): both
run and agree bitwise with the reference interpreter, or both raise the
same exception type.  A hint a backend has no lowering for is accepted
and ignored; ``time_tile`` is honoured or refused loudly.
"""

import numpy as np
import pytest

from repro.explain import explain
from repro.schedule import ScheduleOptions
from repro.tuning.cache import save_winner
from tests.schedule._cases import gsrb_workload

BACKENDS = ["python", "numpy", "c", "openmp", "opencl-sim", "cuda-sim"]

#: one non-default value per ScheduleOptions field
VALUES = {
    "policy": "wavefront",
    "fuse": True,
    "multicolor": True,
    "tile": 4,
    "block": (8, 8),
    "time_tile": 2,
    "unroll": 2,
}


def test_every_field_is_exercised():
    assert set(VALUES) == set(ScheduleOptions.__dataclass_fields__)


def outcome(backend, **options):
    """``("ok", arrays)`` after one call, or ``("raised", exception type)``."""
    group, shapes, arrays = gsrb_workload(8)
    try:
        group.compile(backend=backend, shapes=shapes, **options)(**arrays)
    except Exception as e:
        return "raised", type(e)
    return "ok", arrays


def assert_same(got, want):
    assert got[0] == want[0] == "ok", (got, want)
    for g in want[1]:
        np.testing.assert_array_equal(got[1][g], want[1][g])


@pytest.mark.parametrize("field", sorted(VALUES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_loose_and_record_spellings_agree(backend, field):
    value = VALUES[field]
    # the loose spelling of `policy` is schedule="<policy>"
    loose = outcome(backend, **{"schedule" if field == "policy" else field: value})
    record = outcome(backend, schedule=ScheduleOptions(**{field: value}))
    if loose[0] == "raised" or record[0] == "raised":
        assert loose == record
        # the only refusal in the matrix: the GPU dialects cannot lower
        # a time tile, and say so
        assert (field, loose[1]) == ("time_tile", NotImplementedError)
        assert backend in ("opencl-sim", "cuda-sim")
        return
    semantic = {"time_tile": value} if field == "time_tile" else {}
    reference = outcome("python", **semantic)
    assert_same(loose, reference)
    assert_same(record, reference)


@pytest.mark.parametrize("winner", [None, ScheduleOptions(tile=4, fuse=True)])
@pytest.mark.parametrize("backend", BACKENDS)
def test_schedule_tuned(backend, winner, tmp_path, monkeypatch):
    monkeypatch.setenv("SNOWFLAKE_CACHE_DIR", str(tmp_path))
    group, shapes, _ = gsrb_workload(8)
    defaults = explain(group, shapes, backend=backend).schedule.options
    if winner is not None:
        save_winner(group, shapes, winner, backend=backend, measured_s=1e-4)
    prov = explain(group, shapes, backend=backend, schedule="tuned")
    assert prov.schedule.options == (winner or defaults)
    assert_same(outcome(backend, schedule="tuned"), outcome("python"))
