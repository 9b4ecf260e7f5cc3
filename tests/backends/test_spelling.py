"""One scheduling vocabulary, two spellings, one verdict — on every backend.

``compile(backend=b, tile=4)`` and
``compile(backend=b, schedule=ScheduleOptions(tile=4))`` go through the
same resolver (:meth:`repro.backends.base.Backend.pop_schedule`): both
run and agree bitwise with the reference interpreter, or both raise the
same exception type.  A hint a backend has no lowering for is accepted
and ignored; ``time_tile`` is honoured by every backend.
"""

import numpy as np
import pytest

from repro.schedule import ScheduleOptions
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
    semantic = {"time_tile": value} if field == "time_tile" else {}
    reference = outcome("python", **semantic)
    assert_same(loose, reference)
    assert_same(record, reference)


@pytest.mark.parametrize("backend", BACKENDS)
def test_tuned_is_refused(backend):
    # a tuned schedule is passed as schedule=result.best; the string
    # "tuned" names no policy and reads no persisted winner
    group, shapes, _ = gsrb_workload(8)
    options = {"schedule": "tuned"}
    with pytest.raises(
        ValueError,
        match=r"unknown scheduling policy 'tuned'; choose from "
        r"\('greedy', 'wavefront', 'serial'\)",
    ):
        group.compile(backend=backend, shapes=shapes, **options)
