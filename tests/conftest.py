"""Pytest fixtures for the whole suite."""

import numpy as np
import pytest

#: the per-core L2 every test sees (the lowering of a time tile reads
#: it), so no test depends on the host's caches
TEST_L2_BYTES = 2 * 2**20


@pytest.fixture(autouse=True, scope="session")
def fixed_l2():
    from repro.machine import specs

    saved = specs._L2[:]
    specs._L2[:] = [TEST_L2_BYTES]
    yield
    specs._L2[:] = saved


@pytest.fixture
def l2(monkeypatch):
    """``l2(nbytes)`` sets the per-core L2 for this test (``0``: every
    time tile whose lags are admitted lags its applications; ``None``:
    no L2 listed) and empties the schedule memo."""
    from repro.machine import specs
    from repro.schedule import lower

    def set_l2(nbytes):
        monkeypatch.setattr(specs, "_L2", [nbytes])
        monkeypatch.setattr(lower, "_CACHE", type(lower._CACHE)())

    return set_l2


@pytest.fixture
def always_lag(l2):
    l2(0)


@pytest.fixture
def rng():
    return np.random.default_rng(20170529)  # IPDPSW 2017
