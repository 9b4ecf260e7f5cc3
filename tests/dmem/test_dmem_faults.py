"""End-to-end dmem fault matrix: whole distributed runs stay exact
under every wire fault, rank grids have full guard parity with slabs,
and a crashed rank is detected and recovered on every rank layout.
"""

import warnings

import numpy as np
import pytest

from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import Stencil, StencilGroup
from repro.core.weights import WeightArray
from repro.dmem import DistributedKernel, RankFailure, RecoveryPolicy
from repro.resilience.faults import arm, inject
from repro.resilience.guards import Guards, GuardViolation, GuardWarning

pytestmark = pytest.mark.faults

LAP = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
INTERIOR = RectDomain((1, 1), (-1, -1))

#: every wire-level fault the reliable transport must heal end-to-end
WIRE_FAULTS = (
    "comm.send.drop",
    "comm.recv.drop",
    "comm.payload.corrupt",
    "comm.msg.duplicate",
    "comm.msg.reorder",
)


def _group():
    return StencilGroup([Stencil(LAP, "u", INTERIOR, name="smooth")])


def _dk(n=16, nranks=3, **kw):
    return DistributedKernel(
        _group(), (n, n), nranks, backend="numpy", **kw
    )


def _dk2(grid=(2, 2), n=12, **kw):
    return _dk(n=n, nranks=grid, **kw)


def _fault_free(u0, times=1, **kw):
    ref = np.array(u0, copy=True)
    dk = _dk(n=u0.shape[0], **kw)
    dk.scatter(u=ref)
    dk.run(times)
    dk.gather(u=ref)
    return ref


class TestWireFaultMatrix:
    @pytest.mark.parametrize("site", WIRE_FAULTS)
    def test_single_fault_healed_end_to_end(self, site, rng):
        u0 = rng.random((16, 16))
        ref = _fault_free(u0, times=2)
        u = np.array(u0, copy=True)
        dk = _dk()
        dk.scatter(u=u)
        with inject(site, times=2):
            dk.run(2)
        dk.gather(u=u)
        np.testing.assert_array_equal(u, ref)

    def test_combined_faults_healed_end_to_end(self, rng):
        u0 = rng.random((16, 16))
        ref = _fault_free(u0, times=2)
        u = np.array(u0, copy=True)
        dk = _dk()
        dk.scatter(u=u)
        for site in WIRE_FAULTS:
            arm(site, times=2)
        dk.run(2)
        dk.gather(u=u)
        np.testing.assert_array_equal(u, ref)
        s = dk.comm_stats
        assert s.retransmits >= 1
        assert s.duplicates >= 1
        assert s.crc_failures >= 1

    def test_describe_reports_resilience_state(self, rng):
        dk = _dk()
        dk.scatter(u=rng.random((16, 16)))
        with inject("comm.send.drop", times=1):
            dk.run()
        d = dk.describe_dict()
        assert d["transport"] == {
            "max_retries": 4,
            "delivery": "exactly-once (seq + CRC + ack/retransmit)",
        }
        assert d["comm_stats"]["retransmits"] >= 1
        assert d["dead_ranks"] == []
        text = dk.describe()
        assert "exactly-once" in text
        assert "retransmits" in text


class TestExecutor2DGuardParity:
    """Rank grids ride the same reliable transport as slabs, so
    halo-checksum guard semantics are the same on both."""

    def _reference(self, u0, grid=(2, 2)):
        ref = np.array(u0, copy=True)
        _dk2(grid=grid, n=u0.shape[0])(u=ref)
        return ref

    def test_corruption_raises_under_guard_raise(self, rng):
        dk = _dk2(guards=Guards(halo_checksum="raise"))
        with inject("comm.payload.corrupt", times=1):
            with pytest.raises(GuardViolation, match="corrupted in flight"):
                dk(u=rng.random((12, 12)))

    def test_corruption_warns_under_guard_warn(self, rng):
        u0 = rng.random((12, 12))
        ref = self._reference(u0)
        dk = _dk2(guards=Guards(halo_checksum="warn"))
        u = np.array(u0, copy=True)
        with inject("comm.payload.corrupt", times=1):
            with pytest.warns(GuardWarning, match="halo_checksum"):
                dk(u=u)
        np.testing.assert_array_equal(u, ref)  # warned AND healed

    def test_corruption_healed_silently_with_guards_off(self, rng):
        u0 = rng.random((12, 12))
        ref = self._reference(u0)
        dk = _dk2()  # guards default off
        u = np.array(u0, copy=True)
        with inject("comm.payload.corrupt", times=1):
            with warnings.catch_warnings():
                warnings.simplefilter("error", GuardWarning)
                dk(u=u)
        np.testing.assert_array_equal(u, ref)
        assert dk.comm_stats.crc_failures == 1

    @pytest.mark.parametrize("site", WIRE_FAULTS)
    def test_wire_faults_healed_on_the_rank_grid(self, site, rng):
        u0 = rng.random((12, 12))
        ref = self._reference(u0)
        u = np.array(u0, copy=True)
        dk = _dk2()
        with inject(site, times=2):
            dk(u=u)
        np.testing.assert_array_equal(u, ref)


@pytest.mark.parametrize("ranks", [3, (3,), (2, 2)])
class TestRankCrash:
    """One failure contract on every rank layout: an injected crash is a
    typed RankFailure, and a RecoveryPolicy replays it away bitwise."""

    def test_crash_is_a_typed_failure(self, ranks, rng):
        dk = _dk(nranks=ranks)
        dk.scatter(u=rng.random((16, 16)))
        with inject("comm.rank.crash", times=1):
            with pytest.raises(RankFailure, match="rank 0 has failed"):
                dk.run()
        assert dk.comms[0].dead_ranks() == {0}

    def test_mid_run_crash_recovers_bitwise(self, ranks, rng):
        u0 = rng.random((16, 16))
        ref = _fault_free(u0, times=3, nranks=ranks)
        u = np.array(u0, copy=True)
        dk = _dk(nranks=ranks)
        dk.scatter(u=u)
        # one probe per rank per sweep: this skips sweep 1 and rank 0
        with inject("comm.rank.crash", times=1, after=len(dk.slabs) + 1):
            dk.run(3, recovery=RecoveryPolicy())
        dk.gather(u=u)
        np.testing.assert_array_equal(u, ref)  # bitwise, not allclose
        assert dk.comm_stats.crashes == 1
        assert dk.comm_stats.restores == 1
        assert not dk.comms[0].dead_ranks()
