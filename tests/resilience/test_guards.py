"""Runtime guards: NaN/Inf scan, invariants, halo checksums."""

import warnings

import numpy as np
import pytest

from repro import (
    Component,
    Guards,
    RectDomain,
    Stencil,
    StencilGroup,
    WeightArray,
)
from repro.dmem.executor import DistributedKernel
from repro.resilience.faults import inject
from repro.resilience.guards import GuardViolation, GuardWarning, halo_crc

pytestmark = pytest.mark.faults

LAP = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
INTERIOR = RectDomain((1, 1), (-1, -1))


def nan_input(n=8):
    u = np.ones((n, n))
    u[n // 2, n // 2] = np.nan
    return u


class TestConfig:
    def test_invalid_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            Guards(nonfinite="loud")

    def test_from_env_blanket(self, monkeypatch):
        monkeypatch.setenv("SNOWFLAKE_GUARDS", "warn")
        g = Guards.from_env()
        assert (g.nonfinite, g.invariants, g.halo_checksum) == (
            "warn", "warn", "warn",
        )

    def test_from_env_per_check(self, monkeypatch):
        monkeypatch.setenv(
            "SNOWFLAKE_GUARDS", "nonfinite=raise, halo_checksum=warn"
        )
        g = Guards.from_env()
        assert g.nonfinite == "raise"
        assert g.invariants == "off"
        assert g.halo_checksum == "warn"

    def test_from_env_bad_spec(self, monkeypatch):
        monkeypatch.setenv("SNOWFLAKE_GUARDS", "volume=11")
        with pytest.raises(ValueError, match="unknown guard"):
            Guards.from_env()

    def test_default_is_all_off(self):
        assert not Guards().enabled()
        assert not Guards.from_env().enabled()


class TestNonfiniteScan:
    def kernel(self, guards):
        return Stencil(LAP, "out", INTERIOR).compile(
            backend="numpy", guards=guards
        )

    def test_off_by_default_nan_propagates_silently(self):
        k = self.kernel(None)
        out = np.zeros((8, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error", GuardWarning)
            k(u=nan_input(), out=out)
        assert np.isnan(out).any()

    def test_warn_names_grid_and_count(self):
        k = self.kernel(Guards(nonfinite="warn"))
        with pytest.warns(GuardWarning, match=r"'out'.*non-finite"):
            k(u=nan_input(), out=np.zeros((8, 8)))

    def test_raise_severity(self):
        k = self.kernel(Guards(nonfinite="raise"))
        with pytest.raises(GuardViolation, match="nonfinite"):
            k(u=nan_input(), out=np.zeros((8, 8)))

    def test_clean_output_passes(self, rng):
        k = self.kernel(Guards(nonfinite="raise", invariants="raise"))
        k(u=rng.random((8, 8)), out=np.zeros((8, 8)))

    def test_env_guards_attach_without_code_changes(self, monkeypatch):
        monkeypatch.setenv("SNOWFLAKE_GUARDS", "nonfinite=raise")
        k = Stencil(LAP, "out", INTERIOR).compile(backend="numpy")
        with pytest.raises(GuardViolation):
            k(u=nan_input(), out=np.zeros((8, 8)))


class TestInvariants:
    def test_report_dispatch(self):
        g = Guards(invariants="raise")
        before = {"u": (np.dtype(np.float64), (4, 4))}
        ok = {"u": np.zeros((4, 4))}
        g.check_invariants(before, ok)  # no-op on clean state
        with pytest.raises(GuardViolation, match="changed across"):
            g.check_invariants(before, {"u": np.zeros((2, 2))})
        with pytest.raises(GuardViolation, match="dtype"):
            g.check_invariants(
                before, {"u": np.zeros((4, 4), dtype=np.float32)}
            )


class TestHaloChecksum:
    def dk(self, guards=None, n=16, **kw):
        group = StencilGroup(
            [Stencil(LAP, "u", INTERIOR, name="smooth")]
        )
        return DistributedKernel(
            group, (n, n), 2, backend="numpy", guards=guards, **kw
        )

    def reference(self, u0):
        ref = np.array(u0, copy=True)
        Stencil(LAP, "u", INTERIOR).compile(backend="python")(u=ref)
        return ref

    def test_clean_exchange_verifies(self, rng):
        u = rng.random((16, 16))
        ref = self.reference(u)
        dk = self.dk(Guards(halo_checksum="raise"))
        dk(u=u)
        np.testing.assert_allclose(u, ref)

    def test_corrupted_payload_raises(self, rng):
        dk = self.dk(Guards(halo_checksum="raise"))
        dk.scatter(u=rng.random((16, 16)))
        with inject("comm.payload.corrupt", times=1):
            with pytest.raises(GuardViolation, match="corrupted in flight"):
                dk.run()

    def test_corrupted_payload_warns(self, rng):
        dk = self.dk(Guards(halo_checksum="warn"))
        dk.scatter(u=rng.random((16, 16)))
        with inject("comm.payload.corrupt", times=1):
            with pytest.warns(GuardWarning, match="halo_checksum"):
                dk.run()
        assert dk.comm_stats.corrupted == 1

    def test_reliable_transport_heals_even_with_guards_off(self, rng):
        # the envelope CRC catches the corruption and retransmission
        # heals it — silently, because the guard severity is off
        u = rng.random((16, 16))
        ref = self.reference(u)
        dk = self.dk()  # guards default: all off
        dk.scatter(u=u)
        with inject("comm.payload.corrupt", times=1):
            with warnings.catch_warnings():
                warnings.simplefilter("error", GuardWarning)
                dk.run()
        dk.gather(u=u)
        np.testing.assert_allclose(u, ref)
        assert dk.comm_stats.crc_failures == 1

    def test_crc_is_content_addressed(self):
        a = np.arange(16.0)
        b = np.arange(16.0)
        assert halo_crc(a) == halo_crc(b)
        b[3] += 1e-12
        assert halo_crc(a) != halo_crc(b)
