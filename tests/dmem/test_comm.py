"""SimComm: the simulated message-passing fabric."""

import numpy as np
import pytest

from repro.dmem.comm import CommError, SimComm


class TestWorld:
    def test_world_construction(self):
        world = SimComm.world(4)
        assert [c.rank for c in world] == [0, 1, 2, 3]
        assert all(c.size == 4 for c in world)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            SimComm.world(0)


class TestSendRecv:
    def test_roundtrip_copies(self):
        w = SimComm.world(2)
        a = np.arange(4.0)
        w[0].send(a, dest=1, tag=7)
        a[0] = 99.0  # mutation after send must not leak (copy-out)
        got = w[1].recv(source=0, tag=7)
        np.testing.assert_array_equal(got, [0, 1, 2, 3])

    def test_fifo_per_channel(self):
        w = SimComm.world(2)
        w[0].send(np.array([1.0]), 1, tag=0)
        w[0].send(np.array([2.0]), 1, tag=0)
        assert w[1].recv(0, tag=0)[0] == 1.0
        assert w[1].recv(0, tag=0)[0] == 2.0

    def test_tags_are_separate_channels(self):
        w = SimComm.world(2)
        w[0].send(np.array([1.0]), 1, tag=5)
        w[0].send(np.array([2.0]), 1, tag=6)
        assert w[1].recv(0, tag=6)[0] == 2.0
        assert w[1].recv(0, tag=5)[0] == 1.0

    def test_missing_message_is_deadlock(self):
        w = SimComm.world(2)
        with pytest.raises(CommError, match="deadlock"):
            w[1].recv(source=0, tag=0)

    def test_self_send_rejected(self):
        w = SimComm.world(2)
        with pytest.raises(CommError):
            w[0].send(np.zeros(1), dest=0)

    def test_rank_range_checked(self):
        w = SimComm.world(2)
        with pytest.raises(CommError):
            w[0].send(np.zeros(1), dest=5)
        with pytest.raises(CommError):
            w[0].recv(source=-1)

    def test_sendrecv_pair(self):
        # a halo swap: both sides send before either receives
        w = SimComm.world(2)
        w[1].send(np.array([10.0]), 0, tag=3)
        w[0].send(np.array([20.0]), 1, tag=3)
        assert w[0].recv(1, tag=3)[0] == 10.0
        assert w[1].recv(0, tag=3)[0] == 20.0


class TestAccounting:
    def test_stats(self):
        w = SimComm.world(3)
        w[0].send(np.zeros(10), 1)
        w[1].send(np.zeros(5), 2)
        assert w[2].stats.messages == 2
        assert w[0].stats.bytes_sent == 15 * 8
        w[0].barrier()
        assert w[1].stats.barriers == 1

    def test_pending_messages(self):
        w = SimComm.world(2)
        assert w[1].probe(0) == 0
        w[0].send(np.zeros(1), 1)
        assert w[1].probe(0) == 1
        w[1].recv(0)
        assert w[1].probe(0) == 0


class TestStrictBarriers:
    def test_default_barrier_ignores_pending(self):
        w = SimComm.world(2)
        w[0].send(np.zeros(4), 1)
        w[1].barrier()  # permissive: just a counter
        assert w[1].stats.barriers == 1

    def test_strict_barrier_raises_on_pending(self):
        w = SimComm.world(2)
        w[0].send(np.zeros(4), 1, tag=7)
        with pytest.raises(CommError, match=r"src=0->dest=1 tag=7"):
            w[1].barrier(strict=True)

    def test_strict_world_makes_every_barrier_audit(self):
        w = SimComm.world(2, strict_barriers=True)
        w[0].barrier()  # clean fabric passes
        w[0].send(np.zeros(4), 1)
        with pytest.raises(CommError, match="still pending"):
            w[0].barrier()
        w[1].recv(0)
        w[1].barrier()  # drained: strict barrier passes again

    def test_per_call_strict_overrides_world_default(self):
        w = SimComm.world(2, strict_barriers=True)
        w[0].send(np.zeros(4), 1)
        w[0].barrier(strict=False)  # explicit opt-out wins
