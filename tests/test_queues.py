"""Unit tests for queue disciplines (DropTail, CoDel, FQ-CoDel)."""

import pytest

from repro.simnet import queues
from repro.simnet.packet import Packet
from repro.simnet.queues import CoDelQueue, DropTailQueue, FQCoDelQueue


def make_packet(size=1000, flow="f"):
    return Packet(src="a", dst="b", size=size, flow=flow)


class TestDropTail:
    def test_fifo_order(self):
        q = DropTailQueue(capacity=10)
        first, second = make_packet(), make_packet()
        q.enqueue(first, 0.0)
        q.enqueue(second, 0.0)
        assert q.dequeue(0.0) is first
        assert q.dequeue(0.0) is second

    def test_drops_at_capacity(self):
        q = DropTailQueue(capacity=2)
        assert q.enqueue(make_packet(), 0.0)
        assert q.enqueue(make_packet(), 0.0)
        assert not q.enqueue(make_packet(), 0.0)
        assert q.drops == 1
        assert len(q) == 2

    def test_byte_accounting(self):
        q = DropTailQueue()
        q.enqueue(make_packet(size=300), 0.0)
        q.enqueue(make_packet(size=200), 0.0)
        assert q.backlog_bytes == 500
        q.dequeue(0.0)
        assert q.backlog_bytes == 200

    def test_empty_dequeue_returns_none(self):
        assert DropTailQueue().dequeue(0.0) is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity=0)


class TestCoDel:
    def test_passes_packets_below_target(self):
        q = CoDelQueue()
        q.enqueue(make_packet(), 0.0)
        out = q.dequeue(0.001)  # 1 ms sojourn < 5 ms target
        assert out is not None
        assert q.drops == 0

    def test_no_drop_before_interval_elapses(self):
        q = CoDelQueue()
        q.enqueue(make_packet(), 0.0)
        q.enqueue(make_packet(), 0.0)
        q.enqueue(make_packet(), 0.0)
        # First dequeue above target only starts the interval clock.
        assert q.dequeue(0.05) is not None
        assert q.drops == 0

    def test_drops_under_persistent_delay(self):
        q = CoDelQueue()
        # Continuously refill so sojourn stays high past the interval.
        t = 0.0
        for step in range(400):
            q.enqueue(make_packet(), t)
            if step % 2 == 0:
                q.dequeue(t + 0.05)  # always 50 ms sojourn
            t += 0.01
        assert q.drops > 0

    def test_recovers_when_queue_drains(self):
        q = CoDelQueue()
        q.enqueue(make_packet(), 0.0)
        q.dequeue(0.5)  # huge sojourn but queue is nearly empty
        # backlog <= 1500 bytes guard prevents dropping the only packet
        assert q.drops == 0

    def test_hard_capacity(self, monkeypatch):
        monkeypatch.setattr(queues, "AQM_CAPACITY", 3)
        q = CoDelQueue()
        for _ in range(5):
            q.enqueue(make_packet(), 0.0)
        assert q.drops == 2


class TestFQCoDel:
    def test_flow_isolation_new_flow_priority(self):
        q = FQCoDelQueue()
        # Bulk flow fills first.
        for _ in range(20):
            q.enqueue(make_packet(size=1000, flow="bulk"), 0.0)
        # Thin flow arrives later.
        q.enqueue(make_packet(size=100, flow="thin"), 0.0)
        out = q.dequeue(0.001)
        assert out.flow in ("bulk", "thin")
        # Within the first quantum's worth of dequeues the thin flow
        # must be served (new-flow priority).
        served = [out.flow]
        for _ in range(3):
            served.append(q.dequeue(0.001).flow)
        assert "thin" in served

    def test_round_robin_between_backlogged_flows(self, monkeypatch):
        monkeypatch.setattr(queues, "FQ_QUANTUM", 1000)
        q = FQCoDelQueue()
        for _ in range(5):
            q.enqueue(make_packet(size=1000, flow="a"), 0.0)
            q.enqueue(make_packet(size=1000, flow="b"), 0.0)
        flows = [q.dequeue(0.0).flow for _ in range(10)]
        assert flows.count("a") == 5
        assert flows.count("b") == 5
        # Service must interleave, not serve one flow's 5 packets first.
        assert flows[:5].count("a") < 5

    def test_capacity_drops_from_fattest_flow(self, monkeypatch):
        monkeypatch.setattr(queues, "AQM_CAPACITY", 10)
        q = FQCoDelQueue()
        for _ in range(9):
            q.enqueue(make_packet(size=1000, flow="fat"), 0.0)
        q.enqueue(make_packet(size=100, flow="thin"), 0.0)
        # Next enqueue overflows; the fat flow should lose a packet.
        q.enqueue(make_packet(size=100, flow="thin2"), 0.0)
        assert q.drops == 1
        remaining_flows = []
        while True:
            p = q.dequeue(0.0)
            if p is None:
                break
            remaining_flows.append(p.flow)
        assert "thin" in remaining_flows
        assert remaining_flows.count("fat") == 8

    def test_len_tracks_enqueues_and_dequeues(self):
        q = FQCoDelQueue()
        q.enqueue(make_packet(flow="a"), 0.0)
        q.enqueue(make_packet(flow="b"), 0.0)
        assert len(q) == 2
        q.dequeue(0.0)
        assert len(q) == 1

    def test_empty_dequeue(self):
        assert FQCoDelQueue().dequeue(0.0) is None
