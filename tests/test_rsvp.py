"""Tests for RSVP-style reservations and the guaranteed-rate queue."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.flows import CBRSource, PacketSink
from repro.simnet.network import Network
from repro.simnet.packet import Packet
from repro.simnet.queues import DropTailQueue
from repro.transport import rsvp
from repro.transport.rsvp import AdmissionError, ReservationTable, ReservedQueue


def make_packet(flow="f", size=1000):
    return Packet(src="a", dst="b", size=size, flow=flow)


class TestReservedQueue:
    def test_reserved_flow_served_before_best_effort(self):
        q = ReservedQueue()
        q.add_reservation("vip", rate_bps=1e6)
        for _ in range(5):
            q.enqueue(make_packet("bulk"), 0.0)
        q.enqueue(make_packet("vip"), 0.0)
        assert q.dequeue(0.1).flow == "vip"

    def test_reservation_policed_by_token_bucket(self, monkeypatch):
        monkeypatch.setattr(rsvp, "BURST_SECONDS", 0.01)
        q = ReservedQueue()
        q.add_reservation("vip", rate_bps=8e3)  # 1000 bytes/s, burst 10 B
        q.enqueue(make_packet("vip", size=1000), 0.0)
        q.enqueue(make_packet("bulk", size=1000), 0.0)
        # No tokens accumulated yet -> best effort goes first.
        assert q.dequeue(0.001).flow == "bulk"
        # After a second, the bucket allows ~1000 bytes... but burst cap
        # is tiny, so the reserved packet is only served via the
        # work-conservation path once nothing else waits.
        assert q.dequeue(2.0).flow == "vip"

    def test_work_conservation_when_only_reserved_waits(self, monkeypatch):
        monkeypatch.setattr(rsvp, "BURST_SECONDS", 0.001)
        q = ReservedQueue()
        q.add_reservation("vip", rate_bps=8.0)  # absurdly small
        q.enqueue(make_packet("vip"), 0.0)
        assert q.dequeue(0.01) is not None  # link never idles

    def test_capacity_drop(self):
        q = ReservedQueue(capacity=2)
        assert q.enqueue(make_packet(), 0.0)
        assert q.enqueue(make_packet(), 0.0)
        assert not q.enqueue(make_packet(), 0.0)
        assert q.drops == 1

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            ReservedQueue().add_reservation("x", rate_bps=0)


class TestReservationTable:
    def make_net(self, rate=10e6):
        sim = Simulator(seed=1)
        net = Network(sim)
        net.add_host("a")
        net.add_host("b")
        net.add_duplex("a", "b", rate, delay=0.005, queue_down=DropTailQueue(200))
        net.build_routes()
        return sim, net

    def test_reserve_converts_queue(self):
        sim, net = self.make_net()
        table = ReservationTable(net)
        links = table.reserve_path("a", "b", "mar", 2e6)
        assert len(links) == 1
        assert isinstance(links[0].queue, ReservedQueue)
        assert links[0].queue.reserved_rate_bps() == 2e6

    def test_admission_control_rejects_overcommit(self):
        sim, net = self.make_net(rate=10e6)
        table = ReservationTable(net)
        table.reserve_path("a", "b", "one", 5e6)
        with pytest.raises(AdmissionError):
            table.reserve_path("a", "b", "two", 4e6)  # 9 > 8 admittable
        # Nothing was partially installed.
        assert net.path_links("a", "b")[0].queue.reserved_rate_bps() == 5e6

    def test_reserved_flow_latency_protected_under_congestion(self):
        """A reserved MAR flow keeps low delay while bulk floods the link."""
        sim, net = self.make_net(rate=5e6)
        table = ReservationTable(net)
        table.reserve_path("a", "b", "mar-flow", 1e6)

        mar_sink = PacketSink(net["b"], 80)
        bulk_sink = PacketSink(net["b"], 81)
        CBRSource(net["a"], "b", 80, rate_bps=0.8e6, packet_size=500,
                  flow="mar-flow")
        CBRSource(net["a"], "b", 81, rate_bps=20e6, packet_size=1200,
                  flow="bulk")  # 4x overload
        sim.run(until=10.0)
        mar_delay = mar_sink.stats.mean_delay()
        bulk_delay = bulk_sink.stats.mean_delay()
        assert mar_delay < 0.02            # reservation holds
        assert bulk_delay > mar_delay * 5  # bulk eats the queueing
        # The MAR flow lost nothing.
        assert mar_sink.stats.packets_total >= 0.99 * (0.8e6 * 10 / (500 * 8))
