"""Unit tests for links: serialization, delay, jitter, loss, asymmetry."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet import link as link_module
from repro.simnet.link import DuplexLink, Link, VariableRateLink
from repro.simnet.packet import Packet
from repro.simnet.queues import DropTailQueue


class Collector:
    """Host stand-in that records arrivals."""

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.arrivals = []
        self.interfaces = []

    def add_interface(self, link):
        self.interfaces.append(link)

    def receive(self, packet, via=None):
        self.arrivals.append((self.sim.now, packet))


def make_link(sim, rate=1e6, delay=0.0, **kw):
    src = Collector(sim, "src")
    dst = Collector(sim, "dst")
    link = Link(sim, src, dst, rate_bps=rate, delay=delay, **kw)
    return link, src, dst


def test_serialization_time():
    sim = Simulator()
    link, _, dst = make_link(sim, rate=8e6)  # 8 Mb/s -> 1 µs per byte
    link.send(Packet(src="src", dst="dst", size=1000))
    sim.run()
    assert dst.arrivals[0][0] == pytest.approx(0.001)


def test_propagation_delay_added():
    sim = Simulator()
    link, _, dst = make_link(sim, rate=8e6, delay=0.05)
    link.send(Packet(src="src", dst="dst", size=1000))
    sim.run()
    assert dst.arrivals[0][0] == pytest.approx(0.051)


def test_back_to_back_packets_serialize_sequentially():
    sim = Simulator()
    link, _, dst = make_link(sim, rate=8e6)
    for _ in range(3):
        link.send(Packet(src="src", dst="dst", size=1000))
    sim.run()
    times = [t for t, _ in dst.arrivals]
    assert times == pytest.approx([0.001, 0.002, 0.003])


def test_queue_drop_when_full():
    sim = Simulator()
    link, _, dst = make_link(sim, rate=8e3, queue=DropTailQueue(capacity=2))
    # One in flight plus 2 queued; the 4th is dropped.
    results = [link.send(Packet(src="src", dst="dst", size=1000)) for _ in range(4)]
    assert results == [True, True, True, False]
    sim.run()
    assert len(dst.arrivals) == 3


def test_loss_drops_packets_statistically():
    sim = Simulator(seed=3)
    link, _, dst = make_link(sim, rate=1e9, loss=0.5, queue=DropTailQueue(1000))
    for _ in range(400):
        link.send(Packet(src="src", dst="dst", size=100))
    sim.run()
    assert 120 < len(dst.arrivals) < 280
    assert link.packets_lost == 400 - len(dst.arrivals)


def test_jitter_never_reorders():
    sim = Simulator(seed=1)
    link, _, dst = make_link(sim, rate=1e9, delay=0.01, jitter=0.02)
    for i in range(100):
        link.send(Packet(src="src", dst="dst", size=100, payload={"i": i}))
    sim.run()
    order = [p.payload["i"] for _, p in dst.arrivals]
    assert order == sorted(order)
    times = [t for t, _ in dst.arrivals]
    assert times == sorted(times)


def test_stats_accounting():
    sim = Simulator()
    link, _, dst = make_link(sim, rate=1e6)
    link.send(Packet(src="src", dst="dst", size=500))
    sim.run()
    assert link.bytes_sent == 500
    assert link.bytes_delivered == 500
    assert link.packets_delivered == 1


def test_wire_loss_accounts_bytes():
    """Wire drops must land in bytes_lost so goodput reports do not
    conflate lost and in-flight bytes."""
    sim = Simulator(seed=3)
    link, _, dst = make_link(sim, rate=1e9, loss=0.5, queue=DropTailQueue(1000))
    for _ in range(200):
        link.send(Packet(src="src", dst="dst", size=100))
    sim.run()
    assert link.packets_lost > 0
    assert link.bytes_lost == link.packets_lost * 100
    assert link.bytes_delivered == link.packets_delivered * 100
    # Conservation: everything serialized was delivered or lost.
    assert link.bytes_sent == link.bytes_delivered + link.bytes_lost
    assert link.bytes_in_flight == 0


def test_bytes_in_flight_mid_transfer():
    sim = Simulator()
    link, _, _ = make_link(sim, rate=8e3, delay=1.0)  # slow + long pipe
    link.send(Packet(src="src", dst="dst", size=1000))
    sim.run(until=1.5)  # serialized (1 s) but not yet delivered (2 s)
    assert link.bytes_sent == 1000
    assert link.bytes_in_flight == 1000
    sim.run()
    assert link.bytes_in_flight == 0


def test_queue_drops_surfaced_on_link():
    sim = Simulator()
    link, _, _ = make_link(sim, rate=8e3, queue=DropTailQueue(capacity=2))
    for _ in range(6):
        link.send(Packet(src="src", dst="dst", size=1000))
    assert link.queue_drops == 3  # 1 in flight + 2 queued, rest dropped
    sim.run()
    # Queue drops never pollute the wire-loss counters.
    assert link.packets_lost == 0
    assert link.bytes_lost == 0


def test_utilization():
    sim = Simulator()
    link, _, _ = make_link(sim, rate=1e6)
    link.send(Packet(src="src", dst="dst", size=12500))  # 0.1 s of airtime
    sim.run()
    assert link.utilization(1.0) == pytest.approx(0.1)


def test_invalid_parameters():
    sim = Simulator()
    with pytest.raises(ValueError):
        make_link(sim, rate=0)
    with pytest.raises(ValueError):
        make_link(sim, rate=1e6, loss=1.0)


class TestDuplexLink:
    def test_asymmetry_ratio(self):
        sim = Simulator()
        a = Collector(sim, "a")
        b = Collector(sim, "b")
        duplex = DuplexLink(sim, a, b, rate_down_bps=8e6, rate_up_bps=1e6)
        assert duplex.down.rate_bps / duplex.up.rate_bps == pytest.approx(8.0)

    def test_directions_independent(self):
        sim = Simulator()
        a = Collector(sim, "a")
        b = Collector(sim, "b")
        duplex = DuplexLink(sim, a, b, rate_down_bps=8e6, rate_up_bps=8e3)
        duplex.down.send(Packet(src="a", dst="b", size=1000))
        duplex.up.send(Packet(src="b", dst="a", size=1000))
        sim.run()
        assert b.arrivals[0][0] == pytest.approx(0.001)
        assert a.arrivals[0][0] == pytest.approx(1.0)

    def test_symmetric_default(self):
        sim = Simulator()
        duplex = DuplexLink(sim, Collector(sim, "a"), Collector(sim, "b"), 5e6)
        assert duplex.down.rate_bps == duplex.up.rate_bps == 5e6


class TestVariableRateLink:
    def test_rate_stays_within_bounds(self, monkeypatch):
        monkeypatch.setattr(link_module, "RATE_UPDATE_INTERVAL", 0.1)
        sim = Simulator(seed=2)
        src, dst = Collector(sim, "s"), Collector(sim, "d")
        link = VariableRateLink(
            sim, src, dst, mean_rate_bps=10e6, min_rate_bps=1e6, max_rate_bps=50e6,
            sigma=0.8,
        )
        sim.run(until=20.0)
        rates = [r for _, r in link.rate_history]
        assert all(1e6 <= r <= 50e6 for r in rates)
        assert len(rates) > 100

    def test_rate_varies(self, monkeypatch):
        monkeypatch.setattr(link_module, "RATE_UPDATE_INTERVAL", 0.1)
        sim = Simulator(seed=2)
        src, dst = Collector(sim, "s"), Collector(sim, "d")
        link = VariableRateLink(
            sim, src, dst, mean_rate_bps=10e6, min_rate_bps=1e6, max_rate_bps=50e6,
            sigma=0.5,
        )
        sim.run(until=5.0)
        rates = {round(r) for _, r in link.rate_history}
        assert len(rates) > 10

    def test_bounds_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            VariableRateLink(
                sim, Collector(sim, "s"), Collector(sim, "d"),
                mean_rate_bps=1e6, min_rate_bps=2e6, max_rate_bps=5e6,
            )


def test_parallel_links_draw_distinct_loss_and_jitter_streams():
    sim = Simulator(seed=4)
    src = Collector(sim, "src")
    first_dst, second_dst = Collector(sim, "dst"), Collector(sim, "dst")
    first = Link(sim, src, first_dst, rate_bps=8e6, jitter=0.01, loss=0.3)
    second = Link(sim, src, second_dst, rate_bps=8e6, jitter=0.01, loss=0.3)
    assert first.name == second.name == "src->dst"
    for link in (first, second):
        for seq in range(40):
            link.send(Packet(src="src", dst="dst", size=1000, dst_port=seq))
    sim.run()
    first_seen = [(t, p.dst_port) for t, p in first_dst.arrivals]
    second_seen = [(t, p.dst_port) for t, p in second_dst.arrivals]
    assert first_seen and second_seen
    assert first_seen != second_seen
