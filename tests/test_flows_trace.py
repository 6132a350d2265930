"""Unit tests for traffic generators and flow statistics."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.flows import CBRSource, PacketSink
from repro.simnet.network import Network
from repro.simnet.packet import Packet
from repro.simnet.trace import FlowStats


def two_hosts(rate=10e6, delay=0.001):
    sim = Simulator(seed=1)
    net = Network(sim)
    net.add_host("a")
    net.add_host("b")
    net.add_duplex("a", "b", rate, delay=delay)
    net.build_routes()
    return sim, net


class TestCBR:
    def test_rate_accuracy(self):
        sim, net = two_hosts()
        sink = PacketSink(net["b"], 80)
        CBRSource(net["a"], "b", 80, rate_bps=1e6, packet_size=1250)
        sim.run(until=10.0)
        rate = sink.stats.throughput_bps(1.0, 9.0)
        assert rate == pytest.approx(1e6, rel=0.05)

    def test_invalid_rate(self):
        sim, net = two_hosts()
        with pytest.raises(ValueError):
            CBRSource(net["a"], "b", 80, rate_bps=0)


class TestFlowStats:
    def test_mean_delay(self):
        stats = FlowStats()
        stats.record(Packet(src="a", dst="b", size=10, created_at=0.0), 0.1)
        stats.record(Packet(src="a", dst="b", size=10, created_at=0.0), 0.3)
        assert stats.mean_delay() == pytest.approx(0.2)

    def test_delay_percentile(self):
        stats = FlowStats()
        for i in range(101):
            stats.record(Packet(src="a", dst="b", size=1, created_at=0.0), i / 100.0)
        assert stats.delay_percentile(50) == pytest.approx(0.5)
        assert stats.delay_percentile(95) == pytest.approx(0.95)

    def test_jitter_constant_delay_is_zero(self):
        stats = FlowStats()
        for i in range(10):
            stats.record(Packet(src="a", dst="b", size=1, created_at=float(i)), i + 0.05)
        assert stats.jitter() == pytest.approx(0.0)

    def test_per_flow_filtering(self):
        stats = FlowStats()
        stats.record(Packet(src="a", dst="b", size=100, flow="x"), 1.0)
        stats.record(Packet(src="a", dst="b", size=200, flow="y"), 1.0)
        assert stats.bytes_between(0, 2, flow="x") == 100
        assert stats.bytes_between(0, 2, flow="y") == 200

    def test_throughput_timeseries_covers_window(self):
        stats = FlowStats()
        stats.record(Packet(src="a", dst="b", size=125), 0.5)
        stats.record(Packet(src="a", dst="b", size=125), 1.5)
        series = stats.throughput_timeseries(1.0, until=2.0)
        assert len(series) == 2
        assert series[0][1] == pytest.approx(1000.0)

    def test_empty_stats(self):
        stats = FlowStats()
        assert stats.mean_delay() == 0.0
        assert stats.delay_percentile(50) == 0.0
        assert stats.throughput_timeseries(1.0) == []


