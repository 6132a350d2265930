"""Tests for the pose helpers and network monitors."""

import pytest

from repro.obs import LinkMonitor, MetricsRegistry, QueueMonitor, instrument
from repro.simnet.engine import Simulator
from repro.simnet.flows import CBRSource, PacketSink
from repro.simnet.network import Network
from repro.simnet.queues import DropTailQueue
from repro.vision.pose import rotation_about


class TestPose:
    def test_rotation_about_validation(self):
        with pytest.raises(ValueError):
            rotation_about("q", 0.1)


class TestMonitors:
    @pytest.fixture(autouse=True)
    def sample_intervals(self, monkeypatch):
        """The sampling periods these counts were written for."""
        monkeypatch.setattr(instrument, "QUEUE_SAMPLE_INTERVAL", 0.05)
        monkeypatch.setattr(instrument, "LINK_SAMPLE_INTERVAL", 0.25)

    def loaded_link(self, rate=2e6, offered=4e6):
        sim = Simulator(seed=1)
        net = Network(sim)
        net.add_host("a")
        net.add_host("b")
        link = net.add_link("a", "b", rate, delay=0.005,
                            queue=DropTailQueue(500))
        net.build_routes()
        PacketSink(net["b"], 80)
        CBRSource(net["a"], "b", 80, rate_bps=offered, packet_size=1000)
        return sim, link

    def test_queue_monitor_sees_buildup(self):
        registry = MetricsRegistry()
        sim, link = self.loaded_link()
        QueueMonitor(sim, link.queue, horizon=3.0,
                     registry=registry, name="q")
        sim.run(until=3.0)
        depth = registry.histogram("queue.q.packets")
        assert depth.moments.maximum > 50     # 2x overload builds queue
        assert depth.moments.mean > 10
        # Mean backlog drained at the 2 Mb/s link rate: the queuing delay.
        backlog = registry.gauge("queue.q.bytes").moments
        assert backlog.mean * 8 / 2e6 > 0.05

    def test_queue_monitor_idle_link(self):
        registry = MetricsRegistry()
        sim = Simulator(seed=2)
        net = Network(sim)
        net.add_host("a")
        net.add_host("b")
        link = net.add_link("a", "b", 1e6)
        QueueMonitor(sim, link.queue, horizon=1.0,
                     registry=registry, name="q")
        sim.run(until=1.0)
        assert registry.histogram("queue.q.packets").moments.maximum == 0.0
        assert registry.gauge("queue.q.bytes").moments.maximum == 0.0

    def test_link_monitor_utilization_saturated(self):
        registry = MetricsRegistry()
        sim, link = self.loaded_link()
        LinkMonitor(sim, link, horizon=4.0, registry=registry)
        sim.run(until=4.0)
        assert registry.histogram(f"link.{link.name}.utilization").moments.mean > 0.9
        peak = registry.gauge(f"link.{link.name}.throughput_bps").moments.maximum
        assert peak == pytest.approx(2e6, rel=0.1)

    def test_link_monitor_partial_load(self):
        registry = MetricsRegistry()
        sim, link = self.loaded_link(rate=10e6, offered=2e6)
        LinkMonitor(sim, link, horizon=4.0, registry=registry)
        sim.run(until=4.0)
        assert 0.1 < registry.histogram(f"link.{link.name}.utilization").moments.mean < 0.35

    def test_interval_validation(self, monkeypatch):
        monkeypatch.setattr(instrument, "QUEUE_SAMPLE_INTERVAL", 0.0)
        sim = Simulator()
        with pytest.raises(ValueError):
            QueueMonitor(sim, DropTailQueue(), horizon=1.0,
                         registry=MetricsRegistry())

    def test_horizon_bounds_monitor_and_drains_heap(self):
        """With a horizon the monitor stops rescheduling itself, so once
        the traffic stops a bare ``sim.run()`` (no ``until``) terminates."""
        registry = MetricsRegistry()
        sim = Simulator(seed=1)
        net = Network(sim)
        net.add_host("a")
        net.add_host("b")
        link = net.add_link("a", "b", 1e6)
        QueueMonitor(sim, link.queue, horizon=1.0,
                     registry=registry, name="q")
        LinkMonitor(sim, link, horizon=1.0, registry=registry)
        sim.run()
        assert sim.now <= 1.0
        # ~1.0/interval ticks; float accumulation may shave the last one.
        assert 19 <= registry.histogram("queue.q.packets").moments.count <= 21
        assert 3 <= registry.histogram(f"link.{link.name}.utilization").moments.count <= 4

    def test_monitors_feed_registry(self):
        registry = MetricsRegistry()
        sim, link = self.loaded_link()
        QueueMonitor(sim, link.queue, horizon=2.0,
                     registry=registry, name="uplink")
        LinkMonitor(sim, link, horizon=2.0,
                    registry=registry)
        sim.run(until=3.0)
        depth = registry.histogram("queue.uplink.packets")
        assert 39 <= depth.moments.count <= 41
        assert depth.bins.percentile(95) > 50    # overloaded link builds a queue
        util = registry.histogram(f"link.{link.name}.utilization").moments
        assert 7 <= util.count <= 8
        assert util.mean > 0.9
        assert registry.gauge("queue.uplink.bytes").moments.count == depth.moments.count
