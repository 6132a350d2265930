"""Tests for pose decomposition and network monitors."""

import numpy as np
import pytest

from repro.obs import LinkMonitor, MetricsRegistry, QueueMonitor
from repro.simnet.engine import Simulator
from repro.simnet.flows import CBRSource, PacketSink
from repro.simnet.network import Network
from repro.simnet.queues import DropTailQueue
from repro.vision.pose import (
    decompose_homography,
    default_intrinsics,
    homography_from_pose,
    rotation_about,
)


class TestPose:
    K = default_intrinsics()

    def make_pose(self, yaw=0.1, pitch=-0.05, roll=0.03, t=(0.2, -0.1, 2.0)):
        rotation = (rotation_about("z", yaw) @ rotation_about("y", pitch)
                    @ rotation_about("x", roll))
        return rotation, np.array(t)

    def test_round_trip_recovery(self):
        rotation, translation = self.make_pose()
        h = homography_from_pose(self.K, rotation, translation)
        pose = decompose_homography(h, self.K)
        assert np.allclose(pose.rotation, rotation, atol=1e-9)
        # Translation recovered up to the plane-distance scale.
        scale = translation[2] / pose.translation[2]
        assert np.allclose(pose.translation * scale, translation, atol=1e-9)

    def test_rotation_is_orthonormal(self):
        rotation, translation = self.make_pose(yaw=0.5, pitch=0.3)
        h = homography_from_pose(self.K, rotation, translation)
        pose = decompose_homography(h, self.K)
        assert np.allclose(pose.rotation @ pose.rotation.T, np.eye(3), atol=1e-9)
        assert np.linalg.det(pose.rotation) == pytest.approx(1.0)

    def test_camera_kept_in_front_of_plane(self):
        rotation, translation = self.make_pose()
        h = homography_from_pose(self.K, rotation, translation)
        # Scale flips are unobservable in H; decomposition must still
        # return t_z > 0.
        pose = decompose_homography(-2.5 * h, self.K)
        assert pose.translation[2] > 0

    def test_euler_angles_match_construction(self):
        rotation, translation = self.make_pose(yaw=0.2, pitch=-0.1, roll=0.05)
        h = homography_from_pose(self.K, rotation, translation)
        pose = decompose_homography(h, self.K)
        yaw, pitch, roll = pose.yaw_pitch_roll
        assert yaw == pytest.approx(0.2, abs=1e-6)
        assert pitch == pytest.approx(-0.1, abs=1e-6)
        assert roll == pytest.approx(0.05, abs=1e-6)

    def test_angle_to_self_is_zero(self):
        rotation, translation = self.make_pose()
        h = homography_from_pose(self.K, rotation, translation)
        pose = decompose_homography(h, self.K)
        assert pose.angle_to(pose) == pytest.approx(0.0, abs=1e-6)

    def test_angle_between_distinct_poses(self):
        r1, t = self.make_pose(yaw=0.0)
        r2, _ = self.make_pose(yaw=0.4)
        p1 = decompose_homography(homography_from_pose(self.K, r1, t), self.K)
        p2 = decompose_homography(homography_from_pose(self.K, r2, t), self.K)
        assert p1.angle_to(p2) == pytest.approx(0.4, abs=1e-6)

    def test_noisy_homography_still_close(self):
        rotation, translation = self.make_pose()
        h = homography_from_pose(self.K, rotation, translation)
        rng = np.random.default_rng(0)
        noisy = h + rng.normal(0, 1e-4, (3, 3))
        pose = decompose_homography(noisy, self.K)
        true_pose = decompose_homography(h, self.K)
        assert pose.angle_to(true_pose) < 0.01

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            decompose_homography(np.zeros((3, 3)), self.K)

    def test_rotation_about_validation(self):
        with pytest.raises(ValueError):
            rotation_about("q", 0.1)


class TestMonitors:
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
        QueueMonitor(sim, link.queue, interval=0.05, horizon=3.0,
                     registry=registry, name="q")
        sim.run(until=3.0)
        depth = registry.histogram("queue.q.packets")
        assert depth.moments.maximum > 50     # 2x overload builds queue
        assert depth.mean > 10
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
        QueueMonitor(sim, link.queue, interval=0.1, horizon=1.0,
                     registry=registry, name="q")
        sim.run(until=1.0)
        assert registry.histogram("queue.q.packets").moments.maximum == 0.0
        assert registry.gauge("queue.q.bytes").moments.maximum == 0.0

    def test_link_monitor_utilization_saturated(self):
        registry = MetricsRegistry()
        sim, link = self.loaded_link()
        LinkMonitor(sim, link, interval=0.25, horizon=4.0, registry=registry)
        sim.run(until=4.0)
        assert registry.histogram(f"link.{link.name}.utilization").mean > 0.9
        peak = registry.gauge(f"link.{link.name}.throughput_bps").moments.maximum
        assert peak == pytest.approx(2e6, rel=0.1)

    def test_link_monitor_partial_load(self):
        registry = MetricsRegistry()
        sim, link = self.loaded_link(rate=10e6, offered=2e6)
        LinkMonitor(sim, link, interval=0.25, horizon=4.0, registry=registry)
        sim.run(until=4.0)
        assert 0.1 < registry.histogram(f"link.{link.name}.utilization").mean < 0.35

    def test_interval_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            QueueMonitor(sim, DropTailQueue(), interval=0.0, horizon=1.0,
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
        QueueMonitor(sim, link.queue, interval=0.05, horizon=1.0,
                     registry=registry, name="q")
        LinkMonitor(sim, link, interval=0.25, horizon=1.0, registry=registry)
        sim.run()
        assert sim.now <= 1.0
        # ~1.0/interval ticks; float accumulation may shave the last one.
        assert 19 <= registry.histogram("queue.q.packets").count <= 21
        assert 3 <= registry.histogram(f"link.{link.name}.utilization").count <= 4

    def test_monitors_feed_registry(self):
        registry = MetricsRegistry()
        sim, link = self.loaded_link()
        QueueMonitor(sim, link.queue, interval=0.05, horizon=2.0,
                     registry=registry, name="uplink")
        LinkMonitor(sim, link, interval=0.25, horizon=2.0,
                    registry=registry)
        sim.run(until=3.0)
        depth = registry.histogram("queue.uplink.packets")
        assert 39 <= depth.count <= 41
        assert depth.percentile(95) > 50    # overloaded link builds a queue
        util = registry.histogram(f"link.{link.name}.utilization")
        assert 7 <= util.count <= 8
        assert util.mean > 0.9
        assert registry.gauge("queue.uplink.bytes").moments.count == depth.count
