"""Tests for offloading strategies and the simnet executor."""

import pytest

from repro.mar.application import APP_ARCHETYPES
from repro.mar.devices import CLOUD, SMART_GLASSES, SMARTPHONE
from repro.mar.offload import (
    FeatureOffload,
    FullOffload,
    LocalOnly,
    OffloadExecutor,
    TrackingOffload,
)
from repro.simnet.engine import Simulator
from repro.simnet.network import Network

GAMING = APP_ARCHETYPES["gaming"]
ORIENTATION = APP_ARCHETYPES["orientation"]


def scenario(rtt=0.02, down=100e6, up=50e6, seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim)
    net.add_host("client")
    net.add_host("server")
    net.add_duplex("server", "client", down, up, delay=rtt / 2)
    net.build_routes()
    return sim, net


class TestStrategies:
    def test_local_never_uses_network(self):
        plan = LocalOnly().plan_frame(GAMING, 0)
        assert not plan.needs_network
        assert plan.local_megacycles == GAMING.megacycles_per_frame

    def test_full_offload_ships_whole_frame(self):
        plan = FullOffload().plan_frame(GAMING, 0)
        assert plan.upload_bytes == GAMING.frame_upload_bytes
        assert plan.remote_megacycles == GAMING.megacycles_per_frame
        assert plan.local_megacycles < GAMING.megacycles_per_frame * 0.2

    def test_feature_offload_splits_compute(self):
        plan = FeatureOffload().plan_frame(GAMING, 0)
        assert plan.upload_bytes == GAMING.feature_upload_bytes
        total = plan.local_megacycles + plan.remote_megacycles
        assert total == pytest.approx(GAMING.megacycles_per_frame)

    def test_tracking_offload_only_triggers_touch_network(self):
        strat = TrackingOffload(trigger_interval=10)
        plans = [strat.plan_frame(GAMING, i) for i in range(20)]
        networked = [i for i, p in enumerate(plans) if p.needs_network]
        assert networked == [0, 10]

    def test_tracking_interval_validation(self):
        with pytest.raises(ValueError):
            TrackingOffload(trigger_interval=0)

    def test_mean_uplink_ordering(self):
        full = FullOffload().mean_uplink_bps(GAMING)
        features = FeatureOffload().mean_uplink_bps(GAMING)
        tracking = TrackingOffload(10).mean_uplink_bps(GAMING)
        local = LocalOnly().mean_uplink_bps(GAMING)
        assert full > features > local
        assert full > tracking > local


class TestExecutor:
    def test_link_rtt_measured_matches_path(self):
        sim, net = scenario(rtt=0.036)
        ex = OffloadExecutor(net, "client", "server", GAMING, FeatureOffload(), SMARTPHONE)
        result = ex.run(n_frames=60)
        assert result.mean_link_rtt == pytest.approx(0.036, abs=0.004)

    def test_local_strategy_latency_is_pure_compute(self):
        sim, net = scenario()
        ex = OffloadExecutor(net, "client", "server", ORIENTATION, LocalOnly(), SMARTPHONE)
        result = ex.run(n_frames=30)
        expected = SMARTPHONE.execution_time(ORIENTATION.megacycles_per_frame)
        assert result.mean_latency == pytest.approx(expected, rel=0.01)
        assert result.link_rtts  # pings still flow

    def test_offload_latency_grows_with_rtt(self):
        latencies = []
        for rtt in (0.008, 0.072, 0.120):
            sim, net = scenario(rtt=rtt)
            ex = OffloadExecutor(net, "client", "server", GAMING, FullOffload(),
                                 SMARTPHONE, server_device=CLOUD)
            latencies.append(ex.run(n_frames=60).mean_offloaded_latency)
        assert latencies[0] < latencies[1] < latencies[2]

    def test_full_offload_beats_local_for_glasses(self):
        sim, net = scenario(rtt=0.008)
        local = OffloadExecutor(net, "client", "server", GAMING, LocalOnly(),
                                SMART_GLASSES)
        res_local = local.run(n_frames=30)
        sim2, net2 = scenario(rtt=0.008)
        off = OffloadExecutor(net2, "client", "server", GAMING, FullOffload(),
                              SMART_GLASSES, server_device=CLOUD)
        res_off = off.run(n_frames=30)
        assert res_off.mean_latency < res_local.mean_latency

    def test_deadline_hit_rate_on_fast_path(self):
        sim, net = scenario(rtt=0.008)
        ex = OffloadExecutor(net, "client", "server", ORIENTATION, FullOffload(),
                             SMARTPHONE, server_device=CLOUD)
        result = ex.run(n_frames=60)
        assert result.deadline_hit_rate > 0.9

    def test_no_frame_loss_on_clean_path(self):
        sim, net = scenario()
        ex = OffloadExecutor(net, "client", "server", GAMING, FeatureOffload(), SMARTPHONE)
        result = ex.run(n_frames=100)
        assert result.loss_rate == 0.0
        assert result.frames_completed == 100

    def test_percentile_monotone(self):
        sim, net = scenario(rtt=0.036)
        ex = OffloadExecutor(net, "client", "server", GAMING, FullOffload(), SMARTPHONE)
        result = ex.run(n_frames=60)
        assert result.percentile(50) <= result.percentile(95)

    def test_tracking_strategy_mixes_latencies(self):
        sim, net = scenario(rtt=0.072)
        ex = OffloadExecutor(net, "client", "server", GAMING,
                             TrackingOffload(trigger_interval=5), SMARTPHONE,
                             server_device=CLOUD)
        result = ex.run(n_frames=50)
        # Tracked frames are much faster than offloaded ones.
        assert len(result.offloaded_latencies) == 10
        assert result.mean_latency < result.mean_offloaded_latency
