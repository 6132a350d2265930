"""Integration tests for scenarios and offloading sessions."""

import pytest

from repro.core.metrics import mos_score
from repro.core.scheduler import MultipathPolicy
from repro.core.session import OffloadSession, ScenarioBuilder


class TestScenarioBuilder:
    def test_single_path_rtt(self):
        sc = ScenarioBuilder(seed=1).single_path(rtt=0.036)
        rtt = sc.net.base_rtt("client", "server", packet_size=64)
        assert rtt == pytest.approx(0.036, abs=0.002)

    def test_single_path_metered_flag(self):
        sc = ScenarioBuilder().single_path(rtt=0.01, path_name="lte", metered=True)
        assert sc.metered["lte"]

    def test_multipath_has_two_distinct_routes(self):
        sc = ScenarioBuilder().multipath()
        wifi_path = [l.name for l in sc.net.path_links("client-wifi", "server")]
        lte_path = [l.name for l in sc.net.path_links("client-lte", "server")]
        assert wifi_path != lte_path
        assert any("ap" in name for name in wifi_path)
        assert any("enb" in name for name in lte_path)

    def test_multipath_two_servers_topology(self):
        sc = ScenarioBuilder().multipath(two_servers=True)
        assert "edge-server" in sc.net.nodes
        # WiFi path reaches the edge server in fewer ms than the cloud.
        edge_rtt = sc.net.base_rtt("client-wifi", "edge-server", packet_size=64)
        cloud_rtt = sc.net.base_rtt("client-lte", "server", packet_size=64)
        assert edge_rtt < cloud_rtt

    def test_d2d_assist_latency_ordering(self):
        sc = ScenarioBuilder().d2d_assist()
        d2d_rtt = sc.net.base_rtt("wearable", "companion", packet_size=64)
        cloud_rtt = sc.net.base_rtt("wearable", "server", packet_size=64)
        assert d2d_rtt < cloud_rtt / 3

    def test_path_endpoints_have_states(self):
        sc = ScenarioBuilder().multipath()
        endpoints = sc.path_endpoints()
        assert [e.state.name for e in endpoints] == ["wifi", "lte"]
        assert endpoints[1].state.is_metered


class TestOffloadSession:
    def test_clean_path_full_quality(self):
        sc = ScenarioBuilder(seed=5).single_path(rtt=0.02, up_bps=30e6)
        session = OffloadSession(sc)
        report = session.run(10.0)
        assert report.critical_intact
        assert report.mean_video_quality > 0.85
        assert mos_score(report) > 4.3

    def test_constrained_uplink_degrades_video_not_metadata(self):
        sc = ScenarioBuilder(seed=5).single_path(rtt=0.036, up_bps=3e6)
        session = OffloadSession(sc)
        report = session.run(15.0)
        assert report.critical_intact                 # metadata survived
        assert report.mean_video_quality < 0.8        # video degraded
        meta = report.per_class[0]
        assert meta.in_time_ratio > 0.95

    def test_all_streams_flow(self):
        sc = ScenarioBuilder(seed=2).single_path(rtt=0.02, up_bps=30e6)
        report = OffloadSession(sc).run(8.0)
        for stream_id, r in report.per_class.items():
            assert r.received > 0, r.name

    def test_multipath_aggregate_beats_single_lte(self):
        lte = ScenarioBuilder(seed=6).single_path(
            rtt=0.070, up_bps=8e6, path_name="lte", metered=True)
        lte_report = OffloadSession(lte).run(10.0)
        multi = ScenarioBuilder(seed=6).multipath()
        multi_report = OffloadSession(
            multi, policy=MultipathPolicy.AGGREGATE).run(10.0)
        assert multi_report.mean_video_quality >= lte_report.mean_video_quality - 0.05

    def test_wifi_preferred_avoids_metered_bytes(self):
        sc = ScenarioBuilder(seed=6).multipath()
        session = OffloadSession(sc, policy=MultipathPolicy.WIFI_PREFERRED)
        session.run(8.0)
        assert session.sender.scheduler.metered_fraction() == 0.0

    def test_aggregate_uses_both_paths(self):
        sc = ScenarioBuilder(seed=6).multipath()
        session = OffloadSession(sc, policy=MultipathPolicy.AGGREGATE)
        session.run(8.0)
        frac = session.sender.scheduler.metered_fraction()
        assert 0.1 < frac < 0.9

    def test_quality_timeline_recorded(self):
        sc = ScenarioBuilder(seed=3).single_path(rtt=0.02)
        session = OffloadSession(sc)
        report = session.run(5.0)
        assert len(report.video_quality_timeline) >= 100  # ~30/s over 5 s

    @pytest.mark.parametrize("missing", [2, 3])
    def test_stream_set_without_a_video_stream_is_a_key_error(self, missing):
        # The video source looks its two streams up by id on every frame;
        # a stream set without one used to leak a bare StopIteration out
        # of the event handler, i.e. out of ``Simulator.run``.
        from repro.core.traffic import mar_baseline_streams
        from repro.mar.video import VideoSource

        streams = [s for s in mar_baseline_streams() if s.stream_id != missing]
        sc = ScenarioBuilder(seed=3).single_path(rtt=0.02)
        with pytest.raises(KeyError) as no_default_video:
            OffloadSession(sc, streams=streams)
        assert no_default_video.value.args == (missing,)

        video = VideoSource(ref_bytes=5000, inter_bytes=1000)
        session = OffloadSession(sc, streams=streams, video=video)
        with pytest.raises(KeyError) as in_run:
            session.run(1.0)
        assert in_run.value.args == (missing,)
