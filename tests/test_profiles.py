"""Unit tests for wireless access profiles (Section IV-A numbers)."""

from dataclasses import replace

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.simnet.packet import Packet
from repro.wireless.profiles import (
    FIVE_G,
    HSPA_PLUS,
    LTE,
    LTE_DIRECT,
    WIFI_AC,
    WIFI_DIRECT,
    WIFI_HOME,
    WIFI_N,
    all_profiles,
    mbps,
)


def test_mbps_helper():
    assert mbps(2.5) == 2.5e6


class TestPaperNumbers:
    def test_hspa_measured_range(self):
        assert 0.3e6 <= HSPA_PLUS.down_mean <= 3.48e6
        assert HSPA_PLUS.rtt >= 0.109

    def test_lte_improves_on_hspa(self):
        assert LTE.down_mean > HSPA_PLUS.down_mean
        assert LTE.rtt < HSPA_PLUS.rtt

    def test_wifi_ac_faster_than_n(self):
        assert WIFI_AC.down_mean > WIFI_N.down_mean

    def test_5g_kpis_from_white_paper(self):
        assert FIVE_G.down_mean == pytest.approx(300e6)
        assert FIVE_G.up_mean == pytest.approx(50e6)
        assert FIVE_G.rtt == pytest.approx(0.010)

    def test_d2d_technologies_flagged(self):
        assert LTE_DIRECT.d2d and WIFI_DIRECT.d2d
        assert LTE_DIRECT.range_m == 1000.0
        assert WIFI_DIRECT.range_m == 200.0


class TestMarReadiness:
    def test_hspa_fails_everything(self):
        assert not HSPA_PLUS.mar_ready()
        assert not HSPA_PLUS.meets_mar_uplink()
        assert not HSPA_PLUS.meets_mar_latency()

    def test_lte_fails_uplink(self):
        # Measured LTE upload (~8 Mb/s) is just under the 10 Mb/s floor.
        assert not LTE.meets_mar_uplink()

    def test_public_wifi_fails_latency(self):
        assert not WIFI_N.meets_mar_latency()

    def test_home_wifi_ready(self):
        assert WIFI_HOME.mar_ready()

    def test_5g_kpi_ready(self):
        assert FIVE_G.mar_ready()

    def test_only_few_profiles_ready(self):
        ready = [p.name for p in all_profiles() if p.mar_ready()]
        assert "HSPA+" not in ready
        assert len(ready) <= 4


class TestAsymmetry:
    def test_cellular_profiles_asymmetric(self):
        assert LTE.down_mean / LTE.up_mean > 1.0
        assert FIVE_G.down_mean / FIVE_G.up_mean == pytest.approx(6.0)

    def test_wifi_symmetric(self):
        assert WIFI_N.down_mean == WIFI_N.up_mean


class TestBuildDuplex:
    def test_links_attached_and_functional(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        net.add_host("infra")
        net.add_host("phone")
        links = replace(LTE, sigma=0.0).build_duplex(net, "infra", "phone")
        net.build_routes()
        got = []
        net["phone"].default_handler = got.append
        net["infra"].send(Packet(src="infra", dst="phone", size=1000, dst_port=1))
        sim.run(until=1.0)
        assert len(got) == 1
        assert links["down"].rate_bps == LTE.down_mean

    def test_static_freezes_rate(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        net.add_host("infra")
        net.add_host("phone")
        links = replace(LTE, sigma=0.0).build_duplex(net, "infra", "phone")
        sim.run(until=10.0)
        rates = {r for _, r in links["up"].rate_history}
        assert rates == {LTE.up_mean}

    def test_dynamic_rate_varies(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        net.add_host("infra")
        net.add_host("phone")
        links = HSPA_PLUS.build_duplex(net, "infra", "phone")
        sim.run(until=30.0)
        rates = {round(r) for _, r in links["down"].rate_history}
        assert len(rates) > 20  # HSPA's huge variance

    def test_oversized_uplink_buffer_default(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        net.add_host("infra")
        net.add_host("phone")
        links = LTE.build_duplex(net, "infra", "phone")
        assert links["up"].queue.capacity == 1000
