"""Tests for D2D links: rate, traffic and energy."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.simnet.packet import Packet
from repro.wireless.d2d import D2DLink, OutOfRangeError, d2d_energy_per_bit, rate_at_distance
from repro.wireless.profiles import LTE, LTE_DIRECT, WIFI_DIRECT


class TestD2DRate:
    def test_close_and_still_near_nominal(self):
        rate = rate_at_distance(WIFI_DIRECT, 5.0)
        assert rate > 0.9 * WIFI_DIRECT.down_mean

    def test_rate_decays_with_distance(self):
        near = rate_at_distance(WIFI_DIRECT, 10.0)
        far = rate_at_distance(WIFI_DIRECT, 180.0)
        assert far < near * 0.4

    def test_out_of_range_raises(self):
        with pytest.raises(OutOfRangeError):
            rate_at_distance(WIFI_DIRECT, 250.0)

    def test_mobility_hurts_wifi_direct_more(self):
        wifi_static = rate_at_distance(WIFI_DIRECT, 50.0, 0.0)
        wifi_moving = rate_at_distance(WIFI_DIRECT, 50.0, 5.0)
        lte_static = rate_at_distance(LTE_DIRECT, 50.0, 0.0)
        lte_moving = rate_at_distance(LTE_DIRECT, 50.0, 5.0)
        assert wifi_moving / wifi_static < lte_moving / lte_static

    def test_non_d2d_profile_rejected(self):
        with pytest.raises(ValueError):
            rate_at_distance(LTE, 10.0)


class TestD2DLink:
    def make(self, profile=WIFI_DIRECT, distance=20.0):
        sim = Simulator(seed=2)
        net = Network(sim)
        net.add_host("a")
        net.add_host("b")
        link = D2DLink(net, "a", "b", profile=profile, distance_m=distance)
        net.build_routes()
        return sim, net, link

    def test_bidirectional_traffic(self):
        sim, net, _ = self.make()
        got_a, got_b = [], []
        net["a"].default_handler = got_a.append
        net["b"].default_handler = got_b.append
        net["a"].send(Packet(src="a", dst="b", size=500, dst_port=1))
        net["b"].send(Packet(src="b", dst="a", size=500, dst_port=1))
        sim.run(until=1.0)
        assert got_a and got_b

    def test_update_geometry_rescales(self):
        sim, net, link = self.make(distance=10.0)
        before = link.rate_bps
        link.update_geometry(distance_m=150.0)
        assert link.rate_bps < before
        assert link.ab.rate_bps == link.rate_bps

    def test_infrastructure_profile_rejected(self):
        sim = Simulator()
        net = Network(sim)
        net.add_host("a")
        net.add_host("b")
        with pytest.raises(ValueError):
            D2DLink(net, "a", "b", profile=LTE)


class TestD2DEnergy:
    def test_lte_direct_wins_with_many_peers(self):
        lte = d2d_energy_per_bit(LTE_DIRECT, n_peers=50, transfer_bytes=1_000_000)
        wifi = d2d_energy_per_bit(WIFI_DIRECT, n_peers=50, transfer_bytes=1_000_000)
        assert lte < wifi

    def test_wifi_direct_wins_for_small_transfers(self):
        lte = d2d_energy_per_bit(LTE_DIRECT, n_peers=2, transfer_bytes=20_000)
        wifi = d2d_energy_per_bit(WIFI_DIRECT, n_peers=2, transfer_bytes=20_000)
        assert wifi < lte

    def test_non_d2d_rejected(self):
        with pytest.raises(ValueError):
            d2d_energy_per_bit(LTE, 2, 1000)
