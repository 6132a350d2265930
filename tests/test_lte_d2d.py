"""Tests for D2D links: rate and energy."""

import pytest

from repro.wireless.d2d import OutOfRangeError, d2d_energy_per_bit, rate_at_distance
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
