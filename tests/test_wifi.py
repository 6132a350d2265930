"""Tests for the 802.11 DCF model and the performance anomaly (Fig. 2)."""

import pytest

from repro.simnet.engine import Simulator
from repro.wireless.wifi import (
    FRAME_OVERHEAD,
    WifiCell,
    WifiStation,
    anomaly_throughput,
    frame_airtime,
)


class TestAirtime:
    def test_airtime_includes_overhead(self):
        assert frame_airtime(54e6) == pytest.approx(FRAME_OVERHEAD + 1500 * 8 / 54e6)

    def test_slower_rate_longer_airtime(self):
        assert frame_airtime(18e6) > frame_airtime(54e6)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            frame_airtime(0)


class TestAnalyticAnomaly:
    def test_equal_rates_split_evenly(self):
        a, b = anomaly_throughput([54e6, 54e6])
        assert a == b

    def test_slow_station_drags_everyone_down(self):
        fast_only = anomaly_throughput([54e6, 54e6])[0]
        mixed = anomaly_throughput([54e6, 18e6])[0]
        assert mixed < fast_only

    def test_mixed_cell_near_slow_rate_share(self):
        # The Heusse result: with one 54 and one 1 Mb/s station, both get
        # roughly what two 1 Mb/s stations would (within ~2x).
        mixed = anomaly_throughput([54e6, 1e6])[0]
        slow_pair = anomaly_throughput([1e6, 1e6])[0]
        assert mixed < 2.2 * slow_pair

    def test_more_stations_less_each(self):
        two = anomaly_throughput([54e6] * 2)[0]
        four = anomaly_throughput([54e6] * 4)[0]
        assert four < two


class TestWifiCell:
    def test_simulation_matches_analytic(self):
        sim = Simulator(seed=1)
        cell = WifiCell(sim)
        a = cell.add_station(WifiStation("a", 54e6))
        b = cell.add_station(WifiStation("b", 18e6))
        sim.run(until=10.0)
        predicted = anomaly_throughput([54e6, 18e6])[0]
        assert a.throughput_bps(1, 10) == pytest.approx(predicted, rel=0.1)
        assert b.throughput_bps(1, 10) == pytest.approx(predicted, rel=0.1)

    def test_rate_change_mid_run_degrades_both(self):
        sim = Simulator(seed=2)
        cell = WifiCell(sim)
        a = cell.add_station(WifiStation("a", 54e6))
        cell.add_station(WifiStation("b", 54e6))
        sim.run(until=5.0)
        cell.set_rate("b", 6e6)
        sim.run(until=10.0)
        a_before = a.throughput_bps(0, 5)
        a_after = a.throughput_bps(5, 10)
        assert a_after < a_before * 0.55  # A collapses though A never moved

    def test_single_station_gets_full_share(self):
        sim = Simulator(seed=3)
        cell = WifiCell(sim)
        a = cell.add_station(WifiStation("a", 54e6))
        sim.run(until=5.0)
        predicted = anomaly_throughput([54e6])[0]
        assert a.throughput_bps(0, 5) == pytest.approx(predicted, rel=0.05)

    def test_idle_station_consumes_no_airtime(self):
        sim = Simulator(seed=4)
        cell = WifiCell(sim)
        a = cell.add_station(WifiStation("a", 54e6))
        b = cell.add_station(WifiStation("b", 6e6, backlogged=False))
        sim.run(until=5.0)
        assert b.frames_sent == 0
        predicted = anomaly_throughput([54e6])[0]
        assert a.throughput_bps(0, 5) == pytest.approx(predicted, rel=0.05)

    def test_duplicate_station_rejected(self):
        sim = Simulator()
        cell = WifiCell(sim)
        cell.add_station(WifiStation("a", 54e6))
        with pytest.raises(ValueError):
            cell.add_station(WifiStation("a", 54e6))

    def test_aggregate_throughput(self):
        sim = Simulator(seed=6)
        cell = WifiCell(sim)
        cell.add_station(WifiStation("a", 54e6))
        cell.add_station(WifiStation("b", 54e6))
        sim.run(until=5.0)
        agg = cell.aggregate_throughput_bps(0, 5)
        predicted = sum(anomaly_throughput([54e6, 54e6]))
        assert agg == pytest.approx(predicted, rel=0.1)
