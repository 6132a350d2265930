"""Tests for the Section III execution-delay equations."""

import pytest

from repro.mar.application import APP_ARCHETYPES, MarApplication
from repro.mar.compute import (
    ExecutionBudget,
    feasible_locally,
    local_delay,
    local_with_db_delay,
    offloading_delay,
)
from repro.mar.devices import CLOUD, DESKTOP, SMART_GLASSES, SMARTPHONE

GAMING = APP_ARCHETYPES["gaming"]
ORIENTATION = APP_ARCHETYPES["orientation"]

GOOD_NET = ExecutionBudget(bandwidth_up_bps=50e6, bandwidth_down_bps=100e6, latency=0.005)
BAD_NET = ExecutionBudget(bandwidth_up_bps=1e6, bandwidth_down_bps=5e6, latency=0.100)


class TestLocal:
    def test_local_delay_is_cycles_over_rate(self):
        d = local_delay(SMARTPHONE, GAMING)
        assert d == pytest.approx(GAMING.megacycles_per_frame * 1e6
                                  / SMARTPHONE.compute_cycles_per_s)

    def test_glasses_infeasible_for_gaming(self):
        assert not feasible_locally(SMART_GLASSES, GAMING)

    def test_desktop_feasible_for_gaming(self):
        assert feasible_locally(DESKTOP, GAMING)

    def test_eq1_is_strict_inequality_on_deadline(self):
        app = MarApplication(
            name="edge-case", description="", fps=10, megacycles_per_frame=160.0,
            db_requests_per_s=0, object_bytes=0, deadline=0.1,
            frame_upload_bytes=1, feature_upload_bytes=1, result_bytes=1,
        )
        # 160 Mc on 1.6 GHz = exactly 0.1 s -> NOT feasible (strict <).
        assert local_delay(SMARTPHONE, app) == pytest.approx(0.1)
        assert not feasible_locally(SMARTPHONE, app)


class TestLocalWithDb:
    def test_full_cache_equals_pure_local(self):
        with_db = local_with_db_delay(SMARTPHONE, ORIENTATION, GOOD_NET, cache_hit_ratio=1.0)
        assert with_db == pytest.approx(local_delay(SMARTPHONE, ORIENTATION))

    def test_cache_misses_add_fetch_time(self):
        cold = local_with_db_delay(SMARTPHONE, ORIENTATION, GOOD_NET, cache_hit_ratio=0.0)
        warm = local_with_db_delay(SMARTPHONE, ORIENTATION, GOOD_NET, cache_hit_ratio=0.9)
        assert cold > warm > local_delay(SMARTPHONE, ORIENTATION)

    def test_monotone_in_hit_ratio(self):
        delays = [
            local_with_db_delay(SMARTPHONE, ORIENTATION, GOOD_NET, cache_hit_ratio=x)
            for x in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert delays == sorted(delays, reverse=True)

    def test_invalid_hit_ratio(self):
        with pytest.raises(ValueError):
            local_with_db_delay(SMARTPHONE, ORIENTATION, GOOD_NET, cache_hit_ratio=1.5)


class TestOffloading:
    def test_offloading_wins_on_weak_device_good_net(self):
        assert (offloading_delay(SMART_GLASSES, CLOUD, GAMING, GOOD_NET)
                < local_delay(SMART_GLASSES, GAMING))

    def test_offloading_loses_on_strong_device_bad_net(self):
        assert (offloading_delay(DESKTOP, CLOUD, GAMING, BAD_NET)
                >= local_delay(DESKTOP, GAMING))

    def test_high_latency_blows_deadline(self):
        delay = offloading_delay(SMARTPHONE, CLOUD, GAMING, BAD_NET)
        assert delay > GAMING.deadline

    def test_local_fraction_zero_means_full_remote(self):
        d = offloading_delay(SMART_GLASSES, CLOUD, GAMING, GOOD_NET, local_fraction=0.0)
        # Remote compute tiny, dominated by network.
        assert d < local_delay(SMART_GLASSES, GAMING)

    def test_local_fraction_one_still_pays_network(self):
        d_split = offloading_delay(SMARTPHONE, CLOUD, GAMING, GOOD_NET, local_fraction=1.0)
        assert d_split > local_delay(SMARTPHONE, GAMING)

    def test_feature_upload_smaller_than_frame_upload(self):
        frame = offloading_delay(SMART_GLASSES, CLOUD, GAMING,
                                 ExecutionBudget(2e6, 10e6, 0.01),
                                 local_fraction=0.0, use_features=False)
        features = offloading_delay(SMART_GLASSES, CLOUD, GAMING,
                                    ExecutionBudget(2e6, 10e6, 0.01),
                                    local_fraction=0.0, use_features=True)
        assert features < frame

    def test_data_not_colocated_pays_interlink(self):
        colocated = offloading_delay(SMARTPHONE, CLOUD, GAMING, GOOD_NET,
                                     data_colocated=True)
        split = offloading_delay(SMARTPHONE, CLOUD, GAMING, GOOD_NET,
                                 data_colocated=False, cache_hit_ratio=0.0)
        assert split > colocated

    def test_invalid_local_fraction(self):
        with pytest.raises(ValueError):
            offloading_delay(SMARTPHONE, CLOUD, GAMING, GOOD_NET, local_fraction=2.0)


