"""Tests for Table I devices and the MAR application model."""

import pytest

from repro.mar.application import APP_ARCHETYPES
from repro.mar.compute import feasible_locally
from repro.mar.devices import (
    CLOUD,
    DESKTOP,
    LAPTOP,
    SMART_GLASSES,
    SMARTPHONE,
    TABLET,
    all_devices,
)


class TestDevices:
    def test_ordering_by_compute(self):
        devices = all_devices()
        rates = [d.compute_cycles_per_s for d in devices]
        assert rates == sorted(rates)

    def test_table1_qualitative_power(self):
        assert SMART_GLASSES.computing_power == "very low"
        assert SMARTPHONE.computing_power == "low"
        assert CLOUD.computing_power == "unlimited"

    def test_mobility_classes(self):
        assert SMART_GLASSES.mobile and SMARTPHONE.mobile
        assert not DESKTOP.mobile and not CLOUD.mobile

    def test_battery_presence(self):
        assert SMART_GLASSES.battery_hours == (2, 3)
        assert DESKTOP.battery_hours is None

    def test_network_access_matches_table1(self):
        assert SMART_GLASSES.network_access == ("bluetooth",)
        assert "cellular" in SMARTPHONE.network_access
        assert "ethernet" in LAPTOP.network_access

    def test_execution_time_scales_inverse(self):
        mc = 500.0
        assert SMART_GLASSES.execution_time(mc) > SMARTPHONE.execution_time(mc)
        assert CLOUD.execution_time(mc) < DESKTOP.execution_time(mc)

    def test_execution_time_units(self):
        # 1000 Mcycles on a 1 GHz-equivalent core would be 1 s.
        assert SMARTPHONE.execution_time(1600.0) == pytest.approx(1.0)

    def test_storage_bytes(self):
        assert TABLET.storage_gb[1] == 256


class TestApplications:
    def test_four_archetypes_of_figure1(self):
        assert set(APP_ARCHETYPES) == {"orientation", "memorial", "gaming", "art"}

    def test_gaming_most_demanding_deadline(self):
        deadlines = {n: a.deadline for n, a in APP_ARCHETYPES.items()}
        assert deadlines["gaming"] == min(deadlines.values())

    def test_frame_budget(self):
        gaming = APP_ARCHETYPES["gaming"]
        assert gaming.frame_budget == pytest.approx(1 / 30.0)

    def test_uplink_load_exceeds_feature_load(self):
        for app in APP_ARCHETYPES.values():
            assert app.frame_upload_bytes > app.feature_upload_bytes

    def test_gaming_uplink_close_to_mar_minimum(self):
        gaming = APP_ARCHETYPES["gaming"]
        # Full-frame offload of the gaming archetype needs ~8 Mb/s up.
        assert 4e6 < gaming.uplink_bps < 20e6

    def test_glasses_cannot_run_gaming_locally(self):
        app = APP_ARCHETYPES["gaming"]
        assert not feasible_locally(SMART_GLASSES, app)

    def test_cloud_can_run_everything(self):
        for app in APP_ARCHETYPES.values():
            assert feasible_locally(CLOUD, app)
