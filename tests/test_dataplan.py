"""Tests for the data-plan economics (§V-C / §VI-D)."""

import pytest

from repro.mar import dataplan
from repro.mar.dataplan import (
    DataPlan,
    TYPICAL_PLANS,
    cheapest_plan,
    monthly_cost_of_usage,
)


class TestDataPlan:
    def test_within_quota_flat_fee(self):
        plan = DataPlan("p", monthly_fee=20.0, quota_bytes=5e9, overage_per_gb=10.0)
        assert plan.cost_of(3e9) == 20.0

    def test_overage_billed_per_gb(self):
        plan = DataPlan("p", monthly_fee=20.0, quota_bytes=5e9, overage_per_gb=10.0)
        assert plan.cost_of(7e9) == pytest.approx(20.0 + 20.0)

    def test_throttled_plan_never_bills_overage(self):
        plan = TYPICAL_PLANS["throttled"]
        assert plan.cost_of(100e9) == plan.monthly_fee

    def test_quota_fraction(self):
        plan = TYPICAL_PLANS["small"]
        assert plan.quota_fraction(1e9) == pytest.approx(0.5)


class TestMonthlyEconomics:
    def test_mar_on_lte_blows_small_plans(self):
        """One hour/day of aggregate-policy MAR (~50 % on LTE at ~9 Mb/s
        up+down) costs far more than the WiFi-preferred habit — the
        economics behind the paper's policy 2 default."""
        aggregate_daily = (8e6 + 1e6) / 8 * 3600 * 0.55
        preferred_daily = (8e6 + 1e6) / 8 * 3600 * 0.06
        plan = TYPICAL_PLANS["medium"]
        aggressive = monthly_cost_of_usage(plan, aggregate_daily)
        frugal = monthly_cost_of_usage(plan, preferred_daily)
        assert aggressive > frugal * 2
        assert frugal == plan.monthly_fee     # stays inside quota

    def test_cheapest_plan_scales_with_usage(self):
        assert cheapest_plan(1e9).name in ("small", "throttled")
        heavy = cheapest_plan(60e9)
        assert heavy.name == "large"

    def test_throttled_excluded_when_over_quota(self):
        choice = cheapest_plan(20e9)
        assert not choice.throttles

    def test_no_viable_plan_raises(self, monkeypatch):
        only_throttled = {"t": TYPICAL_PLANS["throttled"]}
        monkeypatch.setattr(dataplan, "TYPICAL_PLANS", only_throttled)
        with pytest.raises(ValueError):
            cheapest_plan(50e9)
