"""Mobile data-plan economics (Section V-C).

"Most mobile networks continue to be expensive to the user.  We can
expect the user to be reluctant to transmit large amounts of data for
the sake of a seamless MAR experience."  This module prices that
reluctance: a :class:`DataPlan` with a monthly quota and overage rate
turns a session's metered bytes into money, and
:func:`monthly_cost_of_usage` projects what daily MAR habits cost under
each multipath policy — the economic force behind the paper's three
Section VI-D behaviours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class DataPlan:
    """A consumer mobile data plan.

    ``quota_bytes`` per month at ``monthly_fee``; beyond it each byte
    costs ``overage_per_gb / 1e9`` (or the line is throttled when
    ``throttles`` — modelled as zero marginal cost but a quality flag).
    """

    name: str
    monthly_fee: float
    quota_bytes: float
    overage_per_gb: float = 0.0
    throttles: bool = False

    def cost_of(self, metered_bytes: float) -> float:
        """Total monthly cost if ``metered_bytes`` are consumed."""
        if metered_bytes <= self.quota_bytes or self.throttles:
            return self.monthly_fee
        excess = metered_bytes - self.quota_bytes
        return self.monthly_fee + excess / 1e9 * self.overage_per_gb

    def quota_fraction(self, metered_bytes: float) -> float:
        return metered_bytes / self.quota_bytes if self.quota_bytes else float("inf")


#: Representative 2017-era plans (order-of-magnitude realistic).
TYPICAL_PLANS: Dict[str, DataPlan] = {
    "small": DataPlan("small", monthly_fee=15.0, quota_bytes=2e9,
                      overage_per_gb=10.0),
    "medium": DataPlan("medium", monthly_fee=30.0, quota_bytes=10e9,
                       overage_per_gb=8.0),
    "large": DataPlan("large", monthly_fee=50.0, quota_bytes=50e9,
                      overage_per_gb=5.0),
    "throttled": DataPlan("throttled", monthly_fee=25.0, quota_bytes=5e9,
                          throttles=True),
}


#: Days in the billing month :func:`monthly_cost_of_usage` projects.
DAYS_PER_MONTH = 30


def monthly_cost_of_usage(plan: DataPlan, metered_bytes_per_day: float) -> float:
    """Project one month of daily MAR usage onto a plan."""
    return plan.cost_of(metered_bytes_per_day * DAYS_PER_MONTH)


def cheapest_plan(metered_bytes_per_month: float) -> DataPlan:
    """The :data:`TYPICAL_PLANS` plan minimizing cost at a usage level
    (throttled plans are excluded above their quota — MAR is unusable
    when throttled)."""
    viable = [
        p for p in TYPICAL_PLANS.values()
        if not (p.throttles and metered_bytes_per_month > p.quota_bytes)
    ]
    if not viable:
        raise ValueError("no viable plan at this usage level")
    return min(viable, key=lambda p: p.cost_of(metered_bytes_per_month))
