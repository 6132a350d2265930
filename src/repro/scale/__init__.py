"""Hybrid-fidelity city-scale population layer (ROADMAP item 1).

Fluid/mean-field background cells (:mod:`repro.scale.population`)
couple into the event engine as link pressure with deterministic
promotion/demotion (:mod:`repro.scale.coupling`), and fan out over
``repro.fleet`` as city → cell → cohort shards
(:mod:`repro.scale.shards`).  See docs/SCALE.md.
"""

from repro.scale.coupling import (
    BackgroundPressure,
    PromotionEpisode,
    PromotionPolicy,
    plan_promotions,
    promote_user,
    run_pressured_session,
)
from repro.scale.population import (
    CellProcess,
    CellSpec,
    CellTimeline,
    profile_by_name,
    run_cell,
)
from repro.scale.shards import (
    CITY_BUDGETS,
    CityBudget,
    cell_contention_campaign,
    city_cell_spec,
    city_coverage_campaign,
    city_users,
)

__all__ = [
    "BackgroundPressure",
    "CITY_BUDGETS",
    "CellProcess",
    "CellSpec",
    "CellTimeline",
    "CityBudget",
    "PromotionEpisode",
    "PromotionPolicy",
    "cell_contention_campaign",
    "city_cell_spec",
    "city_coverage_campaign",
    "city_users",
    "plan_promotions",
    "profile_by_name",
    "promote_user",
    "run_cell",
    "run_pressured_session",
]
