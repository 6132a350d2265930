"""Hierarchical city → cell → cohort shards for ``repro.fleet``.

A city campaign maps onto the existing fleet machinery without any new
executor: the *city* is the campaign, each *cell* is a grid point, and
the tracked *cohort* members are the remaining grid axis.  Every shard
is the usual pure function ``fn(seed, params) -> Aggregate``, so cost
planning (:func:`repro.fleet.workers.plan_batches`), caching, retry,
quarantine and the byte-identical serial fallback all apply unchanged.

One shard of ``city_coverage`` does three things:

1. recompute its cell's fluid background timeline — the cell seed is
   ``shard_seed(city_seed, f"scale.cell{cell}")``, a function of the
   *city*, not the shard, so every cohort member of a cell sees the
   identical background (and the recomputation is O(fluid steps),
   i.e. cheap);
2. member 0 only: contribute the cell's mergeable fluid aggregate
   (10^3-ish background users distilled to O(1) state) and run the
   cell's promotion episodes as event-level sessions
   (:func:`repro.scale.coupling.promote_user`);
3. every member: run one tracked foreground session under the cell's
   background pressure (:func:`repro.scale.coupling.run_pressured_session`),
   seeded — exactly like ``cell_offload`` — from the shard's own seed.

Cell specs derive from ``random.Random(shard_seed(city_seed, tag))``,
so the whole city is a pure function of ``(budget, city_seed)`` and
any subset of shards can be re-run (or cache-hit) independently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.fleet.aggregate import Aggregate
from repro.fleet.campaign import Campaign, register_scenario, shard_seed

from repro.scale.coupling import (
    PromotionPolicy,
    plan_promotions,
    promote_user,
    run_pressured_session,
)
from repro.scale.population import CellSpec, profile_by_name, run_cell

#: Mean uplink demand of one *background* MAR user (feature uploads +
#: sensor streams, not full video offload), bits/s.
BACKGROUND_DEMAND_BPS = 2e5

#: Cell uplink capacity as a multiple of the profile's per-user mean —
#: the aggregate air-interface budget a scheduler splits across users.
CELL_CAPACITY_FACTOR = 4.0

#: Access technologies a metro deployment mixes, striped over the cell
#: index (by profile *name* so campaign specs stay JSON-friendly).
CELL_PROFILE_MIX = ("LTE", "LTE", "802.11ac(public)", "5G(KPI)")

#: Per-cell offered-load factor range (ρ target at equilibrium): from
#: quiet suburban cells to overloaded downtown ones.
CELL_LOAD_RANGE = (0.2, 1.4)


@dataclass(frozen=True)
class CityBudget:
    """How big a city campaign is at one ``--budget`` tier."""

    name: str
    n_cells: int
    cohort: int              # tracked foreground members per cell
    fluid_duration: float    # seconds of background timeline per cell
    session_duration: float  # seconds of each foreground session
    mean_holding: float      # background session lifetime τ
    promo_frames: int        # frames per promoted event-level session
    max_promotions: int      # promotion episodes run per cell
    dt: float = 0.5

    @property
    def fluid_steps(self) -> float:
        return self.fluid_duration / self.dt


#: ``smoke`` is a seconds-fast sanity tier; ``small`` is the CI tier
#: (≳10^5 distinct background users, < 5 min wall); ``metro`` is the
#: full §IV study (≳10^6 users).
CITY_BUDGETS: Dict[str, CityBudget] = {
    "smoke": CityBudget("smoke", n_cells=8, cohort=1, fluid_duration=120.0,
                        session_duration=0.5, mean_holding=40.0,
                        promo_frames=10, max_promotions=1),
    "small": CityBudget("small", n_cells=128, cohort=1, fluid_duration=300.0,
                        session_duration=1.0, mean_holding=50.0,
                        promo_frames=20, max_promotions=2),
    "metro": CityBudget("metro", n_cells=512, cohort=2, fluid_duration=600.0,
                        session_duration=1.0, mean_holding=60.0,
                        promo_frames=30, max_promotions=3),
}


# ----------------------------------------------------------------------
# Deterministic city construction
# ----------------------------------------------------------------------
def city_cell_spec(city_seed: int, cell: int, budget: CityBudget) -> CellSpec:
    """The cell's static spec — a pure function of (city_seed, cell).

    The arrival rate is parameterized by an equilibrium load factor:
    with ``λ = load · capacity_users / τ`` the fluid fixed point sits
    at ``ρ ≈ load``, so the drawn factor *is* the cell's nominal
    utilization.
    """
    rng = random.Random(shard_seed(city_seed, f"scale.city.cell{cell}"))
    profile_name = CELL_PROFILE_MIX[cell % len(CELL_PROFILE_MIX)]
    profile = profile_by_name(profile_name)
    load = rng.uniform(*CELL_LOAD_RANGE)
    capacity = profile.up_mean * CELL_CAPACITY_FACTOR
    capacity_users = capacity / BACKGROUND_DEMAND_BPS
    return CellSpec(
        cell_id=cell,
        profile=profile_name,
        initial_users=load * capacity_users,
        arrival_rate=load * capacity_users / budget.mean_holding,
        mean_holding=budget.mean_holding,
        demand_up_bps=BACKGROUND_DEMAND_BPS,
        capacity_up_bps=capacity,
        diurnal_phase=rng.uniform(0.0, 180.0),
        dt=budget.dt,
    )


def _city_params(params: Dict[str, object]) -> Tuple[CityBudget, int, int, int]:
    budget = CITY_BUDGETS[str(params.get("budget", "small"))]
    return (budget, int(params.get("city_seed", 0)),
            int(params.get("cell", 0)), int(params.get("member", 0)))


#: Relative shard costs, in units of one simulated second of event-level
#: foreground session.  Measured on the small budget (2-core container,
#: docs/SCALE.md §6): a session-second ≈ 8 ms of host time, one fluid
#: step ≈ 2.0 µs, summarising one sample ≈ 1.7 µs, one promoted
#: frame-loop session ≈ 1.5 ms — so ≈ 2.5e-4 per step, ≈ 2e-4 per
#: summarised sample and ≈ 0.2 per promotion.  The step hint is about
#: four times the measured ratio and stays there: ``plan_batches`` only
#: uses the ratio *between* shards, and moving a hint would re-batch
#: every city campaign for no gain.
_FLUID_STEP_COST = 1e-3
_PROMOTION_COST = 0.2


def _city_cost(p: Dict[str, object]) -> float:
    """Honest shard cost: fluid recompute + one session, plus member
    0's fluid aggregation and promotion allowance."""
    budget, _cs, _cell, member = _city_params(p)
    cost = budget.session_duration + budget.fluid_steps * _FLUID_STEP_COST
    if member == 0:
        cost += (budget.fluid_steps * _FLUID_STEP_COST
                 + budget.max_promotions * _PROMOTION_COST)
    return cost


# ----------------------------------------------------------------------
# Scenario runners
# ----------------------------------------------------------------------
@register_scenario(
    "city_coverage", version=1,
    latency_key="frame_latency",
    moment_keys=("scale.utilization", "scale.mar_ready_fraction", "mos"),
    cost_hint=_city_cost,
)
def run_city_coverage(seed: int, params: Dict[str, object]) -> Aggregate:
    """One (cell, member) shard of a hybrid-fidelity city study."""
    budget, city_seed, cell, member = _city_params(params)
    spec = city_cell_spec(city_seed, cell, budget)
    process = run_cell(spec, shard_seed(city_seed, f"scale.cell{cell}"),
                       budget.fluid_duration)
    timeline = process.timeline
    profile = profile_by_name(spec.profile)

    agg = Aggregate()
    if member == 0:
        agg.merge(process.aggregate())
        episodes = plan_promotions(timeline.samples, PromotionPolicy())
        agg.count("scale.contended_episodes", len(episodes))
        if len(episodes) > budget.max_promotions:
            agg.count("scale.promotions_truncated",
                      len(episodes) - budget.max_promotions)
        for k, episode in enumerate(episodes[: budget.max_promotions]):
            _pseed, promoted = promote_user(
                process.sim, cell, k, episode.peak_rho, profile,
                n_frames=budget.promo_frames)
            agg.merge(promoted)

    # The tracked foreground member: one event-level session pressured
    # by this cell's background over a member-staggered window.
    w0 = (member * 37.0) % max(budget.fluid_duration
                               - budget.session_duration, budget.dt)
    samples = [(t - w0, rho)
               for t, rho in timeline.window(w0, w0 + budget.session_duration)]
    fg_params = {"rtt": profile.rtt, "up_bps": profile.up_mean,
                 "loss": profile.loss, "duration": budget.session_duration}
    agg.merge(run_pressured_session(seed, fg_params, samples))
    return agg


@register_scenario(
    "cell_contention", version=1,
    latency_key="frame_latency",
    moment_keys=("scale.utilization", "mos", "delivery_ratio"),
    cost_hint=lambda p: (float(p.get("duration", 1.0))
                         + (float(p.get("fluid_duration", 120.0)) / 0.5)
                         * _FLUID_STEP_COST + _PROMOTION_COST),
)
def run_cell_contention(seed: int, params: Dict[str, object]) -> Aggregate:
    """One cell swept across offered-load factors (§IV contention).

    Each shard runs its own fluid replicate (seeded from the shard
    seed, so fleet ``seeds=N`` gives N independent background draws),
    then drops a foreground session into the *worst* window of the
    timeline — the peak-utilization interval — plus the cell's
    promotion episodes.
    """
    load = float(params.get("load", 0.8))
    profile_name = str(params.get("profile", "LTE"))
    fluid_duration = float(params.get("fluid_duration", 120.0))
    session_duration = float(params.get("duration", 1.0))
    mean_holding = float(params.get("mean_holding", 40.0))

    profile = profile_by_name(profile_name)
    capacity = profile.up_mean * CELL_CAPACITY_FACTOR
    capacity_users = capacity / BACKGROUND_DEMAND_BPS
    spec = CellSpec(
        cell_id=0,
        profile=profile_name,
        initial_users=load * capacity_users,
        arrival_rate=load * capacity_users / mean_holding,
        mean_holding=mean_holding,
        demand_up_bps=BACKGROUND_DEMAND_BPS,
        capacity_up_bps=capacity,
    )
    process = run_cell(spec, shard_seed(seed, "scale.contention"),
                       fluid_duration)
    timeline = process.timeline

    agg = process.aggregate()
    episodes = plan_promotions(timeline.samples, PromotionPolicy())
    agg.count("scale.contended_episodes", len(episodes))
    for k, episode in enumerate(episodes[:1]):
        _pseed, promoted = promote_user(process.sim, 0, k, episode.peak_rho,
                                        profile, n_frames=20)
        agg.merge(promoted)

    t_peak = max(timeline.samples, key=lambda s: (s[2], -s[0]))[0]
    w0 = min(max(t_peak - session_duration / 2, 0.0),
             max(fluid_duration - session_duration, 0.0))
    samples = [(t - w0, rho)
               for t, rho in timeline.window(w0, w0 + session_duration)]
    fg_params = {"rtt": profile.rtt, "up_bps": profile.up_mean,
                 "loss": profile.loss, "duration": session_duration}
    agg.merge(run_pressured_session(seed, fg_params, samples))
    return agg


# ----------------------------------------------------------------------
# Campaign builders
# ----------------------------------------------------------------------
def city_coverage_campaign(budget: str = "small", city_seed: int = 7,
                           base_seed: int = 101) -> Campaign:
    """The metro-scale E4 coverage study at a named budget tier."""
    b = CITY_BUDGETS[budget]
    return Campaign(
        name=f"city_coverage-{budget}",
        scenario="city_coverage",
        seeds=1,
        base_seed=base_seed,
        grid={"cell": list(range(b.n_cells)),
              "member": list(range(b.cohort))},
        params={"budget": budget, "city_seed": city_seed},
    )


#: Replicates per load factor of the ``cell_contention`` campaign, and
#: the campaign's base seed.
CONTENTION_SEEDS = 8
CONTENTION_BASE_SEED = 29


def cell_contention_campaign() -> Campaign:
    """One cell swept across equilibrium load factors, N replicates."""
    return Campaign(
        name="cell_contention",
        scenario="cell_contention",
        seeds=CONTENTION_SEEDS,
        base_seed=CONTENTION_BASE_SEED,
        grid={"load": [0.3, 0.6, 0.9, 1.2]},
        params={"fluid_duration": 120.0, "duration": 1.0},
    )


def city_users(result_aggregate: Aggregate) -> int:
    """Distinct background users a finished city campaign simulated."""
    return int(result_aggregate.counts.get("scale.users", 0))


__all__ = [
    "BACKGROUND_DEMAND_BPS",
    "CELL_CAPACITY_FACTOR",
    "CELL_LOAD_RANGE",
    "CELL_PROFILE_MIX",
    "CITY_BUDGETS",
    "CityBudget",
    "cell_contention_campaign",
    "city_cell_spec",
    "city_coverage_campaign",
    "city_users",
    "run_cell_contention",
    "run_city_coverage",
]
