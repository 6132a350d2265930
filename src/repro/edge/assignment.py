"""User → datacenter assignment under capacity limits.

Once sites are opened, each user attaches to the lowest-latency opened
site that (a) meets the user's latency budget and (b) still has
capacity — the "nearest server for a given path" rule of Section VI-E.
Users are processed tightest-budget-first so capacity contention never
starves the most constrained users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.edge.topology import CityTopology

#: Backhaul RTT tiers (seconds) of the metro aggregation ladder: a cell
#: is homed on an on-site edge rack, a metro PoP, or the regional
#: datacenter — the Section VI-E placement ladder as fixed price points.
EDGE_BACKHAUL_TIERS = (0.002, 0.008, 0.020)

#: Which tier serves cell ``i``: a repeating stripe giving 25% on-site,
#: 50% metro, 25% regional — deterministic in the cell index so the
#: hybrid-fidelity layer (repro.scale) stays a pure function of the
#: scenario.
_TIER_STRIPE = (0, 1, 1, 2)


def serving_edge_rtt(cell_id: int,
                     tiers: "tuple" = EDGE_BACKHAUL_TIERS) -> float:
    """Backhaul RTT from cell ``cell_id`` to its serving edge site.

    The promotion entry point used when a background user becomes an
    event-level session: its total path RTT is the cell's (loaded)
    access RTT plus this deterministic backhaul component.
    """
    if cell_id < 0:
        raise ValueError("cell_id must be >= 0")
    return tiers[_TIER_STRIPE[cell_id % len(_TIER_STRIPE)]]


@dataclass
class AssignmentResult:
    """user index → site index (or None when unassignable)."""

    mapping: Dict[int, Optional[int]]
    latencies: Dict[int, float]
    load: Dict[int, float]

    @property
    def unassigned(self) -> List[int]:
        return [u for u, s in self.mapping.items() if s is None]

    @property
    def all_assigned(self) -> bool:
        return not self.unassigned

    def mean_latency(self) -> float:
        vals = [l for u, l in self.latencies.items() if self.mapping[u] is not None]
        return math.fsum(vals) / len(vals) if vals else float("inf")

    def max_load_fraction(self, topology: CityTopology) -> float:
        fractions = []
        for si, load in self.load.items():
            cap = topology.sites[si].capacity
            if cap not in (0, float("inf")):
                fractions.append(load / cap)
        return max(fractions) if fractions else 0.0


def assign_users(topology: CityTopology, opened: Set[int]) -> AssignmentResult:
    """Assign every user to an opened site within budget and capacity."""
    matrix = topology.latency_matrix()
    remaining = {si: topology.sites[si].capacity for si in opened}
    mapping: Dict[int, Optional[int]] = {}
    latencies: Dict[int, float] = {}
    load: Dict[int, float] = {si: 0.0 for si in opened}

    order = sorted(
        range(len(topology.users)), key=lambda ui: topology.users[ui].latency_budget
    )
    for ui in order:
        user = topology.users[ui]
        candidates = [
            si
            for si in opened
            if matrix[ui, si] <= user.latency_budget and remaining[si] >= user.demand
        ]
        if not candidates:
            mapping[ui] = None
            latencies[ui] = float("inf")
            continue
        best = min(candidates, key=lambda si: matrix[ui, si])
        mapping[ui] = best
        latencies[ui] = float(matrix[ui, best])
        remaining[best] -= user.demand
        load[best] += user.demand
    return AssignmentResult(mapping=mapping, latencies=latencies, load=load)


def failover_order(
    topology: CityTopology,
    opened: Set[int],
    user_index: int,
    assignment: Optional[AssignmentResult] = None,
    k: Optional[int] = None,
) -> List[int]:
    """Ranked failover candidates for one user, best first.

    When the user's assigned site crashes, the session should walk down
    this list (Section VI-B's degraded-but-alive guideline applied to
    Section VI-E's placement).  Ranking: opened sites other than the
    primary, with spare capacity for the user's demand (given the
    current ``assignment`` load), within-budget sites before
    over-budget ones, then by latency.  Over-budget sites still appear
    — offloading past the deadline is degraded service, but beats
    falling back to device-only compute for most workloads.  ``k``
    truncates the list.
    """
    matrix = topology.latency_matrix()
    user = topology.users[user_index]
    primary = assignment.mapping.get(user_index) if assignment is not None else None
    candidates = []
    for si in opened:
        if si == primary:
            continue
        if assignment is not None:
            cap = topology.sites[si].capacity
            spare = cap - assignment.load.get(si, 0.0)
            if spare < user.demand:
                continue
        latency = float(matrix[user_index, si])
        candidates.append((latency > user.latency_budget, latency, si))
    candidates.sort()
    order = [si for _, _, si in candidates]
    return order if k is None else order[:k]
