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


def serving_edge_rtt(cell_id: int) -> float:
    """Backhaul RTT from cell ``cell_id`` to its serving edge site.

    The promotion entry point used when a background user becomes an
    event-level session: its total path RTT is the cell's (loaded)
    access RTT plus this deterministic backhaul component.
    """
    if cell_id < 0:
        raise ValueError("cell_id must be >= 0")
    return EDGE_BACKHAUL_TIERS[_TIER_STRIPE[cell_id % len(_TIER_STRIPE)]]


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

