"""City topologies for edge placement.

A :class:`CityTopology` holds mobile users and candidate datacenter
sites on a plane, and derives the user↔site network latency from
geometry plus an aggregation-network model: every millisecond of
one-way latency corresponds to metro fibre distance, middle-mile hops
and peering, calibrated so a same-campus server is a few ms away and a
regional cloud tens of ms — the regime of Table II.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class UserSite:
    """One mobile user (or user cluster) with an application deadline.

    ``latency_budget`` is the maximum one-way network latency this
    user's application tolerates (δa minus compute and transfer time:
    :func:`repro.mar.compute.offloading_delay` solved for the latency).
    ``demand`` is the compute demand in arbitrary capacity units.
    """

    name: str
    x: float
    y: float
    latency_budget: float
    demand: float = 1.0


@dataclass(frozen=True)
class CandidateSite:
    """A potential edge-datacenter location."""

    name: str
    x: float
    y: float
    capacity: float = math.inf
    open_cost: float = 1.0


#: Side of the square city :meth:`CityTopology.random_city` draws, km.
CITY_WIDTH_KM = 30.0


class CityTopology:
    """Users and candidate sites over a metro area."""

    #: One-way latency per km of metro distance (fibre + switching).
    LATENCY_PER_KM = 0.0003      # 300 µs/km effective (fibre detours + hops)

    #: Fixed access latency (radio + first aggregation hop), one-way.
    ACCESS_LATENCY = 0.002

    def __init__(self, users: List[UserSite], sites: List[CandidateSite]) -> None:
        if not users or not sites:
            raise ValueError("need at least one user and one site")
        self.users = users
        self.sites = sites

    # ------------------------------------------------------------------
    @classmethod
    def random_city(
        cls,
        n_users: int = 120,
        n_sites: int = 24,
        latency_budget: float = 0.006,
        budget_jitter: float = 0.25,
        seed: int = 0,
    ) -> "CityTopology":
        """Uniform users, grid-ish candidate sites, per-user budgets, over
        a ``CITY_WIDTH_KM`` square; the sites are uncapacitated."""
        width_km = CITY_WIDTH_KM
        rng = random.Random(seed)
        users = [
            UserSite(
                name=f"u{i}",
                x=rng.uniform(0, width_km),
                y=rng.uniform(0, width_km),
                latency_budget=latency_budget * (1 + rng.uniform(-budget_jitter, budget_jitter)),
            )
            for i in range(n_users)
        ]
        side = max(1, int(round(math.sqrt(n_sites))))
        sites = []
        idx = 0
        for i in range(side):
            for j in range(side):
                if idx >= n_sites:
                    break
                jitter_x = rng.uniform(-0.1, 0.1) * width_km / side
                jitter_y = rng.uniform(-0.1, 0.1) * width_km / side
                sites.append(
                    CandidateSite(
                        name=f"dc{idx}",
                        x=(i + 0.5) * width_km / side + jitter_x,
                        y=(j + 0.5) * width_km / side + jitter_y,
                    )
                )
                idx += 1
        return cls(users, sites)

    # ------------------------------------------------------------------
    def latency(self, user: UserSite, site: CandidateSite) -> float:
        """One-way network latency between a user and a site."""
        dist_km = math.hypot(user.x - site.x, user.y - site.y)
        return self.ACCESS_LATENCY + dist_km * self.LATENCY_PER_KM

    def latency_matrix(self) -> np.ndarray:
        """(n_users, n_sites) one-way latencies."""
        import numpy as np

        return np.array(
            [[self.latency(u, s) for s in self.sites] for u in self.users]
        )

    def coverage_sets(self) -> List[set]:
        """For each site index, the set of user indices it can serve."""
        matrix = self.latency_matrix()
        return [
            {ui for ui in range(len(self.users))
             if matrix[ui, si] <= self.users[ui].latency_budget}
            for si in range(len(self.sites))
        ]

    def feasible(self) -> bool:
        """Can every user be covered by at least one site?"""
        covered = set()
        for s in self.coverage_sets():
            covered |= s
        return len(covered) == len(self.users)
