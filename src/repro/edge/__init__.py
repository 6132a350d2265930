"""Edge datacenter placement (Section VI-F).

The paper's abstract formulation: minimize |C| (the set of opened edge
datacenters) subject to every (mobile user, application) pair meeting
its offloading deadline ``P_offloading(...) < δa``.

- :mod:`~repro.edge.topology` — city topologies: users, candidate
  sites, and the latency matrix between them.
- :mod:`~repro.edge.placement` — solvers: greedy set cover, local
  search, and LP relaxation + randomized rounding.
- :mod:`~repro.edge.assignment` — user→datacenter assignment with
  capacity limits.
"""

from repro.edge.topology import CityTopology, CandidateSite, UserSite
from repro.edge.placement import (
    PlacementProblem,
    PlacementResult,
    solve_greedy,
    solve_local_search,
    solve_lp_rounding,
)
from repro.edge.assignment import assign_users, AssignmentResult
from repro.edge.sync import SyncGroup, UpdateRecord

__all__ = [
    "CityTopology",
    "CandidateSite",
    "UserSite",
    "PlacementProblem",
    "PlacementResult",
    "solve_greedy",
    "solve_local_search",
    "solve_lp_rounding",
    "assign_users",
    "AssignmentResult",
    "SyncGroup",
    "UpdateRecord",
]
