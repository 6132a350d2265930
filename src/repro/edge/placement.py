"""Solvers for the minimum-datacenter placement problem (Section VI-F).

The problem is a set-cover instance: site ``c`` covers user ``u`` when
the user's deadline-derived latency budget admits that site.  Three
solvers with different optimality/cost trade-offs:

- :func:`solve_greedy` — classic ln(n)-approximate greedy set cover;
- :func:`solve_local_search` — greedy followed by removal/swap local
  search;
- :func:`solve_lp_rounding` — LP relaxation (scipy ``linprog``) with
  iterated randomized rounding; the LP optimum also provides a lower
  bound for benchmark comparisons.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.edge.topology import CityTopology


@dataclass
class PlacementProblem:
    """A concrete set-cover instance derived from a topology."""

    topology: CityTopology
    coverage: List[Set[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.coverage:
            self.coverage = self.topology.coverage_sets()
        self.n_users = len(self.topology.users)
        self.n_sites = len(self.topology.sites)

    def is_cover(self, chosen: Set[int]) -> bool:
        covered: Set[int] = set()
        for si in chosen:
            covered |= self.coverage[si]
        return len(covered) == self.n_users

    def uncovered_by(self, chosen: Set[int]) -> Set[int]:
        covered: Set[int] = set()
        for si in chosen:
            covered |= self.coverage[si]
        return set(range(self.n_users)) - covered


@dataclass
class PlacementResult:
    """Chosen sites plus solver metadata."""

    chosen: Set[int]
    solver: str
    feasible: bool
    lower_bound: Optional[float] = None

    @property
    def n_datacenters(self) -> int:
        return len(self.chosen)

    def site_names(self, problem: PlacementProblem) -> List[str]:
        return sorted(problem.topology.sites[i].name for i in self.chosen)


def solve_greedy(problem: PlacementProblem) -> PlacementResult:
    """Greedy set cover: repeatedly open the site covering the most
    still-uncovered users."""
    uncovered = set(range(problem.n_users))
    chosen: Set[int] = set()
    while uncovered:
        best_site = max(
            range(problem.n_sites),
            key=lambda si: (len(problem.coverage[si] & uncovered), -si),
        )
        gain = problem.coverage[best_site] & uncovered
        if not gain:
            return PlacementResult(chosen, "greedy", feasible=False)
        chosen.add(best_site)
        uncovered -= gain
    return PlacementResult(chosen, "greedy", feasible=True)


#: Improvement rounds :func:`solve_local_search` runs at most.
LOCAL_SEARCH_ROUNDS = 50

#: Randomized roundings :func:`solve_lp_rounding` tries, and the seed of
#: their draws.
LP_ROUNDINGS = 40
LP_ROUNDING_SEED = 0


def solve_local_search(problem: PlacementProblem) -> PlacementResult:
    """Greedy seed, then try dropping sites and 2→1 swaps."""
    seed = solve_greedy(problem)
    if not seed.feasible:
        return PlacementResult(seed.chosen, "local-search", feasible=False)
    chosen = set(seed.chosen)
    for _ in range(LOCAL_SEARCH_ROUNDS):
        improved = False
        # Drop pass: any redundant site?
        for si in sorted(chosen):
            if problem.is_cover(chosen - {si}):
                chosen.discard(si)
                improved = True
        # Swap pass: replace two sites by one.
        for a, b in itertools.combinations(sorted(chosen), 2):
            rest = chosen - {a, b}
            need = problem.uncovered_by(rest)
            for si in range(problem.n_sites):
                if si in rest:
                    continue
                if need <= problem.coverage[si]:
                    chosen = rest | {si}
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    return PlacementResult(chosen, "local-search", feasible=True)


def solve_lp_rounding(problem: PlacementProblem) -> PlacementResult:
    """LP relaxation + iterated randomized rounding.

    Minimizes Σ x_c subject to Σ_{c covers u} x_c ≥ 1 for every user,
    0 ≤ x ≤ 1; then repeatedly samples sites with probability
    min(1, α·x_c) and keeps the best feasible cover (completed greedily
    when sampling misses someone).  The LP optimum is returned as
    ``lower_bound``.
    """
    import numpy as np
    from scipy.optimize import linprog

    n_u, n_s = problem.n_users, problem.n_sites
    a_ub = np.zeros((n_u, n_s))
    for si, users in enumerate(problem.coverage):
        for ui in users:
            a_ub[ui, si] = -1.0
    b_ub = -np.ones(n_u)
    res = linprog(
        c=np.ones(n_s),
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0.0, 1.0)] * n_s,
        method="highs",
    )
    if not res.success:
        return PlacementResult(set(), "lp-rounding", feasible=False)
    x = res.x
    rng = random.Random(LP_ROUNDING_SEED)
    best: Optional[Set[int]] = None
    alpha = 1.5
    for _ in range(LP_ROUNDINGS):
        sample = {si for si in range(n_s) if rng.random() < min(1.0, alpha * x[si])}
        missing = problem.uncovered_by(sample)
        while missing:
            si = max(range(n_s), key=lambda s: len(problem.coverage[s] & missing))
            if not problem.coverage[si] & missing:
                break
            sample.add(si)
            missing -= problem.coverage[si]
        if problem.is_cover(sample):
            # Prune redundant picks.
            for si in sorted(sample):
                if problem.is_cover(sample - {si}):
                    sample.discard(si)
            if best is None or len(sample) < len(best):
                best = sample
    if best is None:
        return PlacementResult(set(), "lp-rounding", feasible=False,
                               lower_bound=float(res.fun))
    return PlacementResult(best, "lp-rounding", feasible=True, lower_bound=float(res.fun))

