"""Tests for edge-datacenter placement (Section VI-F)."""

import itertools
import math

import pytest

from repro.edge.assignment import assign_users
from repro.edge.placement import (
    PlacementProblem,
    solve_greedy,
    solve_local_search,
    solve_lp_rounding,
)
from repro.edge.topology import CandidateSite, CityTopology, UserSite


def small_city(seed=1, **kw):
    defaults = dict(n_users=60, n_sites=16, seed=seed)
    defaults.update(kw)
    return CityTopology.random_city(**defaults)


def min_cover_size(problem):
    """Size of the smallest covering site set, by exhaustive search (the
    ground truth the heuristics are checked against); None if none covers."""
    for k in range(1, problem.n_sites + 1):
        for combo in itertools.combinations(range(problem.n_sites), k):
            if problem.is_cover(set(combo)):
                return k
    return None


class TestTopology:
    def test_latency_has_access_floor(self):
        topo = small_city()
        u, s = topo.users[0], topo.sites[0]
        assert topo.latency(u, s) >= CityTopology.ACCESS_LATENCY

    def test_latency_matrix_shape(self):
        topo = small_city()
        assert topo.latency_matrix().shape == (60, 16)

    def test_coverage_shrinks_with_budget(self):
        loose = small_city(latency_budget=0.010)
        tight = small_city(latency_budget=0.004)
        loose_cov = sum(len(s) for s in loose.coverage_sets())
        tight_cov = sum(len(s) for s in tight.coverage_sets())
        assert tight_cov < loose_cov

    def test_default_city_feasible(self):
        assert small_city().feasible()

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            CityTopology([], [CandidateSite("s", 0, 0)])


class TestSolvers:
    def test_greedy_produces_cover(self):
        topo = small_city()
        problem = PlacementProblem(topo)
        result = solve_greedy(problem)
        assert result.feasible
        assert problem.is_cover(result.chosen)

    def test_local_search_never_worse_than_greedy(self):
        for seed in range(5):
            problem = PlacementProblem(small_city(seed=seed))
            g = solve_greedy(problem)
            ls = solve_local_search(problem)
            assert ls.feasible
            assert ls.n_datacenters <= g.n_datacenters

    def test_lp_lower_bound_respected(self):
        for seed in range(4):
            problem = PlacementProblem(small_city(seed=seed))
            lp = solve_lp_rounding(problem)
            ls = solve_local_search(problem)
            assert lp.feasible
            assert lp.lower_bound <= ls.n_datacenters + 1e-9
            assert lp.n_datacenters >= math.ceil(lp.lower_bound - 1e-9)

    def test_exact_optimal_on_tiny_instance(self):
        topo = small_city(n_users=25, n_sites=9)
        problem = PlacementProblem(topo)
        optimum = min_cover_size(problem)
        assert optimum is not None
        for solver in (solve_greedy, solve_local_search, solve_lp_rounding):
            assert solver(problem).n_datacenters >= optimum

    def test_infeasible_instance_reported(self):
        users = [UserSite("u", 0, 0, latency_budget=0.0001)]
        sites = [CandidateSite("s", 100, 100)]
        problem = PlacementProblem(CityTopology(users, sites))
        assert not solve_greedy(problem).feasible
        assert not solve_local_search(problem).feasible

    def test_relaxed_deadline_needs_fewer_dcs(self):
        tight = PlacementProblem(small_city(latency_budget=0.0045))
        loose = PlacementProblem(small_city(latency_budget=0.012))
        if not tight.topology.feasible():
            pytest.skip("tight instance infeasible for this seed")
        n_tight = solve_local_search(tight).n_datacenters
        n_loose = solve_local_search(loose).n_datacenters
        assert n_loose <= n_tight

    def test_site_names(self):
        problem = PlacementProblem(small_city())
        result = solve_greedy(problem)
        names = result.site_names(problem)
        assert len(names) == result.n_datacenters
        assert all(n.startswith("dc") for n in names)


class TestAssignment:
    def test_all_users_assigned_within_budget(self):
        topo = small_city()
        result_placement = solve_local_search(PlacementProblem(topo))
        assignment = assign_users(topo, result_placement.chosen)
        assert assignment.all_assigned
        matrix = topo.latency_matrix()
        for ui, si in assignment.mapping.items():
            assert matrix[ui, si] <= topo.users[ui].latency_budget

    def test_users_prefer_nearest_opened_site(self):
        users = [UserSite("u", 0, 0, latency_budget=1.0)]
        sites = [CandidateSite("near", 1, 0), CandidateSite("far", 10, 0)]
        topo = CityTopology(users, sites)
        assignment = assign_users(topo, {0, 1})
        assert assignment.mapping[0] == 0

    def test_capacity_spills_to_second_site(self):
        users = [UserSite(f"u{i}", 0, 0, latency_budget=1.0) for i in range(3)]
        sites = [CandidateSite("a", 0, 0, capacity=2.0), CandidateSite("b", 1, 0, capacity=9.0)]
        topo = CityTopology(users, sites)
        assignment = assign_users(topo, {0, 1})
        assert assignment.all_assigned
        assert assignment.load[0] == 2.0
        assert assignment.load[1] == 1.0

    def test_unassignable_user_reported(self):
        users = [UserSite("u", 0, 0, latency_budget=0.0001)]
        sites = [CandidateSite("s", 50, 50)]
        topo = CityTopology(users, sites)
        assignment = assign_users(topo, {0})
        assert assignment.unassigned == [0]
        assert not assignment.all_assigned

    def test_mean_latency_finite_when_assigned(self):
        topo = small_city()
        chosen = solve_greedy(PlacementProblem(topo)).chosen
        assignment = assign_users(topo, chosen)
        assert assignment.mean_latency() < 0.01


