"""Tests for inter-server sync (§VI-E) and location prefetching (§III-B)."""

import pytest

from repro.edge import sync
from repro.edge.sync import SyncGroup
from repro.mar import prefetch
from repro.mar.prefetch import GridWorld, MarkovPredictor, PrefetchingCache
from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.wireless import mobility
from repro.wireless.mobility import RandomWaypoint, Waypoint


def server_mesh(n=3, interlink_rtt=0.010, seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim)
    names = [f"s{i}" for i in range(n)]
    for name in names:
        net.add_host(name)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            net.add_duplex(a, b, 1e9, delay=interlink_rtt / 2)
    net.build_routes()
    return sim, net, names


class TestSyncGroup:
    def test_update_reaches_all_replicas(self):
        sim, net, names = server_mesh()
        group = SyncGroup(net, names)
        group.publish("s0")
        sim.run(until=1.0)
        assert group.incomplete() == 0

    def test_lag_close_to_interlink_delay(self):
        sim, net, names = server_mesh(interlink_rtt=0.020)
        group = SyncGroup(net, names)
        group.publish("s0")
        sim.run(until=1.0)
        assert group.mean_lag() == pytest.approx(0.010, abs=0.003)

    def test_overhead_scales_with_group_size(self, monkeypatch):
        monkeypatch.setattr(sync, "SYNC_UPDATE_BYTES", 500)
        costs = {}
        for n in (2, 4, 6):
            sim, net, names = server_mesh(n=n)
            group = SyncGroup(net, names)
            for _ in range(10):
                group.publish(names[0])
            sim.run(until=1.0)
            costs[n] = group.overhead_bytes_per_update()
        assert costs[2] < costs[4] < costs[6]
        assert costs[6] == pytest.approx(500 * 5)

    def test_any_origin_can_publish(self):
        sim, net, names = server_mesh()
        group = SyncGroup(net, names)
        for name in names:
            group.publish(name)
        sim.run(until=1.0)
        assert group.incomplete() == 0

    def test_unknown_origin_rejected(self):
        sim, net, names = server_mesh()
        group = SyncGroup(net, names)
        with pytest.raises(KeyError):
            group.publish("ghost")

    def test_group_needs_two_servers(self):
        sim, net, names = server_mesh()
        with pytest.raises(ValueError):
            SyncGroup(net, ["s0"])


class TestGridWorld:
    def test_cell_mapping(self, monkeypatch):
        monkeypatch.setattr(prefetch, "GRID_CELL_SIZE", 100.0)
        world = GridWorld()
        assert world.cell_of(Waypoint(0, 50, 50)) == (0, 0)
        assert world.cell_of(Waypoint(0, 150, 250)) == (1, 2)

    def test_catalog_deterministic(self):
        world = GridWorld(seed=5)
        assert world.objects_in((3, 4)) == world.objects_in((3, 4))

    def test_neighbours_are_eight(self):
        assert len(GridWorld().neighbours((0, 0))) == 8


class TestMarkovPredictor:
    def test_predicts_learned_transition(self):
        predictor = MarkovPredictor()
        for cell in [(0, 0), (0, 1), (0, 0), (0, 1), (0, 0), (1, 0)]:
            predictor.observe(cell)
        assert predictor.predict((0, 0))[0] == (0, 1)

    def test_unseen_cell_predicts_nothing(self):
        assert MarkovPredictor().predict((9, 9)) == []

    def test_self_transitions_ignored(self):
        predictor = MarkovPredictor()
        for cell in [(0, 0), (0, 0), (0, 0), (1, 0)]:
            predictor.observe(cell)
        assert predictor.predict((0, 0)) == [(1, 0)]


class TestPrefetchingCache:
    @pytest.fixture(autouse=True)
    def catalog(self, monkeypatch):
        """The content world these hit-rate bounds were written for."""
        monkeypatch.setattr(prefetch, "OBJECTS_PER_CELL", 6)
        monkeypatch.setattr(prefetch, "OBJECT_BYTES", 120_000)

    def commute(self, repeats=6):
        """A repetitive commute path: highly predictable movement."""
        path = []
        t = 0.0
        for _ in range(repeats):
            for x in range(0, 1200, 60):
                path.append(Waypoint(t, float(x), 80.0))
                t += 1.0
        return path

    def test_markov_beats_demand_only_on_predictable_path(self):
        world = GridWorld(seed=2)
        path = self.commute()
        demand = PrefetchingCache(world, capacity_bytes=3_000_000, policy="none")
        markov = PrefetchingCache(world, capacity_bytes=3_000_000, policy="markov")
        hit_demand = demand.run_trace(path)
        hit_markov = markov.run_trace(path)
        assert hit_markov > hit_demand

    def test_neighbour_prefetch_beats_demand_only(self):
        world = GridWorld(seed=2)
        path = self.commute()
        demand = PrefetchingCache(world, capacity_bytes=5_000_000, policy="none")
        neighbours = PrefetchingCache(world, capacity_bytes=5_000_000,
                                      policy="neighbours")
        assert neighbours.run_trace(path) > demand.run_trace(path)

    def test_markov_more_byte_efficient_than_neighbours(self):
        """Markov prefetches fewer speculative bytes for similar hits."""
        world = GridWorld(seed=2)
        path = self.commute()
        neighbours = PrefetchingCache(world, capacity_bytes=5_000_000,
                                      policy="neighbours")
        markov = PrefetchingCache(world, capacity_bytes=5_000_000, policy="markov")
        hit_n = neighbours.run_trace(path)
        hit_m = markov.run_trace(path)
        assert hit_m >= hit_n - 0.05
        assert markov.prefetched_bytes < neighbours.prefetched_bytes

    def test_random_walk_gains_less_than_commute(self, monkeypatch):
        monkeypatch.setattr(mobility, "AREA_WIDTH", 1200.0)
        monkeypatch.setattr(mobility, "AREA_HEIGHT", 1200.0)
        monkeypatch.setattr(mobility, "MAX_PAUSE", 0.0)
        world = GridWorld(seed=2)
        random_walk = RandomWaypoint(seed=4).trajectory(600)
        commute = self.commute()

        def gain(path):
            base = PrefetchingCache(world, 3_000_000, policy="none").run_trace(path)
            markov = PrefetchingCache(world, 3_000_000, policy="markov").run_trace(path)
            return markov - base

        assert gain(commute) > gain(random_walk)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            PrefetchingCache(GridWorld(), 1000, policy="psychic")
