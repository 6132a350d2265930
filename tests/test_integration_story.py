"""Flagship integration tests: the paper's full narrative through the
public API, each test crossing several packages.

These are the "does the system hang together" tests: access profiles
feeding the protocol, the protocol feeding QoE, edge
placement feeding sessions — the way a downstream user would actually
compose the library.
"""


from repro.core import OffloadSession, ScenarioBuilder, mos_score
from repro.edge import (
    CityTopology,
    PlacementProblem,
    SyncGroup,
    assign_users,
    solve_local_search,
)
from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.wireless.profiles import LTE


class TestNetworkToQoEChain:
    """Access profile → scenario → MARTP → QoE."""

    def test_lte_profile_numbers_flow_into_session_quality(self):
        # Build the Table II cloud-LTE scenario from the LTE profile's
        # measured numbers rather than hand-picked constants.
        scenario = ScenarioBuilder(seed=23).single_path(
            rtt=LTE.rtt + 0.045,          # access + core to the cloud
            down_bps=LTE.down_mean,
            up_bps=LTE.up_mean,
            path_name="lte",
            metered=True,
        )
        report = OffloadSession(scenario).run(12.0)
        assert report.critical_intact
        # LTE's ~8 Mb/s uplink carries most of the nominal ~9.3 Mb/s
        # workload, degraded but functional.
        assert 0.3 < report.mean_video_quality <= 1.0
        assert mos_score(report) > 3.0


class TestEdgeToSessionChain:
    """Placement → assignment → a session against the chosen site."""

    def test_planned_datacenter_serves_its_users_in_time(self):
        topo = CityTopology.random_city(n_users=80, n_sites=16, seed=25)
        placement = solve_local_search(PlacementProblem(topo))
        assert placement.feasible
        assignment = assign_users(topo, placement.chosen)
        assert assignment.all_assigned

        # Take the worst-latency user and run a real session at that RTT.
        worst_rtt = 2 * max(
            lat for lat in assignment.latencies.values() if lat != float("inf")
        )
        scenario = ScenarioBuilder(seed=25).single_path(
            rtt=worst_rtt, down_bps=100e6, up_bps=40e6)
        report = OffloadSession(scenario).run(8.0)
        # Placement guaranteed the budget, so even the worst user's
        # reference frames arrive in time.
        assert report.per_class[2].in_time_ratio > 0.9

    def test_two_edge_sites_stay_consistent_while_serving(self):
        sim = Simulator(seed=26)
        net = Network(sim)
        for name in ("edge-a", "edge-b", "user"):
            net.add_host(name)
        net.add_duplex("edge-a", "edge-b", 1e9, delay=0.004)
        net.add_duplex("edge-a", "user", 100e6, 40e6, delay=0.003)
        net.build_routes()
        group = SyncGroup(net, ["edge-a", "edge-b"])
        for i in range(20):
            sim.schedule(i * 0.1, group.publish, "edge-a")
        sim.run(until=5.0)
        assert group.incomplete() == 0
        assert group.mean_lag() < 0.01
