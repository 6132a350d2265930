"""Unit tests for nodes, routing and the Network topology builder."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.simnet.node import Host
from repro.simnet.packet import Packet


class Recorder:
    def __init__(self):
        self.packets = []

    def on_packet(self, packet):
        self.packets.append(packet)


def star_network(sim):
    net = Network(sim)
    net.add_host("a")
    net.add_host("b")
    net.add_router("r")
    net.add_duplex("a", "r", 10e6, delay=0.001)
    net.add_duplex("r", "b", 10e6, delay=0.001)
    net.build_routes()
    return net


def test_host_port_dispatch():
    sim = Simulator()
    net = star_network(sim)
    rec = Recorder()
    net["b"].bind(80, rec)
    net["a"].send(Packet(src="a", dst="b", size=100, dst_port=80))
    sim.run()
    assert len(rec.packets) == 1


def test_router_forwards():
    sim = Simulator()
    net = star_network(sim)
    rec = Recorder()
    net["b"].bind(80, rec)
    net["a"].send(Packet(src="a", dst="b", size=100, dst_port=80))
    sim.run()
    assert len(rec.packets) == 1
    assert [link.packets_delivered for link in net.path_links("a", "b")] == [1, 1]


def test_unbound_port_counted():
    sim = Simulator()
    net = star_network(sim)
    net["a"].send(Packet(src="a", dst="b", size=100, dst_port=9999))
    sim.run()
    assert net["b"].packets_dropped_no_port == 1


def test_default_handler():
    sim = Simulator()
    net = star_network(sim)
    got = []
    net["b"].default_handler = got.append
    net["a"].send(Packet(src="a", dst="b", size=100, dst_port=9999))
    sim.run()
    assert len(got) == 1


def test_unroutable_counted():
    sim = Simulator()
    net = star_network(sim)
    ok = net["a"].send(Packet(src="a", dst="nowhere", size=100))
    assert not ok
    assert net["a"].packets_unroutable == 1


def test_double_bind_rejected():
    sim = Simulator()
    host = Host(sim, "h")
    host.bind(1, Recorder())
    with pytest.raises(ValueError):
        host.bind(1, Recorder())


def test_unbind_allows_rebind():
    sim = Simulator()
    host = Host(sim, "h")
    host.bind(1, Recorder())
    host.unbind(1)
    host.bind(1, Recorder())
    assert host.is_bound(1)


def test_router_rejects_local_delivery():
    sim = Simulator()
    net = Network(sim)
    net.add_host("a")
    net.add_router("r")
    net.add_duplex("a", "r", 1e6)
    net.build_routes()
    net["a"].send(Packet(src="a", dst="r", size=10))
    with pytest.raises(RuntimeError):
        sim.run()


def test_duplicate_node_name_rejected():
    net = Network(Simulator())
    net.add_host("x")
    with pytest.raises(ValueError):
        net.add_host("x")


def test_route_via_foreign_link_rejected():
    sim = Simulator()
    net = Network(sim)
    net.add_host("a")
    net.add_host("b")
    net.add_host("c")
    link = net.add_link("a", "b", 1e6)
    with pytest.raises(ValueError):
        net["c"].add_route("b", link)


class TestRouting:
    def make_diamond(self):
        """a - (fast upper r1 / slow lower r2) - b."""
        sim = Simulator()
        net = Network(sim)
        for name in ("a", "b"):
            net.add_host(name)
        for name in ("r1", "r2"):
            net.add_router(name)
        net.add_duplex("a", "r1", 100e6, delay=0.001)
        net.add_duplex("r1", "b", 100e6, delay=0.001)
        net.add_duplex("a", "r2", 100e6, delay=0.050)
        net.add_duplex("r2", "b", 100e6, delay=0.050)
        net.build_routes()
        return sim, net

    def test_shortest_path_preferred(self):
        sim, net = self.make_diamond()
        links = net.path_links("a", "b")
        assert [l.dst.name for l in links] == ["r1", "b"]

    def test_base_rtt(self):
        sim, net = self.make_diamond()
        rtt = net.base_rtt("a", "b", packet_size=1514)
        # 4 hops x 1 ms propagation + 4 serializations of ~121 µs
        assert rtt == pytest.approx(0.004 + 4 * (1514 * 8 / 100e6), rel=0.01)

    def test_bottleneck_rate(self):
        sim = Simulator()
        net = Network(sim)
        net.add_host("a")
        net.add_host("b")
        net.add_router("r")
        net.add_duplex("a", "r", 100e6)
        net.add_duplex("r", "b", 3e6)
        net.build_routes()
        assert min(l.rate_bps for l in net.path_links("a", "b")) == 3e6

    def test_end_to_end_delivery_over_two_hops(self):
        sim, net = self.make_diamond()
        rec = Recorder()
        net["b"].bind(5, rec)
        net["a"].send(Packet(src="a", dst="b", size=1000, dst_port=5))
        sim.run()
        assert len(rec.packets) == 1
        # Fast path: ~2 ms propagation, not 100 ms.
        assert sim.now < 0.01

    def test_path_links_unknown_node_is_a_key_error(self):
        sim, net = self.make_diamond()
        with pytest.raises(KeyError, match="nowhere"):
            net.path_links("a", "nowhere")
        with pytest.raises(KeyError, match="nowhere"):
            net.path_links("nowhere", "b")

    def test_path_links_without_a_route_is_a_value_error(self):
        net = Network(Simulator())
        for name in ("a", "b", "island"):
            net.add_host(name)
        net.add_link("a", "b", 1e6)
        with pytest.raises(ValueError, match="no path from 'b' to 'a'"):
            net.path_links("b", "a")
        with pytest.raises(ValueError, match="no path from 'a' to 'island'"):
            net.path_links("a", "island")
        assert net.path_links("a", "a") == []

    def test_disconnected_topology_installs_only_reachable_routes(self):
        net = Network(Simulator())
        for name in ("a", "b", "c", "d"):
            net.add_host(name)
        ab = net.add_duplex("a", "b", 1e6)
        net.add_link("c", "d", 1e6)
        net.build_routes()
        assert net["a"].routes == {"b": ab.down}
        assert net["b"].routes == {"a": ab.up}
        assert list(net["c"].routes) == ["d"]
        assert net["d"].routes == {}


# ----------------------------------------------------------------------
# Routing oracle: the networkx code ``Network`` used before it grew its
# own Dijkstra.  Every committed fingerprint was recorded over the routes
# this code picks, ties included, so ``Network`` must pick the same ones.
# ----------------------------------------------------------------------
def _oracle(net):
    """``({node: [(dst, first-hop link), ...]}, path_links)`` via networkx."""
    nx = pytest.importorskip("networkx")
    g = nx.DiGraph()
    g.add_nodes_from(net.nodes)
    for link in net.links:
        weight = link.delay + (1514 * 8) / link.rate_bps
        g.add_edge(link.src.name, link.dst.name, weight=weight, link=link)
    routes = {name: [] for name in net.nodes}
    for src, by_dst in nx.all_pairs_dijkstra_path(g, weight="weight"):
        for dst, path in by_dst.items():
            if dst != src:
                routes[src].append((dst, g.edges[path[0], path[1]]["link"]))

    def path_links(a, b):
        try:
            path = nx.dijkstra_path(g, a, b, weight="weight")
        except nx.NetworkXNoPath:
            return None
        return [g.edges[u, v]["link"] for u, v in zip(path, path[1:])]

    return routes, path_links


def assert_routes_match_networkx(net):
    """Same first hops, installed in the same order, and the same paths."""
    want_routes, want_path = _oracle(net)
    for node in net.nodes.values():
        node.routes.clear()
    net.build_routes()
    routes = 0
    for name, node in net.nodes.items():
        assert list(node.routes.items()) == want_routes[name], name
        routes += len(node.routes)
    for a in net.nodes:
        for b in net.nodes:
            want = want_path(a, b)
            if want is None:
                with pytest.raises(ValueError):
                    net.path_links(a, b)
            else:
                assert net.path_links(a, b) == want, (a, b)   # same Link objects
    return routes


def tie_heavy_network(rng):
    """2–9 nodes, delays and rates from a few values so ties are the norm."""
    net = Network(Simulator())
    names = [f"n{i}" for i in range(rng.randint(2, 9))]
    for name in names:
        net.add_router(name)
    delays = rng.sample([0.0, 0.001, 0.002, 0.005], rng.choice([3, 4]))
    rates = rng.sample([1e6, 10e6, 100e6, 1e9], rng.choice([3, 4]))
    density = rng.choice([0.2, 0.4, 0.7])
    for a in names:
        for b in names:
            if a == b or rng.random() > density:
                continue
            delay, rate = rng.choice(delays), rng.choice(rates)
            if rng.random() < 0.5:
                net.add_duplex(a, b, rate, delay=delay)
            else:
                net.add_link(a, b, rate, delay=delay)
    return net


class TestRoutingOracle:
    def test_tie_heavy_random_digraphs(self):
        import random

        rng = random.Random(20170605)
        routes = sum(assert_routes_match_networkx(tie_heavy_network(rng))
                     for _ in range(400))
        assert routes > 5000     # the corpus is not mostly empty graphs

    @pytest.mark.parametrize("build", [
        lambda b: b.single_path(rtt=0.036),
        lambda b: b.multipath(),
        lambda b: b.multipath(two_servers=True),
        lambda b: b.edge_failover(),
        lambda b: b.d2d_assist(),
    ], ids=["single_path", "multipath", "multipath-two_servers",
            "edge_failover", "d2d_assist"])
    def test_scenario_builder_topologies(self, build):
        from repro.core.session import ScenarioBuilder

        assert assert_routes_match_networkx(build(ScenarioBuilder()).net) > 0

    def test_later_parallel_link_wins(self):
        net = Network(Simulator())
        for name in ("a", "b", "c"):
            net.add_host(name)
        net.add_link("a", "b", 1e6, delay=0.001)
        net.add_link("a", "c", 1e6, delay=0.001)
        net.add_link("c", "b", 1e9, delay=0.0)
        slow = net.add_link("a", "b", 1e6, delay=0.010)   # replaces the first
        assert_routes_match_networkx(net)
        assert net["a"].routes["b"].dst.name == "c"
        fast = net.add_link("a", "b", 1e9, delay=0.0)
        assert_routes_match_networkx(net)
        assert net["a"].routes["b"] is fast and fast is not slow
