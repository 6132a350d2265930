"""Targeted tests for corners the main suites touch only in passing."""


from repro.simnet.engine import Simulator
from repro.simnet.flows import CBRSource, PacketSink
from repro.simnet import link as link_module
from repro.simnet.link import VariableRateLink
from repro.simnet.network import Network
from repro.simnet.queues import DropTailQueue
from repro.transport.quic import QuicConnection
from repro.wireless.dcf import DcfChannel, DcfStation


class TestQuicBlackout:
    def test_pto_carries_transfer_through_blackout(self):
        sim = Simulator(seed=31)
        net = Network(sim)
        net.add_host("a")
        net.add_host("b")
        net.add_duplex("b", "a", 20e6, 10e6, delay=0.01,
                       queue_up=DropTailQueue(200))
        net.build_routes()
        server = QuicConnection(net["b"], 443, "a", 5000)
        client = QuicConnection(net["a"], 5000, "b", 443)
        client.connect(resumed=True)
        client.send_stream(1, 200_000)
        links = net.path_links("a", "b") + net.path_links("b", "a")

        def black(on):
            for link in links:
                link.loss = 0.999999 if on else 0.0

        sim.schedule(0.05, black, True)
        sim.schedule(1.5, black, False)
        sim.run(until=60.0)
        assert server.stream_delivered(1) == 200_000
        assert client.retransmits > 0

    def test_cwnd_collapses_on_pto(self):
        sim = Simulator(seed=32)
        net = Network(sim)
        net.add_host("a")
        net.add_host("b")
        net.add_duplex("b", "a", 20e6, 10e6, delay=0.01)
        net.build_routes()
        QuicConnection(net["b"], 443, "a", 5000)
        client = QuicConnection(net["a"], 5000, "b", 443)
        client.connect(resumed=True)
        client.send_stream(1, 100_000)
        sim.run(until=2.0)
        cwnd_before = client.cwnd
        # Silence the network entirely and let the PTO fire.
        for link in net.path_links("a", "b") + net.path_links("b", "a"):
            link.loss = 0.999999
        client.send_stream(1, 50_000)
        sim.run(until=4.0)
        assert client.cwnd < cwnd_before

    def test_handshake_timeout_is_not_fatal(self):
        # An initial toward a dead server: connection just never opens.
        sim = Simulator(seed=33)
        net = Network(sim)
        net.add_host("a")
        net.add_host("b")
        net.add_duplex("b", "a", 1e6, 1e6, delay=0.01, loss=0.999999)
        net.build_routes()
        QuicConnection(net["b"], 443, "a", 5000)
        client = QuicConnection(net["a"], 5000, "b", 443)
        client.connect()
        sim.run(until=5.0)
        assert not client.established


class TestDcfDynamics:
    def test_rate_change_mid_run(self):
        sim = Simulator(seed=34)
        channel = DcfChannel(sim)
        a = channel.add_station(DcfStation("a", 54e6))
        channel.add_station(DcfStation("b", 54e6))
        sim.run(until=3.0)
        channel.set_rate("b", 6e6)
        sim.run(until=6.0)
        assert a.throughput_bps(3.5, 6) < a.throughput_bps(0.5, 3) * 0.6

    def test_collision_counters_consistent(self):
        sim = Simulator(seed=35)
        channel = DcfChannel(sim)
        stations = [channel.add_station(DcfStation(f"s{i}", 54e6))
                    for i in range(6)]
        sim.run(until=3.0)
        assert channel.total_successes == sum(s.frames_sent for s in stations)
        assert channel.total_collisions > 0
        assert 0.0 < channel.collision_probability < 1.0


class TestVariableRateUnderLoad:
    def test_cbr_through_varying_link_delivers_most(self, monkeypatch):
        monkeypatch.setattr(link_module, "RATE_UPDATE_INTERVAL", 0.25)
        sim = Simulator(seed=36)
        net = Network(sim)
        net.add_host("a")
        net.add_host("b")
        link = VariableRateLink(
            sim, net["a"], net["b"], mean_rate_bps=8e6, min_rate_bps=2e6,
            max_rate_bps=20e6, sigma=0.5,
            queue=DropTailQueue(500), delay=0.005,
        )
        net.links.append(link)
        net.build_routes()
        sink = PacketSink(net["b"], 80)
        CBRSource(net["a"], "b", 80, rate_bps=1.5e6, packet_size=1000)
        sim.run(until=20.0)
        expected = 1.5e6 * 20 / (1000 * 8)
        # Offered far below the minimum rate: nearly lossless despite
        # the wild rate swings.
        assert sink.stats.packets_total >= expected * 0.98
        # Delay stays bounded by the worst serialization backlog.
        assert sink.stats.delay_percentile(99) < 1.0
