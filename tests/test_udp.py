"""Unit tests for the UDP socket."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.simnet.packet import IP_UDP_HEADER
from repro.transport.udp import UdpSocket


def make_net():
    sim = Simulator()
    net = Network(sim)
    net.add_host("a")
    net.add_host("b")
    net.add_duplex("a", "b", 10e6, delay=0.005)
    net.build_routes()
    return sim, net


def test_datagram_delivery_and_payload():
    sim, net = make_net()
    got = []
    UdpSocket(net["b"], 53, on_receive=got.append)
    sender = UdpSocket(net["a"], 1234)
    sender.sendto("b", 53, 100, answer=42)
    sim.run()
    assert len(got) == 1
    assert got[0].payload["answer"] == 42
    assert got[0].src == "a"
    assert got[0].src_port == 1234


def test_header_overhead_on_wire():
    sim, net = make_net()
    sender = UdpSocket(net["a"], 1)
    p = sender.sendto("b", 2, 100)
    assert p.size == 100 + IP_UDP_HEADER


def test_counters():
    sim, net = make_net()
    got = []
    UdpSocket(net["b"], 53, on_receive=got.append)
    sender = UdpSocket(net["a"], 1)
    for _ in range(3):
        sender.sendto("b", 53, 50)
    sim.run()
    link, = net.path_links("a", "b")
    assert link.bytes_sent == 3 * (50 + IP_UDP_HEADER)
    assert link.bytes_delivered == 3 * (50 + IP_UDP_HEADER)
    assert sum(packet.size for packet in got) == 3 * (50 + IP_UDP_HEADER)


def test_closed_socket_raises():
    sim, net = make_net()
    sender = UdpSocket(net["a"], 1)
    sender.close()
    with pytest.raises(RuntimeError):
        sender.sendto("b", 2, 10)


def test_close_unbinds_port():
    sim, net = make_net()
    sock = UdpSocket(net["a"], 1)
    sock.close()
    assert not net["a"].is_bound(1)
    UdpSocket(net["a"], 1)  # can rebind


def test_bidirectional_exchange():
    sim, net = make_net()
    replies = []

    def server_logic(packet):
        server.sendto(packet.src, packet.src_port, 20, kind="reply")

    server = UdpSocket(net["b"], 7, on_receive=server_logic)
    client = UdpSocket(net["a"], 8, on_receive=replies.append)
    client.sendto("b", 7, 50)
    sim.run()
    assert len(replies) == 1
    assert replies[0].kind == "reply"
    # One full round trip: 2 x 5 ms propagation plus serialization.
    assert sim.now == pytest.approx(0.010, abs=0.002)
