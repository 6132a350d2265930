"""Unit and behavioural tests for TCP NewReno."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.simnet.queues import DropTailQueue
from repro.transport.tcp import TcpConnection, TcpListener


def make_path(down=10e6, up=10e6, delay=0.01, loss=0.0, queue_up=None, queue_down=None):
    sim = Simulator(seed=1)
    net = Network(sim)
    net.add_host("client")
    net.add_host("server")
    net.add_duplex(
        "server", "client", down, up, delay=delay, loss=loss,
        queue_down=queue_down, queue_up=queue_up,
    )
    net.build_routes()
    return sim, net


def transfer(sim, net, nbytes, until=120.0, **conn_kw):
    """Run a client->server transfer; returns (client_conn, delivered)."""
    delivered = []
    TcpListener(
        net["server"], 80,
        on_accept=lambda c: setattr(c, "on_data", delivered.append),
    )
    client = TcpConnection(net["client"], 5000, "server", 80, **conn_kw)
    client.on_established = lambda: client.send(nbytes)
    client.connect()
    sim.run(until=until)
    return client, sum(delivered)


def test_handshake_then_transfer_completes():
    sim, net = make_path()
    client, delivered = transfer(sim, net, 500_000)
    assert client.transfer_complete
    assert delivered == 500_000


def test_no_loss_no_retransmits():
    sim, net = make_path(queue_up=DropTailQueue(10_000), queue_down=DropTailQueue(10_000))
    client, delivered = transfer(sim, net, 300_000)
    assert delivered == 300_000
    assert client.retransmits == 0
    assert client.timeouts == 0


def test_delivery_with_random_loss():
    sim, net = make_path(loss=0.02)
    client, delivered = transfer(sim, net, 300_000, until=300.0)
    assert delivered == 300_000
    assert client.retransmits > 0


def test_rtt_estimate_close_to_path_rtt():
    sim, net = make_path(delay=0.02, queue_up=DropTailQueue(10_000),
                         queue_down=DropTailQueue(10_000))
    client, _ = transfer(sim, net, 100_000)
    # Base RTT is 40 ms prop + serialization + delayed ACK effects.
    assert 0.04 <= client.rtt.srtt < 0.15


def test_cwnd_grows_during_slow_start():
    sim, net = make_path(queue_up=DropTailQueue(10_000), queue_down=DropTailQueue(10_000))
    client, _ = transfer(sim, net, 2_000_000)
    cwnds = [c for _, c in client.cwnd_trace]
    assert max(cwnds) > cwnds[0]


def test_fast_retransmit_on_drop():
    # Tight downlink queue forces drops -> dupacks -> fast retransmit.
    sim, net = make_path(up=2e6, queue_up=DropTailQueue(20))
    client, delivered = transfer(sim, net, 1_000_000, until=120.0)
    assert delivered == 1_000_000
    assert client.retransmits > 0
    # Fast recovery should handle most losses without RTO collapse.
    assert client.timeouts <= client.retransmits


def test_throughput_tracks_bottleneck():
    sim, net = make_path(up=5e6, queue_up=DropTailQueue(100))
    client, delivered = transfer(sim, net, 3_000_000, until=60.0)
    assert client.transfer_complete
    # Effective goodput within 2x of the 5 Mb/s bottleneck (handshake,
    # recovery, header overheads included).
    rate = 3_000_000 * 8 / 40.0
    assert rate > 0.5e6


def test_bulk_mode_saturates_link():
    sim, net = make_path(up=5e6, queue_up=DropTailQueue(100))
    received = []
    TcpListener(net["server"], 80, on_accept=lambda c: setattr(c, "on_data", received.append))
    client = TcpConnection(net["client"], 5000, "server", 80)
    client.on_established = client.send_forever
    client.connect()
    sim.run(until=30.0)
    goodput = sum(received) * 8 / 30.0
    assert goodput == pytest.approx(5e6, rel=0.25)


def test_on_complete_callback():
    sim, net = make_path()
    done = []
    TcpListener(net["server"], 80)
    client = TcpConnection(net["client"], 5000, "server", 80)
    client.on_complete = lambda: done.append(sim.now)
    client.on_established = lambda: client.send(50_000)
    client.connect()
    sim.run(until=60.0)
    assert len(done) == 1


def test_two_connections_share_listener():
    sim, net = make_path()
    sums = {}

    def accept(conn):
        sums[conn.dst_port] = 0
        conn.on_data = lambda n, p=conn.dst_port: sums.__setitem__(p, sums[p] + n)

    TcpListener(net["server"], 80, on_accept=accept)
    c1 = TcpConnection(net["client"], 5001, "server", 80)
    c2 = TcpConnection(net["client"], 5002, "server", 80)
    for c in (c1, c2):
        c.on_established = lambda c=c: c.send(100_000)
        c.connect()
    sim.run(until=120.0)
    assert sums.get(5001) == 100_000
    assert sums.get(5002) == 100_000


def test_send_requires_positive_bytes():
    sim, net = make_path()
    client = TcpConnection(net["client"], 5000, "server", 80)
    with pytest.raises(ValueError):
        client.send(0)


def test_double_connect_rejected():
    sim, net = make_path()
    TcpListener(net["server"], 80)
    client = TcpConnection(net["client"], 5000, "server", 80)
    client.connect()
    with pytest.raises(RuntimeError):
        client.connect()


def test_timeout_recovery_after_heavy_loss_burst():
    sim, net = make_path(loss=0.3)
    client, delivered = transfer(sim, net, 50_000, until=600.0)
    assert delivered == 50_000  # eventually completes through RTOs
