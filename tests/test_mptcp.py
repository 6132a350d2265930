"""Tests for the MPTCP baseline: aggregation and handover."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.simnet.queues import DropTailQueue
from repro.transport.mptcp import MptcpReceiver, MptcpSender
from repro.transport.tcp import TcpConnection


def two_path_net(wifi_up=10e6, lte_up=5e6, wifi_rtt=0.02, lte_rtt=0.06, seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim)
    net.add_host("client-wifi")
    net.add_host("client-lte")
    net.add_host("server")
    net.add_duplex("server", "client-wifi", 50e6, wifi_up, delay=wifi_rtt / 2,
                   queue_up=DropTailQueue(200))
    net.add_duplex("server", "client-lte", 50e6, lte_up, delay=lte_rtt / 2,
                   queue_up=DropTailQueue(200))
    net.build_routes()
    return sim, net


def make_connection(net, ports=(80, 81)):
    receiver = MptcpReceiver(net["server"], list(ports))
    subflows = [
        TcpConnection(net["client-wifi"], 5000, "server", ports[0]),
        TcpConnection(net["client-lte"], 5001, "server", ports[1]),
    ]
    sender = MptcpSender(subflows)
    receiver.attach_sender(sender)
    return sender, receiver


def test_transfer_completes_over_two_subflows():
    sim, net = two_path_net()
    sender, receiver = make_connection(net)
    sender.on_established = lambda: sender.send(3_000_000)
    sender.connect()
    sim.run(until=60.0)
    assert receiver.bytes_received == 3_000_000


def test_both_subflows_carry_data():
    sim, net = two_path_net()
    sender, receiver = make_connection(net)
    sender.on_established = lambda: sender.send(5_000_000)
    sender.connect()
    sim.run(until=60.0)
    assigned = [sum(end - start for start, end in log) for log in sender.dsn_log]
    assert min(assigned) > 0.15 * sum(assigned)


def test_aggregate_beats_single_path():
    # Single path (WiFi only).
    sim1, net1 = two_path_net()
    single = TcpConnection(net1["client-wifi"], 5000, "server", 80)
    from repro.transport.tcp import TcpListener
    got = []
    TcpListener(net1["server"], 80, on_accept=lambda c: setattr(c, "on_data", got.append))
    single.on_established = single.send_forever
    single.connect()
    sim1.run(until=20.0)
    single_rate = sum(got) * 8 / 20.0

    # MPTCP over both.
    sim2, net2 = two_path_net()
    sender, receiver = make_connection(net2)
    sender.on_established = lambda: sender.send(60_000_000)
    sender.connect()
    sim2.run(until=20.0)
    mptcp_rate = receiver.bytes_received * 8 / 20.0
    assert mptcp_rate > single_rate * 1.2


def test_handover_reinjects_stranded_bytes():
    sim, net = two_path_net()
    sender, receiver = make_connection(net)
    sender.on_established = lambda: sender.send(4_000_000)
    sender.connect()
    # Kill the WiFi subflow mid-transfer; also break the path so stale
    # in-flight data is really gone.
    def fail_wifi():
        net.path_links("client-wifi", "server")[0].loss = 0.999999
        sender.set_alive(0, False)
    sim.schedule(2.0, fail_wifi)
    sim.run(until=120.0)
    # Everything still arrives, via the LTE subflow.
    assert receiver.bytes_received >= 4_000_000 * 0.98


def test_needs_at_least_one_subflow():
    with pytest.raises(ValueError):
        MptcpSender([])


def test_send_validates():
    sim, net = two_path_net()
    sender, _ = make_connection(net)
    with pytest.raises(ValueError):
        sender.send(0)


def test_throughput_timeseries():
    sim, net = two_path_net()
    sender, receiver = make_connection(net)
    sender.on_established = lambda: sender.send(2_000_000)
    sender.connect()
    sim.run(until=30.0)
    assert receiver.throughput_bps(0.0, 30.0) > 0
    assert receiver.throughput_bps(5.0, 5.0) == 0.0


def test_clean_transfer_has_no_duplicates_and_is_in_order():
    sim, net = two_path_net()
    sender, receiver = make_connection(net)
    sender.on_established = lambda: sender.send(3_000_000)
    sender.connect()
    sim.run(until=60.0)
    assert receiver.bytes_delivered_unique == 3_000_000
    assert receiver.duplicate_bytes == 0
    assert receiver.bytes_contiguous == 3_000_000
    assert receiver.bytes_received == (
        receiver.bytes_delivered_unique + receiver.duplicate_bytes
    )


def test_handover_delivers_every_byte_exactly_once():
    """Real path death: in-flight AND backlog bytes stranded on the dead
    subflow are re-injected, so the unique DSN delivery is exact — the
    old in-flight-only re-injection silently lost the send backlog."""
    sim, net = two_path_net()
    sender, receiver = make_connection(net)
    sender.on_established = lambda: sender.send(4_000_000)
    sender.connect()

    def fail_wifi():
        net.path_links("client-wifi", "server")[0].loss = 0.999999
        sender.set_alive(0, False)
    sim.schedule(2.0, fail_wifi)
    sim.run(until=120.0)
    assert receiver.bytes_delivered_unique == 4_000_000
    assert receiver.bytes_contiguous == 4_000_000
    assert receiver.bytes_received == (
        receiver.bytes_delivered_unique + receiver.duplicate_bytes
    )


def test_spurious_failover_duplicates_detected_not_recounted():
    """MPTCP-level failover without actual path death: the 'dead'
    subflow keeps delivering, so the re-injected copy arrives twice.
    The receiver must classify the second copy as duplicate bytes."""
    sim, net = two_path_net()
    sender, receiver = make_connection(net)
    sender.on_established = lambda: sender.send(4_000_000)
    sender.connect()
    sim.schedule(2.0, sender.set_alive, 0, False)   # path NOT broken
    sim.run(until=120.0)
    assert receiver.bytes_delivered_unique == 4_000_000
    assert receiver.duplicate_bytes > 0
    assert receiver.bytes_received == (
        receiver.bytes_delivered_unique + receiver.duplicate_bytes
    )


def test_receiver_without_sender_degrades_to_raw_counting():
    sim, net = two_path_net()
    receiver = MptcpReceiver(net["server"], [80, 81])
    subflows = [
        TcpConnection(net["client-wifi"], 5000, "server", 80),
        TcpConnection(net["client-lte"], 5001, "server", 81),
    ]
    sender = MptcpSender(subflows)
    sender.on_established = lambda: sender.send(500_000)
    sender.connect()
    sim.run(until=30.0)
    assert receiver.bytes_received == 500_000
    assert receiver.bytes_delivered_unique == 0      # accounting disabled


def test_attach_sender_validates_subflow_count():
    sim, net = two_path_net()
    receiver = MptcpReceiver(net["server"], [80])
    sender = MptcpSender([TcpConnection(net["client-wifi"], 5000, "server", 80),
                          TcpConnection(net["client-lte"], 5001, "server", 81)])
    with pytest.raises(ValueError):
        receiver.attach_sender(sender)
