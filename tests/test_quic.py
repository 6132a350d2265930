"""Tests for the QUIC-like transport: streams, 0-RTT, no cross-stream HOL."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.simnet.queues import DropTailQueue
from repro.transport.quic import QuicConnection


def make_pair(loss=0.0, rtt=0.02, up=20e6, seed=1, on_stream_data=None):
    sim = Simulator(seed=seed)
    net = Network(sim)
    net.add_host("client")
    net.add_host("server")
    net.add_duplex("server", "client", 50e6, up, delay=rtt / 2, loss=loss,
                   queue_up=DropTailQueue(500))
    net.build_routes()
    server = QuicConnection(net["server"], 443, "client", 5000,
                            on_stream_data=on_stream_data)
    client = QuicConnection(net["client"], 5000, "server", 443)
    return sim, net, client, server


def test_handshake_then_stream_delivery():
    got = []
    sim, net, client, server = make_pair(
        on_stream_data=lambda sid, n: got.append((sid, n)))
    client.connect()
    assert not client.established  # waits one round trip for the accept
    sim.run(until=0.5)
    assert client.established
    client.send_stream(1, 50_000)
    sim.run(until=5.0)
    assert server.stream_delivered(1) == 50_000


def test_zero_rtt_resumption_sends_immediately():
    sim, net, client, server = make_pair()
    client.connect(resumed=True)
    assert client.established
    client.send_stream(1, 10_000)
    sim.run(until=1.0)
    assert server.stream_delivered(1) == 10_000


def test_streams_multiplex_independently():
    sim, net, client, server = make_pair()
    client.connect(resumed=True)
    for stream_id in (1, 2, 3):
        client.send_stream(stream_id, 30_000)
    sim.run(until=5.0)
    for stream_id in (1, 2, 3):
        assert server.stream_delivered(stream_id) == 30_000


def test_loss_recovered_with_retransmissions():
    sim, net, client, server = make_pair(loss=0.05, seed=4)
    client.connect(resumed=True)
    client.send_stream(1, 300_000)
    sim.run(until=30.0)
    assert server.stream_delivered(1) == 300_000
    assert client.retransmits > 0


def test_no_cross_stream_hol_blocking():
    """A hole on stream 1 must not delay stream 2's delivery."""
    deliveries = []
    sim, net, client, server = make_pair(
        on_stream_data=lambda sid, n: deliveries.append((sim.now, sid, n)))
    server.on_stream_data = lambda sid, n: deliveries.append((sim.now, sid, n))
    client.connect(resumed=True)
    # Install the interceptor BEFORE sending: transmission is synchronous.
    uplink = net.path_links("client", "server")[0]
    original_send = uplink.send
    state = {"dropped": False}

    def lossy_send(packet):
        if (not state["dropped"] and packet.kind == "quic-data"
                and packet.payload.get("stream") == 1):
            state["dropped"] = True
            return True  # swallow it
        return original_send(packet)

    uplink.send = lossy_send
    client.send_stream(1, 1200)
    client.send_stream(2, 1200)
    sim.run(until=5.0)
    stream2_time = next(t for t, sid, _ in deliveries if sid == 2)
    stream1_time = next(t for t, sid, _ in deliveries if sid == 1)
    # Stream 2 delivered long before stream 1's retransmission landed.
    assert stream2_time < stream1_time
    assert server.stream_delivered(1) == 1200  # eventually recovered


def test_rtt_estimated():
    sim, net, client, server = make_pair(rtt=0.04)
    client.connect(resumed=True)
    client.send_stream(1, 100_000)
    sim.run(until=5.0)
    assert client.rtt.srtt == pytest.approx(0.04, abs=0.02)


def test_in_order_within_stream():
    """Per-stream bytes are delivered in order even with reordering loss."""
    order = []
    sim, net, client, server = make_pair(
        loss=0.03, seed=9,
        on_stream_data=lambda sid, n: order.append(n))
    client.connect(resumed=True)
    for _ in range(50):
        client.send_stream(7, 1200)
    sim.run(until=20.0)
    assert server.stream_delivered(7) == 50 * 1200


def _sender_owns(client, stream_id, offset):
    """True if ``offset`` of the stream is still in flight or pending."""
    chunks = list(client._pending) + [v[:3] for v in client._inflight.values()]
    return any(s == stream_id and o <= offset < o + n for s, o, n in chunks)


def test_heavy_loss_never_orphans_stream_bytes():
    """An ACK whose gap list is truncated must not acknowledge the gaps
    it leaves out: each undelivered byte stays owned by the sender."""
    sim, net, client, server = make_pair(loss=0.2, seed=2)
    client.connect(resumed=True)
    client.send_stream(1, 2_000_000)
    for t in range(1, 121):
        sim.run(until=float(t))
        point = server.stream_delivered(1)
        assert point == 2_000_000 or _sender_owns(client, 1, point), (
            f"t={t}s: stream byte {point} is neither delivered, in flight "
            f"nor pending")
    assert server.stream_delivered(1) == 2_000_000


def test_rtt_sample_excludes_the_probe_timeout_wait():
    """Only a newly acknowledged largest pn gives an RTT sample: a packet
    acknowledged late, after a probe timeout, would add the wait."""
    sim, net, client, server = make_pair(loss=0.2, seed=3)
    client.connect(resumed=True)
    client.send_stream(1, 2_000_000)
    sim.run(until=30.0)
    assert client.rtt.srtt < 0.05   # 20 ms path; 2.74 s with every pn sampled


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_two_megabytes_survive_twenty_percent_loss(seed):
    sim, net, client, server = make_pair(loss=0.2, seed=seed)
    client.connect(resumed=True)
    client.send_stream(1, 2_000_000)
    sim.run(until=120.0)
    assert server.stream_delivered(1) == 2_000_000


def test_send_validates():
    sim, net, client, server = make_pair()
    with pytest.raises(ValueError):
        client.send_stream(1, 0)
