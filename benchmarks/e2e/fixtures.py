"""Canonical dumbbell topology, built from the simulator's public API only.

Two TCP NewReno bulk senders (and an optional constant-bit-rate UDP
pair) share one bottleneck between two routers::

    c1 --\\                      /-- s1
    c2 ---+-- sw1 ======= sw2 --+--- s2
    c3 --/    (bw, delay, loss,  \\-- s3      (c3/s3: UDP background)
               DropTail buffer)

This is the cross-protocol fixture of the Mininet ``DumbbellTopo``
experiments (SNIPPETS.md 2-3): RTT 40 ms, MSS 1200 B, bottleneck knobs
``bw / delay / loss / buffer``.  It imports nothing from the benchmark
harness, so a conformance suite (ROADMAP item 3) can reuse it as is::

    from fixtures import dumbbell
    d = dumbbell(bw=10e6, delay=0.010, loss=0.0, buffer_pkts=42)
    d.start()
    d.sim.run(until=60.0)
    d.goodput_bps(60.0), d.bottleneck.queue_drops
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.simnet.engine import Simulator
from repro.simnet.flows import CBRSource, PacketSink
from repro.simnet.link import Link
from repro.simnet.network import Network
from repro.simnet.queues import DropTailQueue
from repro.transport.tcp import TcpConnection, TcpListener

#: Access links are this many times faster than the bottleneck, so the
#: shared link is the only place a queue can build.
ACCESS_SPEEDUP = 10.0
TCP_PORT = 80
UDP_PORT = 9000


@dataclass
class Dumbbell:
    """A built (not yet started) dumbbell and its measurement handles."""

    sim: Simulator
    net: Network
    bottleneck: Link                 # sw1 -> sw2, the data direction
    senders: List[TcpConnection]
    #: in-order bytes delivered to each TCP receiver, by sender index
    delivered: List[int] = field(default_factory=list)
    udp_source: Optional[CBRSource] = None
    udp_sink: Optional[PacketSink] = None

    def start(self) -> None:
        """Open both TCP connections; each turns bulk once established."""
        for conn in self.senders:
            conn.connect()

    def goodput_bps(self, elapsed: float) -> float:
        """Aggregate in-order TCP payload rate over ``elapsed`` seconds."""
        return sum(self.delivered) * 8 / elapsed


def dumbbell(bw: float, delay: float, loss: float, buffer_pkts: int,
             rtt: float = 0.040, mss: int = 1200,
             udp_background: Optional[float] = None,
             seed: int = 0) -> Dumbbell:
    """Build the dumbbell.

    ``bw`` (bits/s), ``delay`` (one-way seconds), ``loss`` (probability,
    data direction only) and ``buffer_pkts`` (DropTail capacity)
    describe the bottleneck.  ``rtt`` is the unloaded end-to-end round
    trip: what the bottleneck does not account for is split evenly over
    the four access hops of a path.  ``udp_background`` is the rate in
    bits/s of a CBR UDP pair (``mss``-sized datagrams) sharing the
    bottleneck, or ``None`` for TCP only.
    """
    access_delay = (rtt / 2 - delay) / 2
    if access_delay < 0:
        raise ValueError(f"bottleneck delay {delay} exceeds rtt/2 = {rtt / 2}")
    sim = Simulator(seed=seed)
    net = Network(sim)
    net.add_router("sw1")
    net.add_router("sw2")
    bottleneck = net.add_link("sw1", "sw2", bw, delay=delay, loss=loss,
                              queue=DropTailQueue(buffer_pkts))
    net.add_link("sw2", "sw1", bw, delay=delay)
    n_pairs = 2 if udp_background is None else 3
    for i in range(1, n_pairs + 1):
        net.add_host(f"c{i}")
        net.add_host(f"s{i}")
        net.add_duplex(f"c{i}", "sw1", bw * ACCESS_SPEEDUP, delay=access_delay)
        net.add_duplex(f"s{i}", "sw2", bw * ACCESS_SPEEDUP, delay=access_delay)
    net.build_routes()

    d = Dumbbell(sim=sim, net=net, bottleneck=bottleneck, senders=[],
                 delivered=[0, 0])
    for i in (0, 1):
        def on_data(nbytes: int, i: int = i) -> None:
            d.delivered[i] += nbytes

        TcpListener(net[f"s{i + 1}"], TCP_PORT,
                    on_accept=lambda conn, cb=on_data: setattr(conn, "on_data", cb))
        conn = TcpConnection(net[f"c{i + 1}"], 5000, f"s{i + 1}", TCP_PORT,
                             mss=mss)
        conn.on_established = conn.send_forever
        d.senders.append(conn)
    if udp_background is not None:
        d.udp_sink = PacketSink(net["s3"], UDP_PORT)
        d.udp_source = CBRSource(net["c3"], "s3", UDP_PORT, udp_background,
                                 packet_size=mss, flow="udp-background")
    return d
