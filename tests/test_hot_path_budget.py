"""Deterministic cost budget for the per-datagram hot path.

Wall-clock benchmarks on a shared host swing by ±20 %, which is enough
to hide a re-added pass-through layer.  The number of Python frames one
datagram costs is exact and host-independent, so it is pinned here:
a one-hop UDP datagram (socket -> host -> link -> queue -> engine, then
serialisation finish, then delivery up to the receiving socket) takes 20
frames and 3 events.  See docs/PERF.md §1 for which calls on the path
stay virtual and why.
"""

import sys

from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.transport.udp import UdpSocket

DATAGRAMS = 1000
FRAME_BUDGET = 21
EVENTS_PER_DATAGRAM = 3   # sending callback, serialisation finish, delivery


def _python_calls(fn) -> int:
    """Python-level function calls made while ``fn()`` runs (C calls
    are reported as ``c_call`` and not counted)."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def _two_host_world():
    sim = Simulator(seed=7)
    net = Network(sim)
    net.add_host("a")
    net.add_host("b")
    net.add_duplex("a", "b", 10e6, 10e6, delay=0.005, jitter=0.002)
    net.build_routes()
    tx = UdpSocket(net["a"], 9000)
    rx = UdpSocket(net["b"], 9001)
    return sim, tx, rx


def test_one_hop_datagram_stays_within_frame_and_event_budget():
    sim, tx, rx = _two_host_world()

    def send_one():
        tx.sendto("b", 9001, 200)

    # 1 ms apart: each datagram (182 us on the wire) is serialised alone.
    for i in range(DATAGRAMS):
        sim.schedule(i * 0.001, send_one)

    calls = _python_calls(sim.run)

    assert rx.datagrams_received == DATAGRAMS
    assert sim.events_fired == EVENTS_PER_DATAGRAM * DATAGRAMS
    per_datagram = calls / DATAGRAMS
    assert per_datagram <= FRAME_BUDGET, (
        f"{per_datagram:.2f} Python frames per delivered datagram "
        f"(budget {FRAME_BUDGET}): a pass-through layer is back on the "
        f"socket -> link -> socket path")
