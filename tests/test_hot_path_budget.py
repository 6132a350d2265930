"""Deterministic cost budget for the per-datagram hot path.

Wall-clock benchmarks on a shared host swing by ±20 %, which is enough
to hide a re-added pass-through layer.  The number of Python frames one
datagram costs is exact and host-independent, so it is pinned here:
a one-hop UDP datagram (socket -> host -> link -> queue -> engine, then
serialisation finish, then delivery up to the receiving socket) takes 20
frames and 3 events.  See docs/PERF.md §1 for which calls on the path
stay virtual and why.

The second pair of budgets prices one *cached fleet shard* on a
4-point x 64-seed (256-shard) ``cell_offload`` campaign, by the same
count (CPython 3.11 figures).  ``WARM_VERIFIED_BUDGET`` protects the
re-run of a completed campaign, which is served from the verified merged
cache entry: what is left per shard is its spec, its file name, one
read + sha256 and its ``ShardOutcome`` — 8.4 frames, against 169.7
before the entry existed (parsing the file and two ordered merges).
``WARM_FALLBACK_BUDGET`` protects the per-shard path the same cache
takes when the merged entry is absent or unusable — the only path that
serves an interrupted, quarantined or damaged campaign — so that it
cannot quietly get slower behind the fast one: 168.4 frames, writing
the entry back included.  docs/PERF.md §7.
"""

import sys

from repro.fleet import Campaign, ResultCache, run_campaign
from repro.fleet.cache import MERGED_NAME
from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.transport.udp import UdpSocket

DATAGRAMS = 1000
FRAME_BUDGET = 21
EVENTS_PER_DATAGRAM = 3   # sending callback, serialisation finish, delivery

WARM_SHARDS = 256
WARM_VERIFIED_BUDGET = 12
WARM_FALLBACK_BUDGET = 175


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


def test_cached_fleet_shard_stays_within_frame_budget(tmp_path):
    campaign = Campaign(
        name="warm-budget", scenario="cell_offload", seeds=64, base_seed=1,
        grid={"rtt": [0.008, 0.036, 0.072, 0.120]},
        params={"duration": 0.1, "up_bps": 12e6})
    cold = run_campaign(campaign, cache=ResultCache(tmp_path))
    assert len(cold.outcomes) == WARM_SHARDS

    results = []

    def warm():
        results.append(run_campaign(campaign, cache=ResultCache(tmp_path)))

    verified = _python_calls(warm) / WARM_SHARDS
    assert verified <= WARM_VERIFIED_BUDGET, (
        f"{verified:.1f} Python frames per shard on a verified re-run "
        f"(budget {WARM_VERIFIED_BUDGET}): the merged entry is not serving "
        f"it, or its per-shard verification grew")

    (ResultCache(tmp_path).campaign_dir(campaign) / MERGED_NAME).unlink()
    fallback = _python_calls(warm) / WARM_SHARDS
    assert verified < fallback <= WARM_FALLBACK_BUDGET, (
        f"{fallback:.1f} Python frames per cached shard on the per-shard "
        f"path (budget {WARM_FALLBACK_BUDGET})")

    for result in results:
        assert result.cache_hits == WARM_SHARDS and not result.cache_misses
        assert result.aggregate.to_json() == cold.aggregate.to_json()
