"""E7 — extension: n-way inter-server synchronization (§VI-E).

"The question of inter-server synchronization remains with the need for
n-way synchronization (n being the number of servers)."  Opening more
edge servers reduces user RTT (E6) but multiplies replication traffic
and widens the consistency window.  This benchmark quantifies the
trade: groups of n = 2..8 servers on a metro mesh replicate a stream of
AR state updates.

Expected shape: per-update sync bytes grow linearly with n−1 (the real
cost of "more servers"); the consistency lag is set by the slowest
interlink of the full mesh and stays roughly constant — replication
*cost*, not staleness, is what scales with n.
"""

import pytest
from conftest import run_once

from repro.analysis.report import ascii_table, format_time
from repro.edge.sync import SYNC_UPDATE_BYTES as UPDATE_BYTES, SyncGroup
from repro.simnet.engine import Simulator
from repro.simnet.network import Network

UPDATES = 60


def run_group(n, seed=141):
    sim = Simulator(seed=seed)
    net = Network(sim)
    names = [f"s{i}" for i in range(n)]
    for name in names:
        net.add_host(name)
    rng = sim.child_rng("mesh")
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            # Metro interlinks: 2-12 ms one-way, 1 Gb/s.
            delay = rng.uniform(0.002, 0.012)
            net.add_duplex(a, b, 1e9, delay=delay)
    net.build_routes()
    group = SyncGroup(net, names)
    for i in range(UPDATES):
        sim.schedule(i * 0.05, group.publish, names[i % n])
    sim.run(until=UPDATES * 0.05 + 1.0)
    return group


def test_e7_sync_scaling(benchmark, record_result):
    groups = run_once(benchmark, lambda: {n: run_group(n) for n in (2, 4, 6, 8)})

    rows = []
    for n, group in groups.items():
        rows.append([
            n,
            format_time(group.mean_lag()),
            f"{group.overhead_bytes_per_update():.0f} B",
            f"{group.sync_bytes_sent / 1e3:.0f} KB",
            group.incomplete(),
        ])
    table = ascii_table(
        ["servers n", "consistency lag", "bytes/update", "total sync", "incomplete"],
        rows,
        title=f"E7 — n-way synchronization cost ({UPDATES} updates of {UPDATE_BYTES} B)",
    )
    record_result("E7_server_sync", table)

    # All updates eventually consistent.
    for group in groups.values():
        assert group.incomplete() == 0
    # Per-update overhead is exactly (n-1) x update size.
    for n, group in groups.items():
        assert group.overhead_bytes_per_update() == pytest.approx(
            (n - 1) * UPDATE_BYTES)
    # Lag bounded by the worst interlink's one-way delay (plus
    # serialization) for every group size — the mesh keeps staleness
    # flat while cost grows.
    lags = [groups[n].mean_lag() for n in (2, 4, 6, 8)]
    assert all(0.002 <= lag < 0.015 for lag in lags)
    # Total sync traffic grows linearly in n for a fixed update rate.
    totals = [groups[n].sync_bytes_sent for n in (2, 4, 6, 8)]
    assert totals == sorted(totals)
    assert totals[-1] == pytest.approx(totals[0] * 7, rel=0.01)
