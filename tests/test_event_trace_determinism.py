"""Byte-identical event-trace determinism.

The engine optimizations (lazy-deletion compaction, reschedule-in-place,
kwargs-free fast path) must be invisible to the simulation: a seeded run
is a pure function of its seed, and the exact sequence of fired events —
``(time, seq, fn-qualname)`` — must replay identically run after run,
and must not depend on heap-compaction tuning (compaction only discards
cancelled entries; pop order is the total order ``(time, seq)``).

Two workloads are traced:

- a TCP bulk transfer over a lossy, jittery duplex link — the classic
  RTO-re-arm churn pattern the reschedule API optimises;
- the A10-style resilient failover scenario — heartbeats, backoff
  timers, breaker probes and fault injection all at once.

Each world is also run once at the size the retired perf harness used,
and its outcome pinned as a literal: a double run proves a trace is
reproducible, only a literal proves it has not *moved*.
"""

import hashlib

from repro.core.session import ScenarioBuilder
from repro.mar.application import APP_ARCHETYPES
from repro.mar.devices import SMARTPHONE
from repro.mar.offload import FullOffload, ResilientOffloadExecutor
from repro.simnet import engine
from repro.simnet.engine import Simulator
from repro.simnet.faults import FaultInjector, FaultPlan
from repro.simnet.network import Network
from repro.transport.tcp import TcpConnection, TcpListener


def _attach_trace(sim):
    log = []

    def hook(event):
        name = getattr(event.fn, "__qualname__", repr(event.fn))
        log.append(f"{event.time!r},{event.seq},{name}")

    sim.trace_hook = hook
    return log


def _digest(log):
    return hashlib.sha256("\n".join(log).encode()).hexdigest()


def _tcp_transfer(sim, server, client, down_bps, up_bps, jitter, loss,
                  nbytes, windows, window_len):
    net = Network(sim)
    net.add_host(server)
    net.add_host(client)
    net.add_duplex(server, client, down_bps, up_bps, delay=0.02,
                   jitter=jitter, loss=loss)
    net.build_routes()
    TcpListener(net[server], 80)
    conn = TcpConnection(net[client], 5000, server, 80)
    conn.on_established = lambda: conn.send(nbytes)
    conn.connect()
    # Windowed run loop: exactly the pattern that used to accumulate
    # cancelled RTO timers across windows.
    for _ in range(windows):
        sim.run(until=sim.now + window_len)
    return conn


def run_tcp_trace(seed):
    sim = Simulator(seed=seed)
    log = _attach_trace(sim)
    # 800 KB: a datagram hop is one event, so it takes twice the bytes
    # of the two-event link's 400 KB to fire as many events (~1,100).
    conn = _tcp_transfer(sim, "a", "b", 8e6, 2e6, jitter=0.004, loss=0.02,
                         nbytes=800_000, windows=10, window_len=1.0)
    return log, conn.snd_una


def run_failover_trace(seed, n_frames=120, crash=(2.0, 4.0),
                       blackout=(4.0, 1.5), settle=2.0):
    scenario = ScenarioBuilder(seed=seed).edge_failover()
    log = _attach_trace(scenario.sim)
    radio_links = [l for l in scenario.net.links if "client" in l.name]
    plan = (
        FaultPlan()
        .server_crash(*crash, [scenario.server])
        .blackout(*blackout, radio_links)
    )
    FaultInjector(scenario.net).apply(plan)
    executor = ResilientOffloadExecutor(
        scenario.net, "client", scenario.all_servers,
        APP_ARCHETYPES["orientation"], FullOffload(), SMARTPHONE,
    )
    result = executor.run(n_frames=n_frames, settle=settle)
    return log, (result.frames_sent, result.frames_completed,
                 tuple(executor.metrics.mode_timeline))


def test_tcp_trace_is_byte_identical_across_runs():
    log1, una1 = run_tcp_trace(7)
    log2, una2 = run_tcp_trace(7)
    assert una1 == una2
    assert una1 > 0  # the transfer made real progress
    assert len(log1) > 1000  # a non-trivial amount of events fired
    assert _digest(log1) == _digest(log2)
    assert log1 == log2


def test_tcp_trace_differs_across_seeds():
    log1, _ = run_tcp_trace(7)
    log2, _ = run_tcp_trace(8)
    assert _digest(log1) != _digest(log2)


def test_compaction_tuning_does_not_change_the_trace(monkeypatch):
    """Aggressive vs. effectively-disabled compaction: identical log."""
    monkeypatch.setattr(engine, "COMPACT_MIN", 4)
    monkeypatch.setattr(engine, "COMPACT_RATIO", 0.01)
    eager, _ = run_tcp_trace(7)
    monkeypatch.setattr(engine, "COMPACT_MIN", 1 << 30)
    monkeypatch.setattr(engine, "COMPACT_RATIO", 1.0)
    lazy, _ = run_tcp_trace(7)
    assert eager == lazy


def test_failover_trace_is_byte_identical_across_runs():
    log1, fp1 = run_failover_trace(101)
    log2, fp2 = run_failover_trace(101)
    assert fp1 == fp2
    assert len(log1) > 1000
    assert _digest(log1) == _digest(log2)
    assert log1 == log2


def test_tcp_bulk_transfer_outcome_is_pinned():
    """2 MB over a 20/5 Mb/s link with 0.5 % loss, seed 7: all of it
    acknowledged, seven fast retransmits, no timeout, 2,944 events
    (5,874 while every hop fired a serialization-finish event too)."""
    sim = Simulator(seed=7)
    conn = _tcp_transfer(sim, "server", "client", 20e6, 5e6, jitter=0.002,
                         loss=0.005, nbytes=2_000_000, windows=20,
                         window_len=0.5)
    assert (conn.snd_una, conn.timeouts, conn.retransmits) == (2_000_000, 0, 7)
    assert sim.events_fired == 2944


def test_a10_failover_outcome_is_pinned():
    """The full A10 scenario (25 s at 15 fps, crash at 5 s for 10 s,
    blackout at 10 s for 3 s, seed 101): frames sent / completed and
    the exact degradation-mode timeline."""
    _, (sent, completed, timeline) = run_failover_trace(
        101, n_frames=375, crash=(5.0, 10.0), blackout=(10.0, 3.0),
        settle=3.0)
    modes = ";".join(f"{t!r}:{m.value}" for t, m in timeline)
    assert (sent, completed) == (375, 375)
    assert hashlib.sha256(
        f"{sent}/{completed}/{modes}".encode()).hexdigest() == (
        "5f6c6a1a777c0d0148a54a8c80a4d85ebfb206aca9cb701c046bfe9cde17111c")
