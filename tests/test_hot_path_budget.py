"""Deterministic cost budget for the per-datagram hot path.

Wall-clock benchmarks on a shared host swing by ±20 %, which is enough
to hide a re-added pass-through layer.  The number of Python frames one
datagram costs is exact and host-independent, so it is pinned here:
a one-hop UDP datagram (socket -> host -> link, which plans its
departure and schedules its delivery, then the delivery up to the
receiving socket) takes 13 frames and 2 events, the sending callback
and the delivery.  It took 20 frames and 3 events while the link fired
a serialisation-finish event per packet.  See docs/PERF.md §1 for which
calls on the path stay virtual and why.

The MARTP budget prices what the protocol adds on top of that
datagram, on one ``cell_offload`` shard (seed 11, 36 ms, 12 Mb/s, 2 s:
1,119 messages delivered in 1,463 events, 2,626 with the finish
events): Python frames per delivered message while the session runs —
ticks, feedback and the video source included — and while the shard is
collected into its aggregate.

    CPython          run      collect     (before: run / collect)
    3.9, 3.10, 3.11  21.95    0.34        27.29 / 0.32, 38.07 / 5.31
    3.12, 3.13       21.01    0.33        26.36 / 0.32, 36.13 / 5.31

Of the 21.95, 13 are the datagram and five the message (``submit``,
``_offer``, ``Message``, ``_dispatch``, ``select``); the rest is
amortised ticks, feedback rounds and allocation.  ``MARTP_RUN_BUDGET``
(22.5) notices a sixth per-message frame; ``MARTP_COLLECT_BUDGET``
(1.0) notices a per-sample call in any one of the post-run walks.
docs/PERF.md §1.

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
the entry back included.  docs/PERF.md §4.

The last three budgets price *observing* a run, by the same count, and
replace wall-clock overhead ratios that a host swinging ~20 % could not
resolve (CPython 3.11 figures; each test also asserts the observed run
produced the same outcome bytes as the plain one):

- the full obs stack (tracer + frame observer + queue and link
  monitors) on a 120-frame ``gaming`` offload session sharing its path
  with a MARTP session: 118,268 frames against 112,926 plain, +4.7 %
  (+4.8 % on 3.12 and 3.13) and 44.5 per offloaded frame (six spans
  and their bookkeeping).  It
  was 185,920 against 180,701, +2.9 % and 43.5, while every datagram
  hop fired a finish event: the plain run lost 37 % of its frames.
  ``OBS_ARMED_RATIO`` is the old "enabled may cost at most 5 %" gate
  made exact; ``OBS_FRAME_BUDGET`` is the one that notices a seventh
  span.
- the fleet telemetry bus on a serial 16-shard ``cell_offload``
  campaign of 1 s shards: 48 frames per campaign and 14 per shard
  (17.0 per shard all told, against ~4,500 to run one).
- the armed flight recorder on the same campaign: exactly one frame per
  fired event — the ``_fire`` the engine dispatches through while any
  hook is attached; the hook itself is the ring's C-level ``append`` —
  plus 15.3 per shard to spill the ring at the shard boundary (17.2
  with the finish events, 38.9 and 55.1 while the spill built
  ``pathlib`` paths per shard).  The shards run 1 s, not 0.5 s, so that
  the campaign still fires more than 300 events per shard (527.5; 337.5
  at 0.5 s with the finish events).

The fluid tier (``repro.scale.population``) is priced per fluid
sample, on one ``small``-budget city cell (city seed 1, cell 3: 601
samples): ``run_cell`` fires no engine event, and stepping plus
``aggregate()`` take 1.19 Python frames per sample (1.18 on 3.12 and
3.13; 11.17 while every step was an engine event and every sample a
``load_factors`` call).  One of them is ``random.Random.gauss``, which
is Python code; the rest is the summary's fixed cost.
``FLUID_SAMPLE_BUDGET`` (1.25) notices a per-step event or a
per-sample call in the summary walk.  docs/SCALE.md §6.

The transport kernel (``repro.transport.base.Reassembly`` and MPTCP's
``_IntervalSet``) is priced in *comparisons* per delivered segment:
its cost was a ``sorted`` or a linear scan, both C code that no frame
count sees.  Offsets are a counting ``int`` subclass instead.  Growing
a reassembly hole (or a set of disjoint intervals) 16-fold must at most
double the count, which is logarithmic; the copies the kernel replaced
were linear (CPython 3.11 figures):

    hole / spans          64      1,024    (before: 64 / 1,024)
    QuicStream            10.75   18.52    97.0 / 1,537.0
    _IntervalSet.add      5.12    9.01     32.5 / 512.5
"""

import gc
import hashlib
import sys

from repro.fleet import Campaign, ResultCache, TelemetryCollector, run_campaign
from repro.fleet.cache import MERGED_NAME
from repro.simnet import engine
from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.simnet.packet import IP_UDP_HEADER
from repro.transport import QuicStream
from repro.transport.mptcp import _IntervalSet
from repro.transport.udp import UdpSocket

DATAGRAMS = 1000
FRAME_BUDGET = 14
EVENTS_PER_DATAGRAM = 2   # sending callback, delivery

MARTP_RUN_BUDGET = 22.5
MARTP_COLLECT_BUDGET = 1.0
MARTP_MESSAGES = 1119
MARTP_EVENTS = 1463
MARTP_AGGREGATE_SHA256 = (
    "3f47ecb8712c00ca371af6ea0d57365ad85ffc814e5d6f65313cb5eb18e15b66")

WARM_SHARDS = 256
WARM_VERIFIED_BUDGET = 12
WARM_FALLBACK_BUDGET = 175

OBS_FRAMES = 120
OBS_ARMED_RATIO = 1.05
OBS_FRAME_BUDGET = 45

FLEET_OBS_SHARDS = 16
TELEMETRY_SHARD_BUDGET = 17.5
FLIGHT_EVENT_BUDGET = 1
FLIGHT_SPILL_BUDGET = 40

FLUID_SAMPLES = 601
FLUID_SAMPLE_BUDGET = 1.25

REASSEMBLY_CMP_BUDGET = 20
INTERVAL_CMP_BUDGET = 10


def _python_calls(fn) -> int:
    """Python-level function calls made while ``fn()`` runs (C calls
    are reported as ``c_call`` and not counted).  The collector is held
    off meanwhile: when it runs depends on what the process allocated
    before, and hypothesis hooks it with a Python-level callback, which
    would make the count depend on which tests ran first."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return calls


def _two_host_world():
    sim = Simulator(seed=7)
    net = Network(sim)
    net.add_host("a")
    net.add_host("b")
    net.add_duplex("a", "b", 10e6, 10e6, delay=0.005, jitter=0.002)
    net.build_routes()
    tx = UdpSocket(net["a"], 9000)
    UdpSocket(net["b"], 9001)
    return sim, tx, net.path_links("a", "b")[0]


def test_one_hop_datagram_stays_within_frame_and_event_budget():
    sim, tx, link = _two_host_world()

    def send_one():
        tx.sendto("b", 9001, 200)

    # 1 ms apart: each datagram (182 us on the wire) is serialised alone.
    for i in range(DATAGRAMS):
        sim.schedule(i * 0.001, send_one)

    calls = _python_calls(sim.run)

    assert link.bytes_delivered == DATAGRAMS * (200 + IP_UDP_HEADER)
    assert sim.events_fired == EVENTS_PER_DATAGRAM * DATAGRAMS
    per_datagram = calls / DATAGRAMS
    assert per_datagram <= FRAME_BUDGET, (
        f"{per_datagram:.2f} Python frames per delivered datagram "
        f"(budget {FRAME_BUDGET}): a pass-through layer is back on the "
        f"socket -> link -> socket path")


def test_martp_message_stays_within_frame_budget():
    from repro.fleet.scenarios import (
        build_offload_session,
        collect_offload_aggregate,
    )

    params = {"rtt": 0.036, "up_bps": 12e6}
    # First use of the scenario imports its modules.
    warm_scenario, warm_session = build_offload_session(11, params)
    collect_offload_aggregate(warm_scenario, warm_session, warm_session.run(0.1))

    scenario, session = build_offload_session(11, params)
    out = []
    running = _python_calls(lambda: out.append(session.run(2.0)))
    collecting = _python_calls(lambda: out.append(
        collect_offload_aggregate(scenario, session, out[0])))

    delivered = sum(rx.received for rx in session.receiver.stats().values())
    assert delivered == MARTP_MESSAGES
    assert scenario.sim.events_fired == MARTP_EVENTS
    digest = hashlib.sha256(out[1].to_json().encode()).hexdigest()
    assert digest == MARTP_AGGREGATE_SHA256
    assert running / delivered <= MARTP_RUN_BUDGET, (
        f"{running / delivered:.2f} Python frames per delivered MARTP "
        f"message while running (budget {MARTP_RUN_BUDGET}): a per-message "
        f"hop is back between submit and the socket, or between the "
        f"socket and the receiver's counters")
    assert collecting / delivered <= MARTP_COLLECT_BUDGET, (
        f"{collecting / delivered:.2f} Python frames per delivered message "
        f"while collecting (budget {MARTP_COLLECT_BUDGET}): a latency "
        f"sample costs a call again")


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


def _mar_session(armed: bool):
    """A ``gaming`` full-frame offload loop sharing one 36 ms path with
    a MARTP session; ``armed`` attaches the whole obs stack at the
    sampling intervals every obs scenario ships.  Returns the Python
    frames the simulation loop took and the outcome."""
    from repro.core import OffloadSession, ScenarioBuilder, mos_score
    from repro.mar.application import APP_ARCHETYPES
    from repro.mar.devices import CLOUD, SMARTPHONE
    from repro.mar.offload import FullOffload, OffloadExecutor
    from repro.obs import (LinkMonitor, MetricsRegistry, QueueMonitor, Tracer,
                           attach_frame_observer)

    app = APP_ARCHETYPES["gaming"]
    scenario = ScenarioBuilder(seed=11).single_path(
        rtt=0.036, up_bps=40e6, down_bps=80e6)
    session = OffloadSession(scenario)
    executor = OffloadExecutor(scenario.net, "client", "server", app,
                               FullOffload(), SMARTPHONE, server_device=CLOUD)
    duration = OBS_FRAMES * app.frame_budget
    if armed:
        registry = MetricsRegistry()
        attach_frame_observer(executor, Tracer(scenario.sim))
        uplink = scenario.net.path_links("client", "server")[0]
        QueueMonitor(scenario.sim, uplink.queue, horizon=duration + 1.0,
                     registry=registry, name="uplink")
        LinkMonitor(scenario.sim, uplink, horizon=duration + 1.0,
                    registry=registry)
    reports = []

    def simulate():
        executor.start(n_frames=OBS_FRAMES)
        reports.append(session.run(duration))

    calls = _python_calls(simulate)
    result = executor.result
    return calls, (result.frames_completed, result.mean_offloaded_latency,
                   result.deadline_hit_rate, mos_score(reports[0]))


def test_armed_obs_stack_stays_within_frame_budget(monkeypatch):
    from repro.obs import instrument

    # The budgets below were measured at these sampling periods.
    monkeypatch.setattr(instrument, "QUEUE_SAMPLE_INTERVAL", 0.05)
    monkeypatch.setattr(instrument, "LINK_SAMPLE_INTERVAL", 0.5)
    plain, plain_outcome = _mar_session(armed=False)
    armed, armed_outcome = _mar_session(armed=True)

    assert armed_outcome == plain_outcome
    assert armed_outcome[0] == OBS_FRAMES
    assert armed <= OBS_ARMED_RATIO * plain, (
        f"the armed obs stack costs {armed / plain - 1:+.1%} Python frames "
        f"over the plain session (gate {OBS_ARMED_RATIO - 1:.0%})")
    per_frame = (armed - plain) / OBS_FRAMES
    assert per_frame <= OBS_FRAME_BUDGET, (
        f"observing one offloaded frame costs {per_frame:.1f} Python frames "
        f"(budget {OBS_FRAME_BUDGET}): a span or a per-fragment hook was "
        f"added to the frame pipeline")


def test_fleet_telemetry_and_flight_recorder_stay_within_frame_budget(
        tmp_path, monkeypatch):
    campaign = Campaign(
        name="obs-budget", scenario="cell_offload",
        seeds=FLEET_OBS_SHARDS // 4, base_seed=1,
        grid={"rtt": [0.008, 0.036, 0.072, 0.120]},
        params={"duration": 1.0, "up_bps": 12e6})
    results = []

    def calls(**kw):
        return _python_calls(
            lambda: results.append(run_campaign(campaign, **kw)))

    calls()     # first use of the scenario imports its modules
    plain = calls()
    telemetry = calls(telemetry=TelemetryCollector())
    flight = calls(flight_dir=tmp_path)
    fired = []
    monkeypatch.setattr(engine, "default_trace_hook", fired.append)
    hooked = calls()

    for result in results:
        assert len(result.outcomes) == FLEET_OBS_SHARDS
        assert result.aggregate.to_json() == results[0].aggregate.to_json()

    per_shard = (telemetry - plain) / FLEET_OBS_SHARDS
    assert per_shard <= TELEMETRY_SHARD_BUDGET, (
        f"the telemetry bus costs {per_shard:.1f} Python frames per shard "
        f"(budget {TELEMETRY_SHARD_BUDGET})")

    # A C-level hook costs the one ``_fire`` frame per event and nothing
    # else; the recorder may add only its per-shard spill on top.
    events = len(fired)
    assert events > 300 * FLEET_OBS_SHARDS
    assert hooked - plain <= FLIGHT_EVENT_BUDGET * events
    spill = (flight - plain - FLIGHT_EVENT_BUDGET * events) / FLEET_OBS_SHARDS
    assert spill <= FLIGHT_SPILL_BUDGET, (
        f"the armed flight recorder costs {(flight - plain) / events:.2f} "
        f"Python frames per event, {spill:.1f} per shard beyond the one "
        f"``_fire`` frame (budget {FLIGHT_SPILL_BUDGET}): the hook is no "
        f"longer the ring's C-level append, or the spill grew")


def test_fluid_cell_fires_no_event_and_stays_within_frame_budget():
    from repro.scale import CITY_BUDGETS, city_cell_spec, run_cell

    budget = CITY_BUDGETS["small"]
    spec = city_cell_spec(1, 3, budget)
    # First use of the aggregate imports its modules.
    run_cell(spec, 1, budget.fluid_duration).aggregate()

    out = []
    stepping = _python_calls(lambda: out.append(
        run_cell(spec, 5, budget.fluid_duration)))
    process = out[0]
    summarising = _python_calls(lambda: out.append(process.aggregate()))

    samples = len(process.timeline.samples)
    assert samples == FLUID_SAMPLES
    assert process.sim.events_fired == 0, (
        "the fluid cell fires engine events again: it should step in "
        "CellProcess._advance, not on a timer")
    per_sample = (stepping + summarising) / samples
    assert per_sample <= FLUID_SAMPLE_BUDGET, (
        f"{per_sample:.2f} Python frames per fluid sample to step and "
        f"summarise a cell (budget {FLUID_SAMPLE_BUDGET}): a per-step "
        f"event or a per-sample call is back")


class _Counted(int):
    """An ``int`` that counts its ordering comparisons."""

    calls = 0

    def __lt__(self, other):
        _Counted.calls += 1
        return int.__lt__(self, other)

    def __le__(self, other):
        _Counted.calls += 1
        return int.__le__(self, other)

    def __gt__(self, other):
        _Counted.calls += 1
        return int.__gt__(self, other)

    def __ge__(self, other):
        _Counted.calls += 1
        return int.__ge__(self, other)


def _comparisons_per_segment(feed, segments: int) -> float:
    _Counted.calls = 0
    feed()
    return _Counted.calls / segments


def test_reassembly_comparisons_grow_logarithmically_with_the_hole():
    def per_segment(hole):
        stream = QuicStream(1)

        def feed():
            # The hole's far side arrives first, in reverse, then its head.
            for i in range(hole, -1, -1):
                stream.on_segment(_Counted(i * 1200), _Counted(1200))

        count = _comparisons_per_segment(feed, hole + 1)
        assert stream.delivered == (hole + 1) * 1200
        return count

    small, large = per_segment(64), per_segment(1024)
    assert large <= REASSEMBLY_CMP_BUDGET, (
        f"{large:.2f} comparisons per delivered segment behind a 1,024-"
        f"segment hole (budget {REASSEMBLY_CMP_BUDGET})")
    assert large <= 2 * small, (
        f"{small:.2f} -> {large:.2f} comparisons per segment as the hole "
        f"grows 16-fold: reassembly is no longer logarithmic")


def test_interval_set_comparisons_grow_logarithmically_with_the_spans():
    def per_add(spans):
        delivered = _IntervalSet()

        def feed():
            for i in range(spans):
                delivered.add(_Counted(200 * i), _Counted(200 * i + 100))

        count = _comparisons_per_segment(feed, spans)
        assert delivered.total == 100 * spans
        return count

    small, large = per_add(64), per_add(1024)
    assert large <= INTERVAL_CMP_BUDGET, (
        f"{large:.2f} comparisons per add over 1,024 disjoint spans "
        f"(budget {INTERVAL_CMP_BUDGET})")
    assert large <= 2 * small, (
        f"{small:.2f} -> {large:.2f} comparisons per add as the spans grow "
        f"16-fold: the interval set is scanning again")
