"""Built-in campaign scenario runners.

Each runner is a pure function ``fn(seed, params) -> Aggregate``: it
builds a fresh simulator from the derived shard seed, runs one
scenario instance, and distils the outcome into O(1)-sized mergeable
statistics.  Runners must be importable at module top level so
:mod:`repro.fleet.workers` can execute them in spawned/forked worker
processes.

Three runners re-derive the paper's headline results at population
scale:

- ``cell_offload`` — one MAR user session (MARTP over a single access
  path) per shard; a campaign over thousands of seeds is a *cell* of
  simultaneous offloaders, rolled up per traffic class (§V, Figure 4).
- ``wifi_anomaly_cell`` — an 802.11 cell with a mix of fast and slow
  stations; sweeping the slow-station count reproduces the Figure 2
  anomaly as a saturation table instead of a two-station anecdote.
- ``table2_offload`` — the CloudRidAR offload loop against a
  parameterized server RTT; sweeping RTT re-derives Table II's
  offloading latencies with percentile error bars.
"""

from __future__ import annotations

from typing import Dict

from repro.fleet.aggregate import Aggregate
from repro.fleet.campaign import Campaign, register_scenario

#: Histogram ranges. Fixed (not data-dependent) so shard histograms
#: from different runs/workers are always merge-compatible.
_LATENCY_HI = 2.0          # seconds; MAR latencies beyond 2 s are "failed" anyway
_LATENCY_BINS = 200        # 10 ms resolution
_RATE_HI = 60e6            # b/s; above any single-station 802.11g share
_RATE_BINS = 240


# ----------------------------------------------------------------------
# The cell_offload runner is split into build + collect so the hybrid-
# fidelity layer (repro.scale) can run the *identical* session code
# path with a background-pressure driver attached between the two —
# the zero-background foreground tier must stay byte-identical to this
# event-level scenario (a hard acceptance gate, tests/test_scale_coupling.py).
def build_offload_session(seed: int, params: Dict[str, object]):
    """Build the cell_offload scenario + session (not yet run)."""
    from repro.core import OffloadSession, ScenarioBuilder

    rtt = float(params.get("rtt", 0.036))
    up_bps = float(params.get("up_bps", 12e6))
    loss = float(params.get("loss", 0.0))

    scenario = ScenarioBuilder(seed=seed).single_path(
        rtt=rtt, up_bps=up_bps, loss=loss)
    session = OffloadSession(scenario)
    return scenario, session


def collect_offload_aggregate(scenario, session, report) -> Aggregate:
    """Distil a finished cell_offload session into its shard aggregate."""
    from repro.core import mos_score
    from repro.fleet.aggregate import aggregate_from_registry
    from repro.obs import MetricsRegistry, collect_links, collect_martp

    agg = Aggregate()
    agg.count("sessions")
    agg.moment("mos").add(mos_score(report))
    agg.moment("video_quality").add(report.mean_video_quality)
    latency = agg.histogram("frame_latency", _LATENCY_HI, _LATENCY_BINS)
    for sid, cr in sorted(report.per_class.items()):
        agg.count(f"class.{cr.name}.sent", cr.sent)
        agg.count(f"class.{cr.name}.received", cr.received)
        agg.count(f"class.{cr.name}.in_time", cr.in_time)
        agg.moment("delivery_ratio").add(cr.delivery_ratio)
        agg.moment(f"class.{cr.name}.latency").extend(
            session.receiver.stream_stats(sid).latencies)
        latency.extend(session.receiver.stream_stats(sid).latencies)
    agg.count("critical_intact", int(report.critical_intact))

    registry = MetricsRegistry()
    collect_martp(registry, session.sender, session.receiver)
    collect_links(registry, scenario.net, elapsed=scenario.net.sim.now)
    agg.merge(aggregate_from_registry(registry))
    return agg


# version 2: shards also carry an obs.* metrics-registry aggregate
# (protocol + link counters); the bump invalidates v1 cache entries.
@register_scenario(
    "cell_offload", version=2,
    latency_key="frame_latency",
    moment_keys=("mos", "video_quality", "delivery_ratio"),
    # cost ~ simulated session length (the event count tracks duration)
    cost_hint=lambda p: float(p.get("duration", 2.0)),
)
def run_cell_offload(seed: int, params: Dict[str, object]) -> Aggregate:
    """One MAR offload session over a single access path (one cell user)."""
    duration = float(params.get("duration", 2.0))
    scenario, session = build_offload_session(seed, params)
    report = session.run(duration)
    return collect_offload_aggregate(scenario, session, report)


# ----------------------------------------------------------------------
@register_scenario(
    "wifi_anomaly_cell", version=1,
    rate_key="station_throughput",
    moment_keys=("cell_throughput_bps", "fast_station_bps", "slow_station_bps"),
    # cost ~ station-seconds of DCF contention
    cost_hint=lambda p: (float(p.get("duration", 3.0))
                         * (int(p.get("n_fast", 4)) + int(p.get("n_slow", 0)))),
)
def run_wifi_anomaly_cell(seed: int, params: Dict[str, object]) -> Aggregate:
    """An 802.11 cell with fast/slow station mix (Figure 2 at scale)."""
    from repro.simnet.engine import Simulator
    from repro.wireless.wifi import WifiCell, WifiStation

    n_fast = int(params.get("n_fast", 4))
    n_slow = int(params.get("n_slow", 0))
    fast_bps = float(params.get("fast_bps", 54e6))
    slow_bps = float(params.get("slow_bps", 18e6))
    duration = float(params.get("duration", 3.0))

    sim = Simulator(seed=seed)
    cell = WifiCell(sim)
    stations = []
    for i in range(n_fast):
        stations.append((cell.add_station(WifiStation(f"f{i}", fast_bps)), True))
    for i in range(n_slow):
        stations.append((cell.add_station(WifiStation(f"s{i}", slow_bps)), False))
    sim.run(until=duration)

    agg = Aggregate()
    agg.count("cells")
    agg.count("stations", len(stations))
    hist = agg.histogram("station_throughput", _RATE_HI, _RATE_BINS)
    cell_total = 0.0
    for st, is_fast in stations:
        bps = st.throughput_bps(0.0, duration)
        cell_total += bps
        hist.add(bps)
        agg.moment("station_bps").add(bps)
        agg.moment("fast_station_bps" if is_fast else "slow_station_bps").add(bps)
    agg.moment("cell_throughput_bps").add(cell_total)
    return agg


# ----------------------------------------------------------------------
@register_scenario(
    "table2_offload", version=1,
    latency_key="frame_latency",
    moment_keys=("link_rtt", "deadline_hit_rate"),
    # cost ~ offload round trips
    cost_hint=lambda p: float(int(p.get("n_frames", 30))),
)
def run_table2_offload(seed: int, params: Dict[str, object]) -> Aggregate:
    """CloudRidAR feature-offload loop against a parameterized RTT."""
    from repro.mar.application import APP_ARCHETYPES
    from repro.mar.offload import OffloadExecutor
    from repro.simnet.engine import Simulator

    rtt = float(params.get("rtt", 0.036))
    n_frames = int(params.get("n_frames", 30))
    app = str(params.get("app", "orientation"))

    executor = OffloadExecutor.for_table2(Simulator(seed=seed), rtt,
                                          APP_ARCHETYPES[app])
    result = executor.run(n_frames=n_frames)

    agg = Aggregate()
    agg.count("sessions")
    agg.count("frames", result.frames_completed)
    agg.histogram("frame_latency", _LATENCY_HI, _LATENCY_BINS).extend(
        result.frame_latencies)
    agg.moment("frame_latency").extend(result.frame_latencies)
    agg.moment("link_rtt").extend(result.link_rtts)
    agg.moment("deadline_hit_rate").add(result.deadline_hit_rate)
    return agg


# ----------------------------------------------------------------------
# Demo campaigns (the `python -m repro fleet` catalog)
# ----------------------------------------------------------------------
def demo_campaigns() -> Dict[str, Campaign]:
    """Named, ready-to-run campaign specs for the CLI, keyed by name."""
    from repro.scale.shards import (CITY_BUDGETS, cell_contention_campaign,
                                    city_coverage_campaign)

    catalog = [
        # The E4 city study at each budget tier, and one cell swept
        # through contention (docs/SCALE.md).
        *(city_coverage_campaign(budget) for budget in CITY_BUDGETS),
        cell_contention_campaign(),
        # 4 RTT points × 8 seeds = 32 shards; small frame count → fast.
        Campaign(
            name="smoke", scenario="table2_offload", seeds=8, base_seed=2,
            grid={"rtt": [0.008, 0.036, 0.072, 0.120]},
            params={"n_frames": 10},
        ),
        # The Table II sweep with statistical weight: 4 × 16 = 64 shards.
        Campaign(
            name="table2", scenario="table2_offload", seeds=16, base_seed=2,
            grid={"rtt": [0.008, 0.036, 0.072, 0.120]},
            params={"n_frames": 30},
        ),
        # Figure 2 as a saturation table: slow-station count sweep,
        # 4 points × 16 seeds = 64 shards.
        Campaign(
            name="anomaly", scenario="wifi_anomaly_cell", seeds=16, base_seed=21,
            grid={"n_slow": [0, 1, 2, 4]},
            params={"n_fast": 4, "duration": 2.0},
        ),
        # The 256-shard population demo: a cell of MAR users across the
        # four Table II access profiles, 64 user-sessions per profile.
        Campaign(
            name="cell256", scenario="cell_offload", seeds=64, base_seed=7,
            grid={"rtt": [0.008, 0.036, 0.072, 0.120]},
            params={"duration": 1.0, "up_bps": 12e6},
        ),
    ]
    return {c.name: c for c in catalog}


__all__ = [
    "build_offload_session",
    "collect_offload_aggregate",
    "demo_campaigns",
    "run_cell_offload",
    "run_table2_offload",
    "run_wifi_anomaly_cell",
]

# Importing registers the hierarchical city scenarios (city_coverage,
# cell_contention) alongside the built-ins above.
from repro.scale import shards as _scale_shards  # noqa: E402,F401
