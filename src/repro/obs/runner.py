"""Observed scenarios behind ``python -m repro obs``.

Each runner builds a fresh :class:`~repro.simnet.engine.Simulator` from
its seed, attaches the observability layer (tracer + registry + the
relevant collectors), runs the scenario, and returns an :class:`ObsRun`
bundle the CLI turns into artifacts.  Runners are sim-domain: no wall
clock, no global RNG — an :class:`ObsRun` is a pure function of
``(scenario, seed, frames)``.

- ``cell_offload`` — one cell MAR user running the CloudRidAR
  feature-offload loop over the cloud-WiFi access profile (36 ms RTT,
  40 Mb/s up).  The flagship trace: every frame yields a span tree
  with local/uplink/server/downlink/render stages whose durations sum
  exactly to the frame's end-to-end latency.
- ``martp_session`` — a full MARTP streaming session (sender, receiver,
  congestion control, degradation); exercises the protocol event log and
  the protocol/link metrics collectors rather than frame spans.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.obs.instrument import (
    LATENCY_BINS,
    LATENCY_HI,
    LinkMonitor,
    QueueMonitor,
    attach_frame_observer,
    collect_links,
    collect_martp,
    instrument_sender,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import EventLog, Tracer


class ObsRun:
    """Everything one observed scenario run produced."""

    __slots__ = ("scenario", "seed", "tracer", "registry", "event_log",
                 "breakdowns", "summary")

    def __init__(self, scenario: str, seed: int, tracer: Tracer,
                 registry: MetricsRegistry, event_log, breakdowns: List[dict],
                 summary: Dict[str, float]) -> None:
        self.scenario = scenario
        self.seed = seed
        self.tracer = tracer
        self.registry = registry
        self.event_log = event_log
        self.breakdowns = breakdowns
        self.summary = summary


def _run_cell_offload(seed: int, frames: int) -> ObsRun:
    """One MAR cell user: feature offload over cloud WiFi, fully traced."""
    from repro.mar.application import APP_ARCHETYPES
    from repro.mar.offload import OffloadExecutor
    from repro.simnet.engine import Simulator

    app = APP_ARCHETYPES["orientation"]
    duration = frames * app.frame_budget + 2.0

    sim = Simulator(seed=seed)
    executor = OffloadExecutor.for_table2(sim, 0.036, app)
    net = executor.net

    tracer = Tracer(sim)
    registry = MetricsRegistry()
    observer = attach_frame_observer(executor, tracer)
    uplink = net.path_links("client", "server")[0]
    QueueMonitor(sim, uplink.queue, horizon=duration, registry=registry,
                 name="uplink")
    LinkMonitor(sim, uplink, horizon=duration, registry=registry)

    result = executor.run(n_frames=frames)

    collect_links(registry, net, elapsed=sim.now)
    registry.counter("frame.sent").inc(result.frames_sent)
    registry.counter("frame.completed").inc(result.frames_completed)
    latency_hist = registry.histogram("frame.latency", LATENCY_HI, LATENCY_BINS)
    for latency in result.frame_latencies:
        latency_hist.observe(latency)
    for rtt in result.link_rtts:
        registry.histogram("link.rtt", 0.5, 100).observe(rtt)

    summary = {
        "frames": float(result.frames_completed),
        "mean_latency": result.mean_latency,
        "p95_latency": result.percentile(95.0),
        "deadline_hit_rate": result.deadline_hit_rate,
        "mean_link_rtt": result.mean_link_rtt,
    }
    return ObsRun("cell_offload", seed, tracer, registry, None,
                  observer.breakdowns(), summary)


def _run_martp_session(seed: int, frames: int) -> ObsRun:
    """A MARTP streaming session: qlog + protocol/link metrics."""
    from repro.core import OffloadSession, ScenarioBuilder, mos_score

    duration = max(0.5, frames / 30.0)
    scenario = ScenarioBuilder(seed=seed).single_path(rtt=0.036, up_bps=12e6)
    session = OffloadSession(scenario)
    sim = scenario.net.sim
    tracer = Tracer(sim)
    registry = MetricsRegistry()
    event_log = instrument_sender(session.sender, EventLog())

    report = session.run(duration)

    collect_martp(registry, session.sender, session.receiver)
    collect_links(registry, scenario.net, elapsed=sim.now)
    summary = {
        "mos": mos_score(report),
        "video_quality": report.mean_video_quality,
        "critical_intact": float(report.critical_intact),
        "qlog_events": float(len(event_log)),
    }
    return ObsRun("martp_session", seed, tracer, registry, event_log,
                  [], summary)


#: Scenario name → runner(seed, frames).
OBS_SCENARIOS: Dict[str, Callable[..., ObsRun]] = {
    "cell_offload": _run_cell_offload,
    "martp_session": _run_martp_session,
}


def run_obs_scenario(name: str, seed: int = 11, frames: int = 60) -> ObsRun:
    """Run one observed scenario; deterministic in ``(name, seed, frames)``."""
    runner = OBS_SCENARIOS.get(name)
    if runner is None:
        raise ValueError(
            f"unknown obs scenario {name!r}; try: {', '.join(OBS_SCENARIOS)}")
    return runner(seed, frames)
