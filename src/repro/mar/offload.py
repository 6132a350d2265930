"""Offloading strategies and the simnet-driven session executor.

Strategies decide, frame by frame, how work splits between device and
surrogate (the x parameter made concrete):

- :class:`LocalOnly` — everything on-device (the Eq. 1 baseline);
- :class:`FullOffload` — encode + ship the whole frame, server runs the
  vision pipeline;
- :class:`FeatureOffload` — CloudRidAR's split [13]: feature extraction
  on-device, only features cross the network;
- :class:`TrackingOffload` — Glimpse's split [25]: cheap local tracking
  every frame, full offload only for trigger frames.

:class:`OffloadExecutor` runs a strategy over a real simulated network
path (UDP fragments, reassembly, server-side compute delay) and
produces the per-frame latency distribution — the measurement behind
Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.analysis.stats import mean, percentile as sample_percentile
from repro.core.resilience import (
    HEARTBEAT_INTERVAL,
    BreakerState,
    CircuitBreaker,
    DecorrelatedBackoff,
    HeartbeatMonitor,
    Liveness,
    ResilienceMetrics,
    ServiceMode,
)
from repro.mar.application import MarApplication
from repro.mar.devices import CLOUD, SMARTPHONE, Device
from repro.simnet.network import Network
from repro.simnet.packet import Packet
from repro.transport.udp import UdpSocket

#: Fragment payload size for frame/feature uploads.
FRAGMENT_BYTES = 1200

#: UDP ports of the offload client and of every offload server.
CLIENT_PORT = 9000
SERVER_PORT = 9001

#: Seconds an offloaded frame may wait for its result before it is given
#: up (the resilient executor's cap on one attempt's RTT-adaptive
#: timeout).
FRAME_TIMEOUT = 2.0

#: Retries of one frame's upload before the resilient executor runs it
#: locally instead.
MAX_FRAME_RETRIES = 2

#: Decorrelated-jitter backoff between two upload attempts: base and cap,
#: in seconds.
RETRY_BACKOFF_BASE = 0.05
RETRY_BACKOFF_CAP = 1.0

#: The resilient executor's circuit breaker: consecutive failures that
#: trip it, and its first cooldown in seconds.
BREAKER_FAILURES = 3
BREAKER_COOLDOWN = 1.0

#: Fraction of p(a) that is feature extraction (detect + describe).  An
#: assumed constant, not a calibration: nothing measures it.
EXTRACTION_FRACTION = 0.45

#: Fraction of p(a) a tracking-only frame costs (Glimpse's cheap path).
TRACKING_FRACTION = 0.10

#: Fixed cost of encoding one frame for upload, as a fraction of p(a).
ENCODE_FRACTION = 0.08


@dataclass(frozen=True)
class FramePlan:
    """How one frame executes: compute split and network payloads."""

    local_megacycles: float
    upload_bytes: int
    remote_megacycles: float
    download_bytes: int

    @property
    def needs_network(self) -> bool:
        return self.upload_bytes > 0


class OffloadStrategy:
    """Base class: produce a :class:`FramePlan` per frame index."""

    name = "base"

    def plan_frame(self, app: MarApplication, index: int) -> FramePlan:
        raise NotImplementedError

    def mean_uplink_bps(self, app: MarApplication, horizon: int = 300) -> float:
        """Average offered uplink rate over a frame horizon."""
        total = sum(self.plan_frame(app, i).upload_bytes for i in range(horizon))
        return total * 8 * app.fps / horizon


class LocalOnly(OffloadStrategy):
    """Everything on the device; the network is never touched."""

    name = "local"

    def plan_frame(self, app: MarApplication, index: int) -> FramePlan:
        return FramePlan(
            local_megacycles=app.megacycles_per_frame,
            upload_bytes=0,
            remote_megacycles=0.0,
            download_bytes=0,
        )


class FullOffload(OffloadStrategy):
    """Ship every frame; the server does all vision work."""

    name = "full-offload"

    def plan_frame(self, app: MarApplication, index: int) -> FramePlan:
        return FramePlan(
            local_megacycles=app.megacycles_per_frame * ENCODE_FRACTION,
            upload_bytes=app.frame_upload_bytes,
            remote_megacycles=app.megacycles_per_frame,
            download_bytes=app.result_bytes,
        )


class FeatureOffload(OffloadStrategy):
    """CloudRidAR: extract features locally, offload matching/alignment."""

    name = "feature-offload"

    def __init__(self, extraction_fraction: float = EXTRACTION_FRACTION) -> None:
        self.extraction_fraction = extraction_fraction

    def plan_frame(self, app: MarApplication, index: int) -> FramePlan:
        return FramePlan(
            local_megacycles=app.megacycles_per_frame * self.extraction_fraction,
            upload_bytes=app.feature_upload_bytes,
            remote_megacycles=app.megacycles_per_frame * (1 - self.extraction_fraction),
            download_bytes=app.result_bytes,
        )


class TrackingOffload(OffloadStrategy):
    """Glimpse: local tracking, full offload on trigger frames only."""

    name = "tracking-offload"

    def __init__(self, trigger_interval: int = 10) -> None:
        if trigger_interval < 1:
            raise ValueError("trigger_interval must be >= 1")
        self.trigger_interval = trigger_interval

    def plan_frame(self, app: MarApplication, index: int) -> FramePlan:
        if index % self.trigger_interval == 0:
            return FramePlan(
                local_megacycles=app.megacycles_per_frame * ENCODE_FRACTION,
                upload_bytes=app.frame_upload_bytes,
                remote_megacycles=app.megacycles_per_frame,
                download_bytes=app.result_bytes,
            )
        return FramePlan(
            local_megacycles=app.megacycles_per_frame * TRACKING_FRACTION,
            upload_bytes=0,
            remote_megacycles=0.0,
            download_bytes=0,
        )


# ----------------------------------------------------------------------
# Session execution over simnet
# ----------------------------------------------------------------------
@dataclass
class SessionResult:
    """Per-frame measurements of one offloading session."""

    frame_latencies: List[float] = field(default_factory=list)
    offloaded_latencies: List[float] = field(default_factory=list)
    degraded_latencies: List[float] = field(default_factory=list)
    link_rtts: List[float] = field(default_factory=list)
    deadline: float = 0.0
    frames_sent: int = 0
    frames_completed: int = 0

    @property
    def mean_latency(self) -> float:
        lat = self.frame_latencies
        return mean(lat) if lat else float("inf")

    @property
    def mean_offloaded_latency(self) -> float:
        lat = self.offloaded_latencies
        return mean(lat) if lat else float("inf")

    @property
    def mean_link_rtt(self) -> float:
        return mean(self.link_rtts) if self.link_rtts else float("inf")

    def percentile(self, q: float) -> float:
        if not self.frame_latencies:
            return float("inf")
        return sample_percentile(self.frame_latencies, q)

    @property
    def deadline_hit_rate(self) -> float:
        if not self.frame_latencies:
            return 0.0
        return sum(1 for l in self.frame_latencies if l <= self.deadline) / len(
            self.frame_latencies
        )

    @property
    def loss_rate(self) -> float:
        if self.frames_sent == 0:
            return 0.0
        return 1.0 - self.frames_completed / self.frames_sent


def _send_fragments(socket: UdpSocket, dst: str, dst_port: int, n_bytes: int,
                    kind: str, flow: str, frame: int, **extra) -> None:
    """Send ``n_bytes`` to ``dst:dst_port`` as ``FRAGMENT_BYTES``
    datagrams (a single 1-byte one when there is nothing to send), each
    naming its frame and the fragment count the receiver waits for."""
    n_fragments = max(1, -(-n_bytes // FRAGMENT_BYTES))
    remaining = n_bytes
    for _ in range(n_fragments):
        size = min(FRAGMENT_BYTES, remaining) if remaining > 0 else 1
        remaining -= size
        socket.sendto(dst, dst_port, size, kind, flow, frame=frame,
                      n_fragments=n_fragments, **extra)


class _ServerSide:
    """Reassembles uploads, applies compute delay, returns results."""

    def __init__(self, net: Network, host: str, port: int, server_device: Device) -> None:
        self.net = net
        self.sim = net.sim
        self.device = server_device
        self.socket = UdpSocket(net[host], port, on_receive=self._on_packet)
        self._partial: Dict[int, Dict[str, int]] = {}
        #: Optional observability hooks (see repro.obs.instrument).
        self.obs = None

    def _on_packet(self, packet: Packet) -> None:
        if packet.kind == "ping":
            self.socket.sendto(packet.src, packet.src_port, 64, kind="pong",
                               echo=packet.payload["t"])
            return
        if packet.kind != "frame-fragment":
            return
        frame_id = packet.payload["frame"]
        state = self._partial.setdefault(
            frame_id,
            {"got": 0, "need": packet.payload["n_fragments"]},
        )
        state["got"] += 1
        if state["got"] < state["need"]:
            return
        del self._partial[frame_id]
        if self.obs is not None:
            self.obs.on_upload_complete(frame_id,
                                        packet.payload["remote_megacycles"])
        compute = self.device.execution_time(packet.payload["remote_megacycles"])
        self.sim.schedule(
            compute,
            self._respond,
            packet.src,
            packet.src_port,
            frame_id,
            packet.payload["download_bytes"],
        )

    def _respond(self, dst: str, dst_port: int, frame_id: int, download_bytes: int) -> None:
        if self.obs is not None:
            self.obs.on_download_start(frame_id, download_bytes)
        _send_fragments(self.socket, dst, dst_port, download_bytes,
                        "result-fragment", "", frame_id)


class OffloadExecutor:
    """Runs an offloading session: client on one host, server on another.

    The client generates frames at f(a); each frame runs its local
    compute, ships its upload as UDP fragments, and the frame completes
    when all result fragments return (or immediately after local
    compute for frames that never touch the network).  Ping probes
    measure the bare link RTT alongside (Table II's "Link RTT" row).
    """

    def __init__(
        self,
        net: Network,
        client: str,
        server: str,
        app: MarApplication,
        strategy: OffloadStrategy,
        device: Device,
        server_device: Device = CLOUD,
        ping_interval: float = 1.0,
    ) -> None:
        self.net = net
        self.sim = net.sim
        self.app = app
        self.strategy = strategy
        self.device = device
        self.server_name = server
        self.ping_interval = ping_interval
        self.result = SessionResult(deadline=app.deadline)
        self.socket = UdpSocket(net[client], CLIENT_PORT, on_receive=self._on_packet)
        self._flow = f"offload:{self.socket.host.name}"
        self.server = _ServerSide(net, server, SERVER_PORT, server_device)
        self._pending: Dict[int, Dict[str, float]] = {}
        self._frame_index = 0
        #: Optional observability hooks (attach_frame_observer sets it;
        #: every call site is None-guarded, so tracing off costs one
        #: attribute test and allocates nothing).
        self.obs = None

    # ------------------------------------------------------------------
    @classmethod
    def for_table2(cls, sim, rtt: float,
                   app: MarApplication) -> "OffloadExecutor":
        """The CloudRidAR set-up of Table II at round-trip time ``rtt``.

        A client and a server joined by one duplex (80 Mb/s down,
        40 Mb/s up, ``rtt / 2`` each way); a smartphone runs ``app``
        with feature offload to a cloud server.  ``sim`` is a fresh
        simulator.
        """
        net = Network(sim)
        net.add_host("client")
        net.add_host("server")
        net.add_duplex("server", "client", 80e6, 40e6, delay=rtt / 2)
        net.build_routes()
        return cls(net, "client", "server", app, FeatureOffload(),
                   SMARTPHONE, server_device=CLOUD)

    @classmethod
    def for_cell(
        cls,
        sim,
        profile,
        utilization: float,
        *,
        cell_id: int = 0,
        app: MarApplication,
        strategy: OffloadStrategy,
    ) -> "OffloadExecutor":
        """Promotion entry point for the hybrid-fidelity layer.

        Build an executor for one user promoted out of a cell's fluid
        background population (:mod:`repro.scale.coupling`): the access
        link is the cell's measured profile *under its current
        background utilization* (``profile.under_load``), and the
        serving edge sits behind the cell's deterministic backhaul tier
        (:func:`repro.edge.assignment.serving_edge_rtt`).  ``profile``
        is a :class:`repro.wireless.profiles.AccessProfile`; ``sim`` is
        a fresh simulator seeded from the promoted user's fluid state.
        The user's device is a smartphone offloading to a cloud-class
        edge server.
        """
        from repro.edge.assignment import serving_edge_rtt
        from repro.simnet.queues import DropTailQueue

        loaded = profile.under_load(utilization)
        net = Network(sim)
        net.add_host("client")
        net.add_host("edge")
        backhaul = serving_edge_rtt(cell_id)
        net.add_duplex(
            "edge",
            "client",
            rate_down_bps=loaded.down_mean,
            rate_up_bps=loaded.up_mean,
            delay=(loaded.rtt + backhaul) / 2,
            jitter=loaded.rtt_jitter / 2,
            loss=loaded.loss,
            queue_up=DropTailQueue(1000),
        )
        net.build_routes()
        return cls(net, "client", "edge", app, strategy, SMARTPHONE,
                   server_device=CLOUD)

    # ------------------------------------------------------------------
    def start(self, n_frames: int) -> None:
        """Schedule the whole session (run the simulator afterwards)."""
        self.n_frames = n_frames
        for i in range(n_frames):
            self.sim.schedule(i * self.app.frame_budget, self._generate_frame, i)
        self.sim.schedule(0.0, self._ping)

    def _ping(self) -> None:
        self.socket.sendto(self.server_name, SERVER_PORT, 64, kind="ping", t=self.sim.now)
        if self._frame_index < self.n_frames:
            self.sim.schedule(self.ping_interval, self._ping)

    def _generate_frame(self, index: int) -> None:
        self._frame_index = index
        plan = self.strategy.plan_frame(self.app, index)
        if self.obs is not None:
            self.obs.on_frame_start(index, plan)
        self.result.frames_sent += 1
        local_time = self.device.execution_time(plan.local_megacycles)
        if plan.needs_network:
            self.sim.schedule(local_time, self._send_upload, index, plan)
        else:
            self.sim.schedule(local_time, self._complete_frame, index, self.sim.now)

    def _send_upload(self, index: int, plan: FramePlan) -> None:
        if self.obs is not None:
            self.obs.on_upload_start(index, plan)
        generated_at = self.sim.now - self.device.execution_time(plan.local_megacycles)
        self._pending[index] = {"generated": generated_at, "got": 0, "need": 0}
        _send_fragments(self.socket, self.server_name, SERVER_PORT,
                        plan.upload_bytes, "frame-fragment", self._flow, index,
                        remote_megacycles=plan.remote_megacycles,
                        download_bytes=plan.download_bytes)
        self.sim.schedule(FRAME_TIMEOUT, self._expire_frame, index)

    def _expire_frame(self, index: int) -> None:
        if self._pending.pop(index, None) is not None and self.obs is not None:
            self.obs.on_frame_expired(index)

    def _on_packet(self, packet: Packet) -> None:
        if packet.kind == "pong":
            self.result.link_rtts.append(self.sim.now - packet.payload["echo"])
            return
        if packet.kind != "result-fragment":
            return
        index = packet.payload["frame"]
        state = self._pending.get(index)
        if state is None:
            return
        state["got"] += 1
        state["need"] = packet.payload["n_fragments"]
        if state["got"] >= state["need"]:
            generated = state.pop("generated")
            del self._pending[index]
            self._complete_frame(index, generated, offloaded=True)

    def _complete_frame(self, index: int, generated_at: float, offloaded: bool = False) -> None:
        latency = self.sim.now - generated_at
        self.result.frame_latencies.append(latency)
        if offloaded:
            self.result.offloaded_latencies.append(latency)
        self.result.frames_completed += 1
        if self.obs is not None:
            self.obs.on_frame_complete(index,
                                       "offloaded" if offloaded else "local")

    # ------------------------------------------------------------------
    def run(self, n_frames: int = 300, settle: float = 2.0) -> SessionResult:
        """Convenience: start, run to completion, return results."""
        self.start(n_frames)
        duration = n_frames * self.app.frame_budget + settle
        self.sim.run(until=self.sim.now + duration)
        return self.result


# ----------------------------------------------------------------------
# Resilient execution: heartbeats, retries, failover, circuit breaking
# ----------------------------------------------------------------------
class ResilientOffloadExecutor(OffloadExecutor):
    """An :class:`OffloadExecutor` that survives dead servers and paths.

    On top of the base frame pipeline it adds the Section VI-B
    resilience layer:

    - a :class:`~repro.core.resilience.HeartbeatMonitor` per server
      (primary + failover candidates) with RTT-adaptive timeouts —
      liveness is *detected*, never assumed;
    - per-frame retry with exponential backoff and decorrelated jitter;
      a frame whose retries exhaust is re-executed locally instead of
      dropped (graceful degradation, not a stalled pipeline);
    - failover: when the active server is declared failed, traffic
      moves to the best surviving candidate (heartbeat state first,
      preference order second);
    - a :class:`~repro.core.resilience.CircuitBreaker` around the
      offload service: when no candidate survives (or retries keep
      exhausting) it trips and the executor runs frames in
      :class:`LocalOnly` degraded mode, half-opening periodically to
      probe recovery.  Heartbeat pongs arriving while tripped also
      close the breaker — whichever probe succeeds first wins.

    The resulting state machine (healthy → suspect → failed-over →
    degraded-local → probing → healthy) is recorded in
    :class:`~repro.core.resilience.ResilienceMetrics` and summarized by
    :meth:`resilience_report`.
    """

    def __init__(
        self,
        net: Network,
        client: str,
        servers: Sequence[str],
        app: MarApplication,
        strategy: OffloadStrategy,
        device: Device,
    ) -> None:
        if not servers:
            raise ValueError("need at least one server")
        super().__init__(
            net, client, servers[0], app, strategy, device, CLOUD,
            ping_interval=HEARTBEAT_INTERVAL,
        )
        self.servers = list(servers)
        self.active_server = servers[0]
        # A backup server needs no handle here: its socket's port binding
        # keeps it alive.
        for name in self.servers[1:]:
            _ServerSide(net, name, SERVER_PORT, CLOUD)
        self._rng = net.sim.child_rng(f"resilience:{client}")
        self.monitors: Dict[str, HeartbeatMonitor] = {
            name: HeartbeatMonitor(
                net.sim, name, self._send_heartbeat,
                on_state_change=self._on_liveness,
            )
            for name in self.servers
        }
        self.breaker = CircuitBreaker(
            clock=lambda: self.sim.now,
            failure_threshold=BREAKER_FAILURES,
            cooldown=BREAKER_COOLDOWN,
        )
        self.metrics = ResilienceMetrics()
        self.mode = ServiceMode.HEALTHY
        self._attempts: Dict[int, Dict] = {}
        #: (completion time, frame index, "offloaded"|"local"|"degraded")
        self.frame_log: List[tuple] = []

    # ------------------------------------------------------------------
    # Liveness plumbing
    # ------------------------------------------------------------------
    def _send_heartbeat(self, target: str, token: float) -> None:
        self.socket.sendto(target, SERVER_PORT, 64, kind="ping", t=token)

    def _on_packet(self, packet: Packet) -> None:
        if packet.kind == "pong":
            monitor = self.monitors.get(packet.src)
            if monitor is not None:
                monitor.on_pong(packet.payload["echo"])
            if packet.src == self.active_server:
                self.result.link_rtts.append(self.sim.now - packet.payload["echo"])
            return
        super()._on_packet(packet)

    def _steady_mode(self) -> ServiceMode:
        return (ServiceMode.HEALTHY if self.active_server == self.servers[0]
                else ServiceMode.FAILED_OVER)

    def _set_mode(self, mode: ServiceMode) -> None:
        self.mode = mode
        self.metrics.record_mode(self.sim.now, mode)

    def _on_liveness(self, target: str, old: Liveness, new: Liveness) -> None:
        if new is Liveness.FAILED:
            if target == self.active_server:
                self.metrics.detection_delays.append(
                    self.monitors[target].detection_delays[-1]
                )
                self.metrics.outage_begin(self.sim.now)
                self._fail_over(exclude=target)
        elif new is Liveness.HEALTHY:
            if self.breaker.state is not BreakerState.CLOSED:
                # A probe pong while tripped: the world is back.
                self.breaker.record_success()
                self.active_server = target
                self._set_mode(self._steady_mode())
            elif target == self.active_server and self.mode is ServiceMode.SUSPECT:
                self._set_mode(self._steady_mode())
        elif new is Liveness.SUSPECT:
            if target == self.active_server and self.mode in (
                ServiceMode.HEALTHY, ServiceMode.FAILED_OVER
            ):
                self._set_mode(ServiceMode.SUSPECT)

    def _fail_over(self, exclude: str) -> None:
        rank = {Liveness.HEALTHY: 0, Liveness.SUSPECT: 1}
        candidates = [
            s for s in self.servers
            if s != exclude and self.monitors[s].state is not Liveness.FAILED
        ]
        candidates.sort(key=lambda s: (rank[self.monitors[s].state],
                                       self.servers.index(s)))
        if candidates:
            self.active_server = candidates[0]
            self.metrics.failovers += 1
            self._set_mode(ServiceMode.FAILED_OVER)
        else:
            self.breaker.trip()
            self._set_mode(ServiceMode.DEGRADED_LOCAL)

    # ------------------------------------------------------------------
    # Frame pipeline overrides
    # ------------------------------------------------------------------
    def start(self, n_frames: int) -> None:
        self.n_frames = n_frames
        for i in range(n_frames):
            self.sim.schedule(i * self.app.frame_budget, self._generate_frame, i)
        self._set_mode(self.mode)
        for monitor in self.monitors.values():
            monitor.start()

    def _local_plan(self) -> FramePlan:
        return FramePlan(
            local_megacycles=self.app.megacycles_per_frame,
            upload_bytes=0,
            remote_megacycles=0.0,
            download_bytes=0,
        )

    def _generate_frame(self, index: int) -> None:
        self._frame_index = index
        if not self.breaker.allow_request():
            # Tripped: serve the frame on-device, degraded but alive.
            plan = self._local_plan()
            if self.obs is not None:
                self.obs.on_frame_start(index, plan)
            self.result.frames_sent += 1
            local_time = self.device.execution_time(plan.local_megacycles)
            self.sim.schedule(local_time, self._complete_degraded, index, self.sim.now)
            return
        probe = self.breaker.state is BreakerState.HALF_OPEN
        if probe:
            self._set_mode(ServiceMode.PROBING)
        plan = self.strategy.plan_frame(self.app, index)
        if self.obs is not None:
            self.obs.on_frame_start(index, plan)
        self.result.frames_sent += 1
        local_time = self.device.execution_time(plan.local_megacycles)
        if plan.needs_network:
            self.sim.schedule(local_time, self._send_upload, index, plan, probe)
        else:
            self.sim.schedule(local_time, self._complete_frame, index, self.sim.now)

    def _send_upload(self, index: int, plan: FramePlan, probe: bool = False) -> None:
        if self.obs is not None:
            self.obs.on_upload_start(index, plan)
        generated_at = self.sim.now - self.device.execution_time(plan.local_megacycles)
        self._pending[index] = {"generated": generated_at, "got": 0, "need": 0}
        self._attempts[index] = {
            "plan": plan,
            "count": 0,
            "probe": probe,
            "backoff": DecorrelatedBackoff(self._rng, base=RETRY_BACKOFF_BASE,
                                           cap=RETRY_BACKOFF_CAP),
        }
        self._transmit_upload(index)

    def _transmit_upload(self, index: int) -> None:
        meta = self._attempts.get(index)
        if meta is None or index not in self._pending:
            return
        plan: FramePlan = meta["plan"]
        _send_fragments(self.socket, self.active_server, SERVER_PORT,
                        plan.upload_bytes, "frame-fragment", self._flow, index,
                        remote_megacycles=plan.remote_megacycles,
                        download_bytes=plan.download_bytes)
        self.sim.schedule(self._frame_deadline(), self._check_frame,
                          index, meta["count"])

    def _frame_deadline(self) -> float:
        """RTT-adaptive per-attempt timeout, bounded by ``FRAME_TIMEOUT``."""
        rtt = self.monitors[self.active_server].rtt
        return min(FRAME_TIMEOUT, max(0.05, 3 * rtt.timeout()))

    def _check_frame(self, index: int, attempt: int) -> None:
        if index not in self._pending:
            return
        meta = self._attempts.get(index)
        if meta is None or meta["count"] != attempt:
            return                               # a newer attempt is in flight
        # State read only — the retry path must not consume the breaker's
        # half-open probe slot (allow_request mutates on cooldown expiry).
        tripped = self.breaker.state is BreakerState.OPEN
        if meta["count"] < MAX_FRAME_RETRIES and not tripped:
            meta["count"] += 1
            self.sim.schedule(meta["backoff"].next(), self._transmit_upload, index)
            return
        # Retries exhausted: degrade this frame to local execution.
        state = self._pending.pop(index)
        self._attempts.pop(index, None)
        self.breaker.record_failure()
        if self.breaker.state is BreakerState.OPEN:
            self.metrics.outage_begin(self.sim.now)
            self._set_mode(ServiceMode.DEGRADED_LOCAL)
        megacycles = self.app.megacycles_per_frame
        self.sim.schedule(
            self.device.execution_time(megacycles),
            self._complete_degraded, index, state["generated"],
        )

    def _complete_degraded(self, index: int, generated_at: float) -> None:
        latency = self.sim.now - generated_at
        self.result.frame_latencies.append(latency)
        self.result.degraded_latencies.append(latency)
        self.result.frames_completed += 1
        self.metrics.frames_degraded += 1
        self.frame_log.append((self.sim.now, index, "degraded"))
        if self.obs is not None:
            self.obs.on_frame_complete(index, "degraded")

    def _complete_frame(self, index: int, generated_at: float, offloaded: bool = False) -> None:
        meta = self._attempts.pop(index, None)
        super()._complete_frame(index, generated_at, offloaded)
        self.frame_log.append((self.sim.now, index, "offloaded" if offloaded else "local"))
        if not offloaded:
            self.metrics.frames_local_by_design += 1
            return
        self.metrics.frames_offloaded += 1
        self.metrics.outage_end(self.sim.now)
        if meta is not None and meta["probe"]:
            self.breaker.record_success()
        if self.breaker.state is BreakerState.CLOSED and self.mode in (
            ServiceMode.PROBING, ServiceMode.DEGRADED_LOCAL
        ):
            self._set_mode(self._steady_mode())

    def _expire_frame(self, index: int) -> None:
        # Superseded by the retry/fallback machinery of _check_frame.
        pass

    # ------------------------------------------------------------------
    def run(self, n_frames: int = 300, settle: float = 2.0) -> SessionResult:
        result = super().run(n_frames, settle)
        for monitor in self.monitors.values():
            monitor.stop()
        self.metrics.close(self.sim.now)
        self.metrics.frames_dropped = result.frames_sent - result.frames_completed
        return result

    def resilience_report(self):
        """Aggregate the session's resilience metrics (after ``run``)."""
        self.metrics.breaker_trips = self.breaker.trips
        return self.metrics.report(duration=self.sim.now)
