"""Offloading sessions: MAR applications running over MARTP on
simulated networks, plus builders for the paper's scenario topologies.

:class:`ScenarioBuilder` constructs the networks behind Table II and
Figure 5:

- ``single_path`` — one access link client↔server with a configurable
  RTT (the four Table II rows);
- ``multipath`` — a client with WiFi *and* LTE attachment, optionally
  to two different servers (Figure 5a);
- ``d2d_assist`` — a wearable offloading latency-critical work to a
  nearby companion device over WiFi-Direct/LTE-Direct while bulk work
  goes to a cloud server (Figures 5b–d).

:class:`OffloadSession` runs an MAR application's stream set (video
reference/inter frames, sensors, metadata) through a
:class:`~repro.core.protocol.MartpSender`/`Receiver` pair on one of
those topologies and produces a :class:`~repro.core.metrics.QoeReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.congestion import RateController
from repro.core.metrics import QoeReport, class_report
from repro.core.protocol import MartpReceiver, MartpSender, PathEndpoint
from repro.core.scheduler import MultipathPolicy, PathState
from repro.core.traffic import StreamSpec, mar_baseline_streams
from repro.mar.video import VIDEO_FPS, VIDEO_GOP, VideoSource
from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.simnet.queues import DropTailQueue
from repro.transport.udp import UdpSocket

MARTP_PORT = 7000

#: The client's MARTP socket on path ``i`` is bound to port
#: ``FIRST_PATH_PORT + i``.
FIRST_PATH_PORT = 6000

#: Packet capacity of the client's uplink drop-tail queue.
UPLINK_BUFFER = 1000

#: :meth:`ScenarioBuilder.multipath` (Figure 5a): the lossless WiFi and
#: LTE legs' unloaded round trips and their down/up rates.
WIFI_RTT, LTE_RTT = 0.030, 0.070
WIFI_DOWN_BPS, WIFI_UP_BPS = 40e6, 15e6
LTE_DOWN_BPS, LTE_UP_BPS = 20e6, 8e6

#: Round trip of the edge-to-cloud interconnect of the two-server
#: multipath topology (n-way synchronization link).
INTERLINK_RTT = 0.020

#: :meth:`ScenarioBuilder.edge_failover`: the lossless radio link's
#: unloaded round trip and down/up rates; one edge server per backhaul
#: round trip, nearest first, and a distant cloud server.
RADIO_RTT = 0.010
RADIO_DOWN_BPS, RADIO_UP_BPS = 60e6, 20e6
EDGE_BACKHAUL_RTTS = (0.002, 0.008)
CLOUD_BACKHAUL_RTT = 0.050

#: :meth:`ScenarioBuilder.d2d_assist` (Fig 5b–d): the cloud path's round
#: trip and down/up rates, and the D2D link's loss rate.
CLOUD_RTT = 0.060
CLOUD_DOWN_BPS, CLOUD_UP_BPS = 50e6, 10e6
D2D_LOSS = 0.005


@dataclass
class Scenario:
    """A built topology ready to host a session."""

    sim: Simulator
    net: Network
    client_hosts: List[str]          # one per path, in path order
    path_names: List[str]
    server: str
    metered: Dict[str, bool] = field(default_factory=dict)
    #: failover candidates behind ``server``, best first (edge churn
    #: scenarios; empty for the classic single-server topologies)
    backup_servers: List[str] = field(default_factory=list)

    @property
    def all_servers(self) -> List[str]:
        """Primary then backups — the preference order for failover."""
        return [self.server] + self.backup_servers

    def path_endpoints(self) -> List[PathEndpoint]:
        endpoints = []
        for i, (host, name) in enumerate(zip(self.client_hosts, self.path_names)):
            socket = UdpSocket(self.net[host], FIRST_PATH_PORT + i)
            state = PathState(name=name, is_metered=self.metered.get(name, False))
            endpoints.append(
                PathEndpoint(state=state, socket=socket, dst=self.server,
                             dst_port=MARTP_PORT)
            )
        return endpoints


class ScenarioBuilder:
    """Factory for the paper's evaluation topologies."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    # ------------------------------------------------------------------
    def single_path(
        self,
        rtt: float,
        down_bps: float = 100e6,
        up_bps: float = 50e6,
        loss: float = 0.0,
        path_name: str = "wifi",
        metered: bool = False,
    ) -> Scenario:
        """One jitter-free access link; ``rtt`` is the unloaded round trip."""
        sim = Simulator(seed=self.seed)
        net = Network(sim)
        net.add_host("client")
        net.add_host("server")
        net.add_duplex(
            "server",
            "client",
            rate_down_bps=down_bps,
            rate_up_bps=up_bps,
            delay=rtt / 2,
            loss=loss,
            queue_up=DropTailQueue(UPLINK_BUFFER),
        )
        net.build_routes()
        return Scenario(
            sim=sim,
            net=net,
            client_hosts=["client"],
            path_names=[path_name],
            server="server",
            metered={path_name: metered},
        )

    # ------------------------------------------------------------------
    def multipath(self, two_servers: bool = False) -> Scenario:
        """WiFi + LTE attachment (Figure 5a).

        The client has one virtual interface host per path so simnet
        routes diverge.  With ``two_servers`` the WiFi path terminates
        at an edge server and the LTE path at a cloud server that are
        interconnected (n-way synchronization link).
        """
        sim = Simulator(seed=self.seed)
        net = Network(sim)
        net.add_host("client-wifi")
        net.add_host("client-lte")
        net.add_router("ap")
        net.add_router("enb")
        server = "server"
        net.add_host(server)
        # Access legs.
        net.add_duplex("ap", "client-wifi", WIFI_DOWN_BPS, WIFI_UP_BPS,
                       delay=WIFI_RTT / 4,
                       queue_up=DropTailQueue(UPLINK_BUFFER))
        net.add_duplex("enb", "client-lte", LTE_DOWN_BPS, LTE_UP_BPS,
                       delay=LTE_RTT / 4,
                       queue_up=DropTailQueue(UPLINK_BUFFER))
        if two_servers:
            net.add_host("edge-server")
            net.add_duplex("server", "enb", 1e9, 1e9, delay=LTE_RTT / 4)
            net.add_duplex("edge-server", "ap", 1e9, 1e9, delay=WIFI_RTT / 4)
            net.add_duplex("server", "edge-server", 1e9, 1e9, delay=INTERLINK_RTT / 2)
        else:
            net.add_duplex("server", "ap", 1e9, 1e9, delay=WIFI_RTT / 4)
            net.add_duplex("server", "enb", 1e9, 1e9, delay=LTE_RTT / 4)
        net.build_routes()
        return Scenario(
            sim=sim,
            net=net,
            client_hosts=["client-wifi", "client-lte"],
            path_names=["wifi", "lte"],
            server=server,
            metered={"wifi": False, "lte": True},
        )

    # ------------------------------------------------------------------
    def edge_failover(self) -> Scenario:
        """A client behind one radio link with several offload targets.

        The access network fans out to a chain of edge servers (one per
        entry of ``EDGE_BACKHAUL_RTTS``, nearest first; a server's total
        RTT is ``RADIO_RTT`` plus its backhaul) and a distant cloud
        server — the topology of the Section VI-B/VI-E churn
        story: edge servers come and go, the radio can black out, and a
        resilient executor must walk down the candidate list before
        giving up and running locally.
        """
        sim = Simulator(seed=self.seed)
        net = Network(sim)
        net.add_host("client")
        net.add_router("ap")
        net.add_duplex(
            "ap", "client",
            rate_down_bps=RADIO_DOWN_BPS,
            rate_up_bps=RADIO_UP_BPS,
            delay=RADIO_RTT / 2,
            queue_up=DropTailQueue(UPLINK_BUFFER),
        )
        servers: List[str] = []
        for i, backhaul in enumerate(EDGE_BACKHAUL_RTTS):
            name = f"edge{i}"
            net.add_host(name)
            net.add_duplex(name, "ap", 1e9, 1e9, delay=backhaul / 2)
            servers.append(name)
        net.add_host("cloud")
        net.add_duplex("cloud", "ap", 1e9, 1e9, delay=CLOUD_BACKHAUL_RTT / 2)
        servers.append("cloud")
        net.build_routes()
        return Scenario(
            sim=sim,
            net=net,
            client_hosts=["client"],
            path_names=["wifi"],
            server=servers[0],
            metered={"wifi": False},
            backup_servers=servers[1:],
        )

    # ------------------------------------------------------------------
    def d2d_assist(
        self,
        d2d_rtt: float = 0.006,
        d2d_rate_bps: float = 300e6,
    ) -> Scenario:
        """A wearable with a nearby companion plus a cloud path (Fig 5b–d).

        Path "d2d" reaches the companion device; path "cloud" reaches
        the remote server through an access network.  The companion is
        modelled as the *server* of the latency-critical path; callers
        wanting both targets run two sessions.
        """
        sim = Simulator(seed=self.seed)
        net = Network(sim)
        net.add_host("wearable")
        net.add_host("companion")
        net.add_host("server")
        net.add_router("ap")
        net.add_duplex("companion", "wearable", d2d_rate_bps, d2d_rate_bps,
                       delay=d2d_rtt / 2, loss=D2D_LOSS)
        net.add_duplex("ap", "wearable", CLOUD_DOWN_BPS, CLOUD_UP_BPS,
                       delay=CLOUD_RTT / 4, queue_up=DropTailQueue(UPLINK_BUFFER))
        net.add_duplex("server", "ap", 1e9, 1e9, delay=CLOUD_RTT / 4)
        net.build_routes()
        return Scenario(
            sim=sim,
            net=net,
            client_hosts=["wearable"],
            path_names=["d2d"],
            server="companion",
            metered={"d2d": False},
        )


class OffloadSession:
    """An MAR stream set running over MARTP on a scenario.

    The four baseline streams (metadata, sensors, reference frames,
    interframes) are wired as follows: metadata and sensors are
    rate-driven at their (allocated) rates; video frames follow a
    :class:`~repro.mar.video.VideoSource` GOP pattern, reference frames
    to the loss-recovery stream and interframes to the droppable
    stream, sized by the current allocation's quality factor (the
    application adapting its encoder).
    """

    def __init__(
        self,
        scenario: Scenario,
        streams: Optional[List[StreamSpec]] = None,
        policy: MultipathPolicy = MultipathPolicy.WIFI_PREFERRED,
        video: Optional[VideoSource] = None,
        controller: Optional[RateController] = None,
    ) -> None:
        self.scenario = scenario
        self.sim = scenario.sim
        self.streams = streams if streams is not None else mar_baseline_streams()
        self._specs: Dict[int, StreamSpec] = {s.stream_id: s for s in self.streams}
        self.video = video if video is not None else self._video_for_streams()
        self.receiver = MartpReceiver(
            scenario.net[scenario.server], MARTP_PORT, self.streams
        )
        self.sender = MartpSender(
            scenario.path_endpoints(), self.streams, policy=policy, controller=controller
        )
        self._video_frame_index = 0
        self._stopped = False
        self.quality_timeline: List[Tuple[float, float]] = []

    def _video_for_streams(self) -> VideoSource:
        """A video source whose offered rates match the declared streams.

        The reference stream (id 2) carries ``VIDEO_FPS / VIDEO_GOP``
        I-frames per second; the interframe stream (id 3) carries the
        rest.  Frame sizes are derived so full-quality output equals each stream's
        nominal rate — the source actually *offers* what the streams
        declare, so congestion experiments exercise real contention.
        """
        ref_rate = self._specs[2].nominal_rate_bps
        inter_rate = self._specs[3].nominal_rate_bps
        refs_per_s = VIDEO_FPS / VIDEO_GOP
        inters_per_s = VIDEO_FPS * (VIDEO_GOP - 1) / VIDEO_GOP
        return VideoSource(
            ref_bytes=max(1, int(ref_rate / 8 / refs_per_s)),
            inter_bytes=max(1, int(inter_rate / 8 / inters_per_s)),
        )

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.sender.start()
        # Metadata and sensor streams follow their allocations.
        self.sender.attach_rate_driver(0)
        self.sender.attach_rate_driver(1)
        self.sim.schedule(0.0, self._next_video_frame)

    def _next_video_frame(self) -> None:
        if self._stopped:
            return
        frame = self.video.frame(self._video_frame_index)
        self._video_frame_index += 1
        quality = self.sender.allocation.quality.get(3, 1.0)
        self.quality_timeline.append((self.sim.now, quality))
        if frame.is_reference:
            ref_quality = max(self.sender.allocation.quality.get(2, 1.0), 0.05)
            spec = self._specs[2]
            # An adaptive encoder also bounds the frame's *burst* size:
            # a frame whose transit time at the current budget exceeds
            # a third of its deadline can never arrive in time, so the
            # encoder shrinks it (quality for timeliness).
            burst_cap = int(self.sender.budget_bps * spec.deadline / 8 / 3)
            size = min(int(frame.size_bytes * ref_quality), max(burst_cap, 1200))
            self._submit_sized(2, size)
        elif quality > 0:
            self._submit_sized(3, max(1, int(frame.size_bytes * quality)))
        self.sim.schedule(1.0 / VIDEO_FPS, self._next_video_frame)

    def _submit_sized(self, stream_id: int, total_bytes: int) -> None:
        """Submit a frame as MTU-sized messages."""
        spec = self._specs[stream_id]
        remaining = max(1, total_bytes)
        while remaining > 0:
            chunk = min(spec.message_bytes, remaining)
            self.sender.submit(stream_id, chunk)
            remaining -= chunk

    # ------------------------------------------------------------------
    def run(self, duration: float, settle: float = 1.0) -> QoeReport:
        """Run ``duration`` seconds of traffic plus a drain period so
        in-flight data at the cutoff still counts as delivered."""
        self.start()
        self.sim.run(until=self.sim.now + duration)
        self._stopped = True
        self.sender.stop()
        self.sim.run(until=self.sim.now + settle)
        per_class = {
            s.stream_id: class_report(self.sender, self.receiver, s.stream_id,
                                      duration=duration)
            for s in self.streams
        }
        return QoeReport(
            per_class=per_class,
            video_quality_timeline=[q for _, q in self.quality_timeline],
            duration=duration,
        )
