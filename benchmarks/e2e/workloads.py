"""The six fixed end-to-end workloads.

Each workload drives the simulator stack through its public functions
only and is split into three steps the harness (``run.py``) calls from
outside:

- ``setup(seed, quick, scratch)`` — untimed: imports, campaign
  construction, cache population.  Every input is derived from ``seed``.
- ``run(state, workers)`` — one pass; the harness times it (wall + CPU)
  and, in a traced run, profiles it.  Phases inside a pass are timed
  here, around the public call that does the work.
- ``check(state, raw, wall)`` — untimed: the output check.  Returns an
  :class:`Outcome` with the pass's deterministic fingerprint, the
  violated invariants, the deterministic per-layer counts and the
  per-pass timing metrics.

``extras(state, serial_wall)`` (traced runs only) measures the
per-layer metrics that need their own calls — per-shard latencies, the
merge loop, the fluid tier alone.

Sizes are chosen so a full-size pass takes about a second on a 2 GHz
core and a run of ``run_seconds`` holds enough passes for a steady
median; ``quick`` divides every size by ten for smoke use.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List

now = time.perf_counter

#: The four CloudRidAR rows of Table II: (rtt, downlink, uplink, jitter).
TABLE2_ROWS = (
    (0.008, 150e6, 150e6, 0.001),
    (0.036, 80e6, 40e6, 0.004),
    (0.072, 80e6, 40e6, 0.006),
    (0.120, 20e6, 8e6, 0.010),
)
RTTS = [row[0] for row in TABLE2_ROWS]


@dataclass
class Outcome:
    """What one checked pass produced."""

    units: int                         # units attempted in the pass
    fingerprint: str                   # sha256 of the deterministic outcome
    violations: List[str] = field(default_factory=list)
    #: deterministic per-layer metrics (counts, simulated statistics)
    counts: Dict[str, float] = field(default_factory=dict)
    #: host-time per-layer metrics of this pass
    timings: Dict[str, float] = field(default_factory=dict)


def digest(payload: object) -> str:
    """Fingerprint of a JSON-able outcome (floats via ``repr``, exact)."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def scaled(n: float, quick: bool) -> float:
    return n / 10 if quick else n


def link_counts(links) -> Dict[str, float]:
    """simnet counters summed over live ``Link`` objects."""
    return {
        "simnet.packets": sum(l.packets_delivered + l.packets_lost for l in links),
        "simnet.queue_drops": sum(l.queue_drops for l in links),
        "simnet.bytes_lost": sum(l.bytes_lost for l in links),
    }


def aggregate_counts(agg) -> Dict[str, float]:
    """The same simnet counters, plus MARTP's, read off a fleet Aggregate."""
    def total(prefix: str, suffix: str) -> int:
        return sum(v for k, v in agg.counts.items()
                   if k.startswith(prefix) and k.endswith(suffix))

    sent = total("class.", ".sent")
    out = {
        "simnet.packets": (total("obs.link.", ".packets_delivered")
                           + total("obs.link.", ".packets_lost")),
        "simnet.queue_drops": total("obs.link.", ".queue_drops"),
        "simnet.bytes_lost": total("obs.link.", ".bytes_lost"),
    }
    if sent:
        out["core.in_time_share"] = total("class.", ".in_time") / sent
    return out


class Workload:
    """Base: names, and the steps a workload may leave empty."""

    name = ""
    unit = ""
    why = ""
    #: also run with ``workers=2`` in a traced run
    parallel = False

    def setup(self, seed: int, quick: bool, scratch):
        raise NotImplementedError

    def run(self, state, workers: int = 1):
        raise NotImplementedError

    def check(self, state, raw, wall: float) -> Outcome:
        raise NotImplementedError

    def extras(self, state, serial_wall: float) -> Dict[str, float]:
        return {}


# ----------------------------------------------------------------------
class EngineChurn(Workload):
    name = "engine_churn"
    unit = "event"
    why = ("bare Simulator: a self-rescheduling ring, then RTO-style "
           "reschedule churn; the engine does all the work")

    RING_SLOTS = 64
    RING_EVENTS = 500_000
    CONNS = 100
    REARM_SECONDS = 2.5
    FEEDBACK = 0.001
    HORIZON = 0.5
    PROBE_EVERY = 0.05

    def setup(self, seed, quick, scratch):
        from repro.simnet.engine import Simulator

        rng = random.Random(seed)
        return SimpleNamespace(
            Simulator=Simulator, seed=seed,
            n_events=int(scaled(self.RING_EVENTS, quick)),
            duration=scaled(self.REARM_SECONDS, quick),
            # the seed jitters each slot's period and each connection's
            # phase; the event counts do not depend on it
            periods=[0.001 * rng.uniform(0.5, 1.5)
                     for _ in range(self.RING_SLOTS)],
            phases=[self.FEEDBACK * rng.random() for _ in range(self.CONNS)],
        )

    def run(self, st, workers=1):
        sim = st.Simulator(seed=st.seed)
        remaining = [st.n_events]
        periods = st.periods

        def tick(slot):
            if remaining[0] > 0:
                remaining[0] -= 1
                sim.schedule(periods[slot], tick, slot)

        for slot, period in enumerate(periods):
            sim.schedule(period, tick, slot)
        t0 = now()
        ring_fired = sim.run()
        ring_wall = now() - t0

        # Per-connection feedback every millisecond, each re-arming an
        # RTO-like timer parked HORIZON away that almost never fires.
        sim = st.Simulator(seed=st.seed)
        duration, horizon, feedback = st.duration, self.HORIZON, self.FEEDBACK
        timers = [None] * self.CONNS
        rto_fires = [0]
        peak = [0]

        def on_rto(i):
            rto_fires[0] += 1
            timers[i] = None

        def ack(i):
            timer = timers[i]
            if timer is None:
                timers[i] = sim.schedule(horizon, on_rto, i)
            else:
                timers[i] = sim.reschedule(timer, horizon)
            if sim.now < duration:
                sim.schedule(feedback, ack, i)

        def probe():
            peak[0] = max(peak[0], sim.heap_size)
            if sim.now < duration:
                sim.schedule(self.PROBE_EVERY, probe)

        for i, phase in enumerate(st.phases):
            sim.schedule(phase, ack, i)
        sim.schedule(0.0, probe)
        t0 = now()
        rearm_fired = sim.run(until=duration + 2 * horizon)
        rearm_wall = now() - t0
        return SimpleNamespace(
            ring_fired=ring_fired, ring_wall=ring_wall,
            rearm_fired=rearm_fired, rearm_wall=rearm_wall,
            rto_fires=rto_fires[0],
            peak_heap=max(peak[0], self.RING_SLOTS),   # the ring holds one event per slot
            clock=sim.now)

    def check(self, st, raw, wall):
        violations = []
        if raw.ring_fired != st.n_events + self.RING_SLOTS:
            violations.append(f"ring fired {raw.ring_fired} events")
        if raw.rto_fires != self.CONNS:
            violations.append(f"{raw.rto_fires} RTO timers fired")
        events = raw.ring_fired + raw.rearm_fired
        return Outcome(
            units=events,
            fingerprint=digest([raw.ring_fired, raw.rearm_fired, raw.rto_fires,
                                raw.peak_heap, raw.clock]),
            violations=violations,
            counts={"simnet.engine.events": events,
                    "simnet.engine.peak_heap": raw.peak_heap},
            timings={
                "simnet.engine.ring_events_per_s": raw.ring_fired / raw.ring_wall,
                "simnet.engine.rearm_events_per_s": raw.rearm_fired / raw.rearm_wall,
            })


# ----------------------------------------------------------------------
class OffloadSession(Workload):
    name = "offload_session"
    unit = "frame"
    why = ("Table II: CloudRidAR feature offload over the four access "
           "rows, plus one row with the frame observer attached; engine "
           "and simnet dominate, no reliable transport runs")

    FRAMES = 3000
    OBSERVED_ROW = 1          # the 36 ms cloud/WiFi row

    def setup(self, seed, quick, scratch):
        from repro.mar.application import APP_ARCHETYPES
        from repro.mar.devices import CLOUD, SMARTPHONE
        from repro.mar.offload import FeatureOffload, OffloadExecutor
        from repro.obs import Tracer, attach_frame_observer
        from repro.simnet.engine import Simulator
        from repro.simnet.network import Network

        def session(row, n_frames, observe):
            rtt, down, up, jitter = row
            sim = Simulator(seed=seed)
            net = Network(sim)
            net.add_host("client")
            net.add_host("server")
            net.add_duplex("server", "client", down, up, delay=rtt / 2,
                           jitter=jitter / 2)
            net.build_routes()
            executor = OffloadExecutor(
                net, "client", "server", APP_ARCHETYPES["orientation"],
                FeatureOffload(), SMARTPHONE, server_device=CLOUD)
            tracer = None
            if observe:
                tracer = Tracer(sim)
                attach_frame_observer(executor, tracer)
            t0 = now()
            result = executor.run(n_frames=n_frames)
            return SimpleNamespace(wall=now() - t0, sim=sim, net=net,
                                   result=result, tracer=tracer)

        return SimpleNamespace(session=session,
                               n_frames=int(scaled(self.FRAMES, quick)))

    def run(self, st, workers=1):
        plain = [st.session(row, st.n_frames, False) for row in TABLE2_ROWS]
        observed = st.session(TABLE2_ROWS[self.OBSERVED_ROW], st.n_frames, True)
        return SimpleNamespace(plain=plain, observed=observed)

    @staticmethod
    def _row_outcome(result):
        return [result.frames_sent, result.frames_completed,
                sum(result.frame_latencies), sum(result.link_rtts)]

    def check(self, st, raw, wall):
        from repro.analysis.stats import percentile

        violations = []
        runs = raw.plain + [raw.observed]
        for i, r in enumerate(runs):
            res = r.result
            if not 0 < res.frames_completed <= res.frames_sent:
                violations.append(
                    f"row {i}: {res.frames_completed}/{res.frames_sent} frames")
        twin = raw.plain[self.OBSERVED_ROW]
        if self._row_outcome(raw.observed.result) != self._row_outcome(twin.result):
            violations.append("the frame observer changed the session's outcome")

        latencies = [l for r in raw.plain for l in r.result.frame_latencies]
        hits = sum(1 for r in raw.plain for l in r.result.frame_latencies
                   if l <= r.result.deadline)
        frames = sum(r.result.frames_completed for r in raw.plain)
        plain_wall = sum(r.wall for r in raw.plain)
        counts = link_counts([l for r in runs for l in r.net.links])
        counts.update({
            "simnet.engine.events": sum(r.sim.events_fired for r in runs),
            "mar.frames": frames,
            "mar.deadline_hit_share": hits / len(latencies),
            "mar.sim_frame_ms_p50": percentile(latencies, 50) * 1e3,
            "mar.sim_frame_ms_p95": percentile(latencies, 95) * 1e3,
            "obs.spans": len(raw.observed.tracer),
        })
        return Outcome(
            units=sum(r.result.frames_sent for r in runs),
            fingerprint=digest([self._row_outcome(r.result) for r in runs]),
            violations=violations,
            counts=counts,
            timings={
                "mar.frames_per_s": frames / plain_wall,
                "obs.observed_wall_s": raw.observed.wall,
                "obs.overhead_share": raw.observed.wall / twin.wall - 1,
            })


# ----------------------------------------------------------------------
class TransportShootout(Workload):
    name = "transport_shootout"
    unit = "protocol_run"
    why = ("A7's control+video mix over a lossy uplink under TCP, QUIC and "
           "MARTP, then two NewReno senders and a UDP pair filling a "
           "dumbbell queue; transport and loss recovery dominate")

    LOSS = 0.02
    RTT = 0.030
    UP_BPS = 8e6
    CONTROL_BYTES = 200
    CONTROL_INTERVAL = 0.05
    VIDEO_CHUNK = 6000
    VIDEO_INTERVAL = 0.033
    MIX_SECONDS = 40.0
    SETTLE = 10.0             # idle tail: every retransmission lands
    # dumbbell: 10 Mb/s, 10 ms bottleneck, DropTail of one BDP, 1 Mb/s UDP
    DB_BW = 10e6
    DB_DELAY = 0.010
    DB_RTT = 0.040
    DB_MSS = 1200
    DB_UDP_BPS = 1e6
    DB_SECONDS = 12.0

    @staticmethod
    def _api():
        from fixtures import dumbbell
        from repro.core.protocol import MartpReceiver, MartpSender, PathEndpoint
        from repro.core.scheduler import PathState
        from repro.core.traffic import Priority, StreamSpec, TrafficClass
        from repro.simnet.engine import Simulator
        from repro.simnet.network import Network
        from repro.simnet.queues import DropTailQueue
        from repro.transport.quic import QuicConnection
        from repro.transport.tcp import TcpConnection, TcpListener
        from repro.transport.udp import UdpSocket

        return SimpleNamespace(
            dumbbell=dumbbell, MartpReceiver=MartpReceiver,
            MartpSender=MartpSender, PathEndpoint=PathEndpoint,
            PathState=PathState, Priority=Priority, StreamSpec=StreamSpec,
            TrafficClass=TrafficClass, Simulator=Simulator, Network=Network,
            DropTailQueue=DropTailQueue, QuicConnection=QuicConnection,
            TcpConnection=TcpConnection, TcpListener=TcpListener,
            UdpSocket=UdpSocket)

    def setup(self, seed, quick, scratch):
        rng = random.Random(seed)
        return SimpleNamespace(
            seed=seed, api=self._api(),
            mix_seconds=scaled(self.MIX_SECONDS, quick),
            db_seconds=scaled(self.DB_SECONDS, quick),
            # the second bulk sender joins a seed-drawn moment after the first
            db_stagger=rng.uniform(0.0, 0.2))

    # -- the A7 path and traffic mix -----------------------------------
    def _path(self, st):
        api = st.api
        sim = api.Simulator(seed=st.seed)
        net = api.Network(sim)
        net.add_host("client")
        net.add_host("server")
        uplink = net.add_link("client", "server", self.UP_BPS,
                              delay=self.RTT / 2, loss=self.LOSS,
                              queue=api.DropTailQueue(500))
        net.add_link("server", "client", 50e6, delay=self.RTT / 2)
        net.build_routes()
        return sim, net, uplink

    def _drive(self, st, sim, send_control, send_video):
        for i in range(int(st.mix_seconds / self.CONTROL_INTERVAL)):
            sim.schedule(i * self.CONTROL_INTERVAL, send_control)
        for i in range(int(st.mix_seconds / self.VIDEO_INTERVAL)):
            sim.schedule(i * self.VIDEO_INTERVAL, send_video)
        t0 = now()
        sim.run(until=st.mix_seconds + self.SETTLE)
        return now() - t0

    def _tcp(self, st):
        api = st.api
        sim, net, uplink = self._path(st)
        delivered = [0]

        def on_data(nbytes):
            delivered[0] += nbytes

        api.TcpListener(net["server"], 80,
                        on_accept=lambda c: setattr(c, "on_data", on_data))
        conn = api.TcpConnection(net["client"], 5000, "server", 80)
        offered = [0]

        def send(nbytes):
            if conn.state == "established":
                offered[0] += nbytes
                conn.send(nbytes)

        conn.connect()
        wall = self._drive(st, sim, lambda: send(self.CONTROL_BYTES),
                           lambda: send(self.VIDEO_CHUNK))
        return SimpleNamespace(
            wall=wall, sim=sim, net=net, offered=offered[0],
            delivered=delivered[0], retransmits=conn.retransmits,
            timeouts=conn.timeouts,
            segments=uplink.packets_delivered + uplink.packets_lost)

    def _quic(self, st):
        api = st.api
        sim, net, uplink = self._path(st)
        delivered = [0]

        def on_stream_data(stream_id, nbytes):
            delivered[0] += nbytes

        api.QuicConnection(net["server"], 443, "client", 5000,
                           on_stream_data=on_stream_data)
        client = api.QuicConnection(net["client"], 5000, "server", 443)
        client.connect(resumed=True)
        offered = [0]

        def send(stream_id, nbytes):
            offered[0] += nbytes
            client.send_stream(stream_id, nbytes)

        wall = self._drive(st, sim, lambda: send(1, self.CONTROL_BYTES),
                           lambda: send(2, self.VIDEO_CHUNK))
        return SimpleNamespace(
            wall=wall, sim=sim, net=net, offered=offered[0],
            delivered=delivered[0], retransmits=client.retransmits,
            timeouts=0, segments=uplink.packets_delivered + uplink.packets_lost)

    def _martp(self, st):
        api = st.api
        sim, net, _uplink = self._path(st)
        control = api.StreamSpec(
            stream_id=0, name="control",
            traffic_class=api.TrafficClass.CRITICAL,
            priority=api.Priority.HIGHEST, nominal_rate_bps=64_000,
            min_rate_bps=64_000, message_bytes=self.CONTROL_BYTES, deadline=2.0)
        video = api.StreamSpec(
            stream_id=1, name="video",
            traffic_class=api.TrafficClass.FULL_BEST_EFFORT,
            priority=api.Priority.LOWEST, nominal_rate_bps=2e6,
            message_bytes=1200, deadline=0.2)
        receiver = api.MartpReceiver(net["server"], 7000, [control, video])
        endpoint = api.PathEndpoint(
            state=api.PathState(name="wifi"),
            socket=api.UdpSocket(net["client"], 6000),
            dst="server", dst_port=7000)
        sender = api.MartpSender([endpoint], [control, video])
        sender.start()

        def send_video():
            remaining = self.VIDEO_CHUNK
            while remaining > 0:
                sender.submit(1, min(1200, remaining))
                remaining -= 1200

        wall = self._drive(st, sim,
                           lambda: sender.submit(0, self.CONTROL_BYTES),
                           send_video)
        sent = sum(sender.stream_stats(sid).sent for sid in (0, 1))
        in_time = sum(receiver.stream_stats(sid).in_time for sid in (0, 1))
        return SimpleNamespace(
            wall=wall, sim=sim, net=net, sent=sent, in_time=in_time,
            received=sum(receiver.stream_stats(sid).received for sid in (0, 1)),
            control_latencies=list(receiver.stream_stats(0).latencies))

    def _dumbbell(self, st):
        buffer_pkts = int(self.DB_BW * self.DB_RTT / 8 / (self.DB_MSS + 40))
        d = st.api.dumbbell(self.DB_BW, self.DB_DELAY, 0.0, buffer_pkts,
                            rtt=self.DB_RTT, mss=self.DB_MSS,
                            udp_background=self.DB_UDP_BPS, seed=st.seed)
        d.senders[0].connect()
        d.sim.schedule(st.db_stagger, d.senders[1].connect)
        t0 = now()
        d.sim.run(until=st.db_seconds)
        return SimpleNamespace(wall=now() - t0, sim=d.sim, net=d.net, d=d)

    def run(self, st, workers=1):
        return SimpleNamespace(tcp=self._tcp(st), quic=self._quic(st),
                               martp=self._martp(st), db=self._dumbbell(st))

    def check(self, st, raw, wall):
        from repro.analysis.stats import jain_index, percentile

        violations = []
        for label in ("tcp", "quic"):
            r = getattr(raw, label)
            if not 0 < r.offered == r.delivered:
                violations.append(
                    f"{label}: delivered {r.delivered} of {r.offered} bytes")
        if not 0 < raw.martp.in_time <= raw.martp.received <= raw.martp.sent:
            violations.append("martp: in-time/received/sent out of order")
        d = raw.db.d
        if min(d.delivered) <= 0 or d.udp_sink.stats.packets_total <= 0:
            violations.append("dumbbell: a flow was starved")

        runs = [raw.tcp, raw.quic, raw.martp, raw.db]
        reliable = [raw.tcp, raw.quic]
        counts = link_counts([l for r in runs for l in r.net.links])
        counts.update({
            "simnet.engine.events": sum(r.sim.events_fired for r in runs),
            "simnet.dumbbell_queue_drops": d.bottleneck.queue_drops,
            "transport.retx_share": (sum(r.retransmits for r in reliable)
                                     / sum(r.segments for r in reliable)),
            "transport.timeouts": (sum(r.timeouts for r in reliable)
                                   + sum(c.timeouts for c in d.senders)),
            "transport.goodput_mbps": d.goodput_bps(st.db_seconds) / 1e6,
            "transport.jain_fairness": jain_index(d.delivered),
            "core.in_time_share": raw.martp.in_time / raw.martp.sent,
            "core.control_ms_p95": percentile(raw.martp.control_latencies, 95) * 1e3,
        })
        return Outcome(
            units=len(runs),
            fingerprint=digest([
                [r.offered, r.delivered, r.retransmits, r.timeouts]
                for r in reliable
            ] + [[raw.martp.sent, raw.martp.received, raw.martp.in_time,
                  sum(raw.martp.control_latencies)],
                 [d.delivered, d.bottleneck.queue_drops,
                  [(c.retransmits, c.timeouts) for c in d.senders],
                  d.udp_sink.stats.packets_total]]),
            violations=violations,
            counts=counts,
            timings={"transport.tcp_wall_s": raw.tcp.wall,
                     "transport.quic_wall_s": raw.quic.wall,
                     "core.martp_wall_s": raw.martp.wall,
                     "transport.dumbbell_wall_s": raw.db.wall})


# ----------------------------------------------------------------------
def fleet_outcome(result, simulated=True) -> Outcome:
    """Checks and counts shared by every ``run_campaign`` workload.

    ``simulated=False``: every shard was a cache hit, so the aggregate's
    packet and message counts are not work this pass did.
    """
    violations = []
    if result.quarantined:
        violations.append(f"quarantined shards: {result.quarantined[:3]}")
    if result.completed != len(result.outcomes):
        violations.append(
            f"{result.completed} of {len(result.outcomes)} shards completed")
    counts = aggregate_counts(result.aggregate) if simulated else {}
    counts.update({
        "fleet.shards": len(result.outcomes),
        "fleet.cache_hits": result.cache_hits,
        "fleet.cache_misses": result.cache_misses,
        "fleet.retries": sum(max(o.attempts - 1, 0) for o in result.outcomes),
        "fleet.quarantined": len(result.quarantined),
        "fleet.n_batches": result.n_batches,
        "fleet.max_buffered": result.max_buffered,
    })
    return Outcome(units=len(result.outcomes),
                   fingerprint=digest(result.aggregate.to_json()),
                   violations=violations, counts=counts)


def cell_offload_campaign(seed: int, seeds: int, duration: float):
    from repro.fleet import Campaign, get_scenario

    campaign = Campaign(
        name="e2e-cell-offload", scenario="cell_offload", seeds=seeds,
        base_seed=seed, grid={"rtt": RTTS},
        params={"duration": duration, "up_bps": 12e6})
    get_scenario(campaign.scenario)     # import the scenario stack in set-up
    return campaign


class FleetCampaign(Workload):
    name = "fleet_campaign"
    unit = "shard"
    why = ("run_campaign over 64 cold cell_offload shards, no cache: the "
           "fleet's real use; MARTP core and the engine dominate")
    parallel = True

    SEEDS = 16
    DURATION = 2.0
    SHARD_SAMPLES = 200       # enough for a p95 with ten samples beyond it

    def setup(self, seed, quick, scratch):
        return SimpleNamespace(
            quick=quick,
            campaign=cell_offload_campaign(
                seed, max(1, int(scaled(self.SEEDS, quick))), self.DURATION))

    def run(self, st, workers=1):
        from repro.fleet import run_campaign

        return run_campaign(st.campaign, workers=workers, cache=None)

    def check(self, st, raw, wall):
        return fleet_outcome(raw)

    def extras(self, st, serial_wall):
        from repro.fleet import get_scenario, plan_batches, run_shard

        shards = st.campaign.shards()
        samples, rounds = [], []
        while len(samples) < (1 if st.quick else self.SHARD_SAMPLES):
            t_round = now()
            for spec in shards:
                t0 = now()
                run_shard(st.campaign, spec.tag)
                samples.append((now() - t0) * 1e3)
            rounds.append(now() - t_round)
        states = [SimpleNamespace(spec=spec) for spec in shards]
        scenario = get_scenario(st.campaign.scenario)
        plans = []
        for _ in range(20):
            t0 = now()
            plan_batches(states, 2, None, scenario)
            plans.append((now() - t0) * 1e3)
        return {
            "fleet.shard_ms_p50": statistics.median(samples),
            "fleet.shard_ms_p95": statistics.quantiles(samples, n=20)[18],
            "fleet.shard_samples": len(samples),
            "fleet.overhead_share": 1 - statistics.median(rounds) / serial_wall,
            "fleet.plan_batches_ms": statistics.median(plans),
        }


class FleetWarm(Workload):
    name = "fleet_warm"
    unit = "shard"
    why = ("the same scenario as many tiny shards, every one a cache hit: "
           "no simulation runs, so spec expansion, cache reads and the "
           "ordered merge are all of the time")

    SEEDS = 64
    DURATION = 0.1

    def setup(self, seed, quick, scratch):
        from repro.fleet import ResultCache, run_campaign

        campaign = cell_offload_campaign(
            seed, max(1, int(scaled(self.SEEDS, quick))), self.DURATION)
        root = scratch / "cache"
        filled = run_campaign(campaign, cache=ResultCache(root))
        if filled.quarantined:
            raise RuntimeError(f"cache fill quarantined {filled.quarantined}")
        return SimpleNamespace(campaign=campaign, root=root)

    def run(self, st, workers=1):
        from repro.fleet import ResultCache, run_campaign

        return run_campaign(st.campaign, cache=ResultCache(st.root))

    def check(self, st, raw, wall):
        out = fleet_outcome(raw, simulated=False)
        if raw.cache_hits != len(raw.outcomes) or raw.cache_misses:
            out.violations.append(
                f"cache hit {raw.cache_hits} of {len(raw.outcomes)} shards")
        out.timings["fleet.warm_shards_per_s"] = len(raw.outcomes) / wall
        return out

    def extras(self, st, serial_wall):
        from repro.fleet import Aggregate, OrderedReducer, ResultCache

        cache = ResultCache(st.root)
        shards = st.campaign.shards()
        texts = [cache.shard_path(st.campaign, spec).read_text()
                 for spec in shards]
        walls = []
        for _ in range(5):
            reducer = OrderedReducer([spec.point_label for spec in shards])
            t0 = now()
            for spec, text in zip(shards, texts):
                reducer.offer(spec.index, Aggregate.from_json(text))
            reducer.finish()
            walls.append(now() - t0)
        return {"fleet.merge_us_per_shard":
                statistics.median(walls) / len(shards) * 1e6}


class CitySmall(Workload):
    name = "city_small"
    unit = "shard"
    why = ("the city coverage study at the small budget: fluid cells, "
           "promoted event-level sessions and pressured foreground "
           "sessions; the only workload on scale and wireless")
    parallel = True

    MIN_USERS = 100_000

    def setup(self, seed, quick, scratch):
        from repro.fleet import get_scenario
        from repro.scale import CITY_BUDGETS, city_coverage_campaign

        budget = "smoke" if quick else "small"
        campaign = city_coverage_campaign(budget, city_seed=seed,
                                          base_seed=seed)
        get_scenario(campaign.scenario)
        return SimpleNamespace(campaign=campaign, seed=seed, quick=quick,
                               budget=CITY_BUDGETS[budget])

    def run(self, st, workers=1):
        from repro.fleet import run_campaign

        return run_campaign(st.campaign, workers=workers, cache=None)

    def check(self, st, raw, wall):
        from repro.scale import city_users

        users = city_users(raw.aggregate)
        out = fleet_outcome(raw)
        out.counts["scale.users"] = users
        out.counts["scale.promoted_sessions"] = raw.aggregate.counts.get(
            "scale.promoted_sessions", 0)
        if users < (1 if st.quick else self.MIN_USERS):
            out.violations.append(f"only {users} background users")
        out.timings["scale.users_per_s"] = users / wall
        return out

    def extras(self, st, serial_wall):
        from repro.fleet import shard_seed
        from repro.scale import city_cell_spec, run_cell

        t0 = now()
        for cell in range(st.budget.n_cells):
            run_cell(city_cell_spec(st.seed, cell, st.budget),
                     shard_seed(st.seed, f"scale.cell{cell}"),
                     st.budget.fluid_duration)
        fluid_wall = now() - t0
        return {"scale.fluid_cells_per_s": st.budget.n_cells / fluid_wall,
                "scale.fluid_share": fluid_wall / serial_wall}


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (EngineChurn(), OffloadSession(), TransportShootout(),
                        FleetCampaign(), FleetWarm(), CitySmall())
}
