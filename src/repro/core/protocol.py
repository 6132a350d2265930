"""The MARTP wire protocol: sender and receiver over UDP.

This module assembles the Section VI properties into a working
protocol:

- the application declares :class:`~repro.core.traffic.StreamSpec`
  streams and submits messages (or lets rate-driven stream drivers
  generate them);
- a pacing loop enforces per-stream token buckets whose rates come
  from :class:`~repro.core.degradation.DegradationController`, itself
  fed by :class:`~repro.core.congestion.RateController`;
- priority semantics are enforced at submission time: no-delay streams
  drop instead of queueing, no-discard streams queue instead of
  dropping, highest priority bypasses the bucket entirely;
- loss recovery per class via :class:`~repro.core.reliability.
  ArqBuffer` (NACK-driven, deadline-aware) and XOR FEC;
- multipath via :class:`~repro.core.scheduler.MultipathScheduler`,
  where each path is a separate (host, socket) pair so the simnet
  routes diverge;
- the receiver returns compact feedback every ``FEEDBACK_INTERVAL``:
  per-stream cumulative ACK + NACK list + counters, plus a timestamp
  echo per path for RTT estimation (the RTCP-inspired QoS channel).

Packets carry ~32 bytes of MARTP header (accounted in ``size``).
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.congestion import RateController
from repro.core.degradation import Allocation, DegradationController
from repro.core.reliability import ArqBuffer, FecDecoder, FecEncoder
from repro.core.scheduler import MultipathPolicy, MultipathScheduler, PathState
from repro.core.traffic import Message, Priority, StreamSpec, TrafficClass  # noqa: F401
from repro.simnet.node import Host
from repro.simnet.packet import Packet
from repro.transport.udp import UdpSocket

MARTP_HEADER = 32
FEEDBACK_SIZE = 160
#: Seconds between two pacing ticks of a :class:`MartpSender`.
TICK = 0.01
#: Seconds between two feedback reports of a :class:`MartpReceiver`.
FEEDBACK_INTERVAL = 0.05
NACK_WINDOW = 128

#: Sentinel for messages that have not yet been assigned a wire
#: sequence number (they get one at dispatch; FEC parity messages use
#: the small-negative space, so the sentinel sits far below it).
UNSEQUENCED = -(1 << 60)


def _clone_controller(prototype: RateController) -> RateController:
    """A fresh controller with the prototype's tuning parameters."""
    init_fields = {
        f.name: getattr(prototype, f.name)
        for f in dataclasses.fields(RateController)
        if f.init
    }
    return RateController(**init_fields)


@dataclass
class PathEndpoint:
    """One sending path: a socket on (usually) a per-path host."""

    state: PathState
    socket: UdpSocket
    dst: str
    dst_port: int


@dataclass
class _StreamTx:
    """Sender-side per-stream state."""

    spec: StreamSpec
    flow: str
    next_seq: int = 0
    tokens: float = 0.0
    backlog: Deque[Message] = field(default_factory=deque)
    arq: Optional[ArqBuffer] = None
    fec: Optional[FecEncoder] = None
    sent: int = 0
    dropped: int = 0
    bytes_sent: int = 0
    gen_credit_bits: float = 0.0


class MartpSender:
    """The sending half of a MARTP connection."""

    def __init__(
        self,
        paths: List[PathEndpoint],
        streams: List[StreamSpec],
        policy: MultipathPolicy = MultipathPolicy.WIFI_PREFERRED,
        controller: Optional[RateController] = None,
    ) -> None:
        if not paths:
            raise ValueError("need at least one path")
        self.paths = paths
        # First endpoint wins on a duplicated path name.
        self._endpoints: Dict[str, PathEndpoint] = {
            p.state.name: p for p in reversed(paths)
        }
        self.sim = paths[0].socket.sim
        self.scheduler = MultipathScheduler([p.state for p in paths], policy)
        self.degradation = DegradationController(streams)
        # One rate controller per path: delay-gradient congestion
        # detection needs a per-path RTT baseline — a 70 ms LTE path is
        # not "congestion" relative to a 30 ms WiFi path.  The prototype
        # ``controller`` supplies the tuning; each path gets a clone.
        prototype = controller if controller is not None else RateController()
        self.controllers: Dict[str, RateController] = {
            p.state.name: _clone_controller(prototype) for p in paths
        }
        # The combined budget must always cover guaranteed floors.
        floor = self.degradation.guaranteed_floor_bps() * 1.2
        for ctl in self.controllers.values():
            ctl.min_bps = max(ctl.min_bps, floor / len(paths))
        self._tx: Dict[int, _StreamTx] = {}
        for spec in streams:
            tx = _StreamTx(spec=spec, flow=f"martp:{spec.name}")
            if spec.traffic_class.retransmits:
                tx.arq = ArqBuffer(spec)
            if spec.fec:
                tx.fec = FecEncoder(spec.fec_group)
            self._tx[spec.stream_id] = tx
        # Backlogs drain in priority order; the stream set is fixed.
        self._by_priority = sorted(self._tx.values(), key=lambda t: t.spec.priority)
        self.allocation: Allocation = self.degradation.allocate(self.budget_bps)
        self.allocation_trace: List[Tuple[float, Allocation]] = []
        self.rate_generators: Dict[int, bool] = {}
        self._util_bytes: Dict[str, int] = {p.state.name: 0 for p in paths}
        self._util_since: Dict[str, float] = {p.state.name: 0.0 for p in paths}
        self._last_feedback: Dict[str, float] = {p.state.name: 0.0 for p in paths}
        self.feedback_timeout = 0.5
        self._global_tokens: float = 24_000.0
        self._running = False
        for path in self.paths:
            path.socket.on_receive = self._on_packet

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.sim.schedule(0.0, self._tick_loop)

    def stop(self) -> None:
        self._running = False

    def attach_rate_driver(self, stream_id: int) -> None:
        """Generate this stream's data at its *allocated* rate each tick.

        Models an adaptive application source (camera encoder, sensor
        sampler) that follows the QoS feedback — the "QoS informations
        are reported to the application, which can thus adapt" loop.
        """
        if stream_id not in self._tx:
            raise KeyError(stream_id)
        self.rate_generators[stream_id] = True

    def submit(self, stream_id: int, size: int) -> Optional[Message]:
        """Submit one application message; returns it (or None if shed).

        The wire sequence number is assigned at *dispatch* time (inside
        :meth:`_dispatch`), not here — a message shed before reaching
        the wire must not leave a hole the receiver would report as
        network loss.
        """
        tx = self._tx.get(stream_id)
        if tx is None:
            raise KeyError(f"unknown stream {stream_id}")
        # ``_offer`` stays a looked-up method: qlog hooks it per sender.
        return self._offer(
            tx, Message(stream_id, UNSEQUENCED, size, self.sim.now, tx.spec.deadline))

    # ------------------------------------------------------------------
    # Pacing and shedding
    # ------------------------------------------------------------------
    def _offer(self, tx: _StreamTx, message: Message) -> Optional[Message]:
        spec = tx.spec
        priority = spec.priority
        if (self.allocation.rates_bps.get(spec.stream_id, 0.0) <= 0
                and priority.may_discard):
            tx.dropped += 1
            return None
        cost = message.size * 8
        if priority is Priority.HIGHEST:
            # Never discarded; "never delayed" means never shed behind
            # other traffic — but bursts are still paced against the
            # whole connection budget so a large reference frame cannot
            # spike the bottleneck queue and masquerade as congestion.
            if not tx.backlog and self._global_tokens >= cost:
                self._global_tokens -= cost
                self._dispatch(tx, message)
            else:
                # Queue behind earlier messages to preserve ordering.
                tx.backlog.append(message)
            return message
        if not tx.backlog and tx.tokens >= cost and self._global_tokens >= cost:
            tx.tokens -= cost
            self._global_tokens -= cost
            self._dispatch(tx, message)
            return message
        if priority.may_delay:
            tx.backlog.append(message)
            return message
        # May not be delayed; may it be discarded?
        tx.dropped += 1
        return None

    def _tick_loop(self) -> None:
        if not self._running:
            return
        # Refill buckets from the current allocation.  The global
        # bucket's burst cap keeps any instantaneous burst below the
        # congestion controller's delay threshold worth of queue.
        now = self.sim.now
        # Dead-path detection: data flowing, no feedback for too long.
        for path in self.paths:
            name = path.state.name
            silent_for = now - max(self._last_feedback[name], self._util_since[name])
            if self._util_bytes[name] > 0 and silent_for > self.feedback_timeout:
                self.controllers[name].on_feedback_timeout(now)
                self.allocation = self.degradation.allocate(self.budget_bps, now)
        budget = self.budget_bps
        tick = TICK
        self._global_tokens = min(
            self._global_tokens + budget * tick,
            max(0.015 * budget, 24_000.0),
        )
        rates = self.allocation.rates_bps
        for tx in self._tx.values():
            rate = rates.get(tx.spec.stream_id, 0.0)
            tx.tokens = min(tx.tokens + rate * tick, rate * 0.25 + 1500 * 8)
        # Rate-driven sources generate data at the allocated rate.
        for stream_id, active in self.rate_generators.items():
            if not active:
                continue
            tx = self._tx[stream_id]
            message_bytes = tx.spec.message_bytes
            msg_bits = message_bytes * 8
            credit = tx.gen_credit_bits + rates.get(stream_id, 0.0) * tick
            while credit >= msg_bits:
                credit -= msg_bits
                self.submit(stream_id, message_bytes)
            tx.gen_credit_bits = credit
        # Drain backlogs in priority order; HIGHEST streams draw on the
        # global bucket only, others need both buckets.
        for tx in self._by_priority:
            backlog = tx.backlog
            if not backlog:
                continue
            highest = tx.spec.priority is Priority.HIGHEST
            # Critical data is never discarded, however stale.
            discardable = tx.spec.traffic_class is not TrafficClass.CRITICAL
            while backlog:
                cost = backlog[0].size * 8
                if self._global_tokens < cost:
                    break
                if not highest and tx.tokens < cost:
                    break
                message = backlog.popleft()
                if discardable and message.expired(now):
                    tx.dropped += 1
                    continue
                self._global_tokens -= cost
                if not highest:
                    tx.tokens -= cost
                self._dispatch(tx, message)
            # Expire stale backlog heads even without tokens.
            if discardable:
                while backlog and backlog[0].expired(now):
                    backlog.popleft()
                    tx.dropped += 1
        self.sim.schedule(tick, self._tick_loop)

    # ------------------------------------------------------------------
    # Wire
    # ------------------------------------------------------------------
    def _dispatch(self, tx: _StreamTx, message: Message) -> None:
        chosen = self.scheduler.select(tx.spec, message)
        if not chosen:
            if tx.spec.priority.may_delay:
                tx.backlog.append(message)
            else:
                tx.dropped += 1
            return
        if message.seq == UNSEQUENCED:
            message.seq = tx.next_seq
            tx.next_seq += 1
        original = not message.is_retransmit and not message.fec_parity
        if tx.arq is not None and original:
            tx.arq.store(message)
        size = message.size
        for state in chosen:
            name = state.name
            self._util_bytes[name] += size
            endpoint = self._endpoints[name]
            endpoint.socket.sendto(
                endpoint.dst,
                endpoint.dst_port,
                size + MARTP_HEADER,
                "martp-data",
                tx.flow,
                stream=message.stream_id,
                seq=message.seq,
                created=message.created_at,
                msg_deadline=message.deadline,
                parity=message.fec_parity,
                retransmit=message.is_retransmit,
                ts=self.sim.now,
                path=name,
            )
        tx.sent += 1
        tx.bytes_sent += size
        if tx.fec is not None and original:
            parity = tx.fec.push(message)
            if parity is not None:
                self._dispatch(tx, parity)

    # ------------------------------------------------------------------
    # Feedback handling
    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        if packet.kind != "martp-feedback":
            return
        now = self.sim.now
        path_name = packet.payload.get("path")
        if path_name in self._last_feedback:
            self._last_feedback[path_name] = now
        controller = self.controllers.get(path_name)
        if controller is None:
            controller = next(iter(self.controllers.values()))
        echo_ts = packet.payload.get("echo_ts")
        hold = packet.payload.get("hold", 0.0)
        rtt_estimate = controller.srtt or 0.05
        if echo_ts is not None:
            rtt = max(1e-6, now - echo_ts - hold)
            controller.on_rtt_sample(rtt, now)
            rtt_estimate = rtt
            if path_name in self.scheduler.paths:
                self.scheduler.observe_rtt(path_name, rtt)
        loss = packet.payload.get("loss_fraction", 0.0)
        controller.on_loss(loss, now)
        # Budget validation: while application-limited, do not let the
        # unused budget balloon (it would take seconds of decreases to
        # drain when real congestion arrives).
        # The window must exceed the burst period of the slowest periodic
        # stream (reference frames every 0.5 s) or utilization is
        # systematically underestimated between bursts.
        if path_name in self._util_bytes:
            elapsed = now - self._util_since[path_name]
            if elapsed > 1.0:
                used_bps = self._util_bytes[path_name] * 8 / elapsed
                controller.cap_to_utilization(used_bps)
                self._util_bytes[path_name] = 0
                self._util_since[path_name] = now

        for stream_id, info in packet.payload.get("streams", {}).items():
            tx = self._tx.get(stream_id)
            if tx is None or tx.arq is None:
                continue
            tx.arq.ack_through(info["cum_ack"])
            nacks = info.get("nacks", [])
            if "highest" in info:
                tx.arq.ack_window(info["highest"], nacks)
            retransmit = tx.arq.nack(nacks, now, rtt_estimate)
            for message in retransmit:
                self._dispatch(tx, message)
            tx.arq.expire(now)

        self.allocation = self.degradation.allocate(self.budget_bps, now)
        self.allocation_trace.append((now, self.allocation))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stream_stats(self, stream_id: int) -> _StreamTx:
        return self._tx[stream_id]

    @property
    def budget_bps(self) -> float:
        """Combined budget over all currently usable paths."""
        usable = [
            self.controllers[p.state.name].budget_bps
            for p in self.paths
            if p.state.usable
        ]
        if not usable:
            return min(c.min_bps for c in self.controllers.values())
        return math.fsum(usable)

    @property
    def congestion_events(self) -> int:
        return sum(c.congestion_events for c in self.controllers.values())

    @property
    def controller(self) -> RateController:
        """The single rate controller (single-path connections only)."""
        if len(self.controllers) != 1:
            raise AttributeError("multiple controllers; use .controllers")
        return next(iter(self.controllers.values()))

    def offered_rate_trace(self) -> List[Tuple[float, Dict[int, float]]]:
        """(time, per-stream allocated bps) — the Figure 4 series."""
        return [(t, dict(a.rates_bps)) for t, a in self.allocation_trace]


@dataclass
class _StreamRx:
    """Receiver-side per-stream state."""

    spec: StreamSpec
    highest: int = -1
    cum_ack: int = -1
    received_seqs: set = field(default_factory=set)
    received: int = 0
    in_time: int = 0
    bytes: int = 0
    recovered: int = 0
    duplicates: int = 0
    latencies: List[float] = field(default_factory=list)
    fec: Optional[FecDecoder] = None
    reorder: Dict[int, dict] = field(default_factory=dict)
    next_deliver: int = 0
    fb_highest: int = -1
    fb_received: int = 0
    prev_missing: set = field(default_factory=set)
    counted_lost: set = field(default_factory=set)
    #: seqs below this were pruned from ``received_seqs``; anything
    #: arriving under it is stale (already delivered or written off) and
    #: must not be delivered again.
    prune_floor: int = 0


class MartpReceiver:
    """The receiving half: delivery accounting, FEC recovery, feedback."""

    def __init__(
        self,
        host: Host,
        port: int,
        streams: List[StreamSpec],
        on_message: Optional[Callable[[int, int, float], None]] = None,
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.socket = UdpSocket(host, port, on_receive=self._on_packet)
        self.on_message = on_message
        self._rx: Dict[int, _StreamRx] = {}
        for spec in streams:
            rx = _StreamRx(spec=spec)
            if spec.fec:
                rx.fec = FecDecoder(spec.fec_group)
            self._rx[spec.stream_id] = rx
        self._last_packet_by_path: Dict[str, Tuple[float, float, str, int]] = {}
        self._feedback_event = None

    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        if packet.kind != "martp-data":
            return
        payload = packet.payload
        rx = self._rx.get(payload["stream"])
        if rx is None:
            return
        now = self.sim.now
        self._last_packet_by_path[payload.get("path", "default")] = (
            payload["ts"],
            now,
            packet.src,
            packet.src_port,
        )
        if payload.get("parity"):
            if rx.fec is not None:
                recovered = rx.fec.on_parity(-payload["seq"] - 1)
                rx.recovered += len(recovered)
        else:
            seq = payload["seq"]
            if seq in rx.received_seqs or seq < rx.prune_floor or seq <= rx.cum_ack:
                # ``received_seqs`` is pruned below the NACK window to bound
                # memory, so membership alone cannot reject a sufficiently
                # stale duplicate — without the floor check, a duplicate
                # older than the prune window would be re-counted as a fresh
                # receipt and delivered to the application a second time
                # (found by repro.check's degradation harness).
                rx.duplicates += 1
                return
            rx.received_seqs.add(seq)
            if seq > rx.highest + 1 and rx.spec.traffic_class.retransmits:
                # A fresh gap on a retransmitting stream: send feedback
                # almost immediately (the NACK equivalent of a dupack) so
                # recovery fits inside tight deadlines instead of waiting a
                # full feedback interval.
                self._arm_feedback(0.002)
            rx.highest = max(rx.highest, seq)
            rx.received += 1
            rx.bytes += packet.size
            latency = now - payload["created"]
            rx.latencies.append(latency)
            if latency <= payload["msg_deadline"]:
                rx.in_time += 1
            if rx.fec is not None:
                rx.fec.on_data(seq)
            # Advance the cumulative ack over contiguous receipt.
            while rx.cum_ack + 1 in rx.received_seqs:
                rx.cum_ack += 1
            if self.on_message is not None:
                self._deliver(rx, seq, latency)
        # Every packet but a duplicate keeps periodic feedback armed; the
        # timer is almost always running already, so that is tested here
        # and ``_arm_feedback`` entered only to arm it or pull it in.
        event = self._feedback_event
        if event is None or event.time > now + FEEDBACK_INTERVAL:
            self._arm_feedback(FEEDBACK_INTERVAL)

    def _deliver(self, rx: _StreamRx, seq: int, latency: float) -> None:
        if rx.spec.traffic_class.ordered:
            rx.reorder[seq] = {"latency": latency}
            while rx.next_deliver in rx.reorder:
                info = rx.reorder.pop(rx.next_deliver)
                self.on_message(rx.spec.stream_id, rx.next_deliver, info["latency"])
                rx.next_deliver += 1
        else:
            self.on_message(rx.spec.stream_id, seq, latency)

    def _arm_feedback(self, delay: float) -> None:
        """Schedule feedback after ``delay``, keeping the earliest."""
        due = self.sim.now + delay
        if self._feedback_event is not None:
            if self._feedback_event.time <= due:
                return
            self._feedback_event = self.sim.reschedule_at(self._feedback_event, due)
            return
        self._feedback_event = self.sim.schedule(delay, self._send_feedback)

    # ------------------------------------------------------------------
    def _send_feedback(self) -> None:
        self._feedback_event = None
        streams_info = {}
        expected = 0
        confirmed_lost = 0
        for stream_id, rx in self._rx.items():
            # Everything at or below ``cum_ack`` has arrived, so the scan
            # for holes starts above it.
            received = rx.received_seqs
            missing = {
                s
                for s in range(
                    max(0, rx.highest - NACK_WINDOW, rx.cum_ack + 1), rx.highest + 1)
                if s not in received
            }
            streams_info[stream_id] = {
                "cum_ack": rx.cum_ack,
                "nacks": sorted(missing)[:32],
                "received": rx.received,
                "highest": rx.highest,
            }
            # Loss signal: a sequence only counts as lost once it has
            # stayed missing across two consecutive feedback rounds —
            # multipath reordering (a fast path racing ahead of a slow
            # one) would otherwise masquerade as heavy loss.
            confirmed = (rx.prev_missing & missing) - rx.counted_lost
            confirmed_lost += len(confirmed)
            rx.counted_lost |= confirmed
            rx.prev_missing = missing
            # Keep the counted set bounded to the NACK window.
            floor = rx.highest - 2 * NACK_WINDOW
            if floor > 0 and len(rx.counted_lost) > 4 * NACK_WINDOW:
                rx.counted_lost = {s for s in rx.counted_lost if s >= floor}
            expected += max(0, rx.highest - rx.fb_highest)
            rx.fb_highest = rx.highest
            rx.fb_received = rx.received
            # Prune the receive set below the NACK window to bound memory,
            # remembering the floor so late stragglers under it still
            # dedupe (see ``_on_packet``).
            floor = rx.highest - 2 * NACK_WINDOW
            if floor > 0 and len(rx.received_seqs) > 4 * NACK_WINDOW:
                rx.received_seqs = {s for s in rx.received_seqs if s >= floor}
                rx.prune_floor = max(rx.prune_floor, floor)
        loss_fraction = min(1.0, confirmed_lost / expected) if expected > 0 else 0.0
        # Send feedback back along every path that recently delivered,
        # so per-path RTTs stay fresh.
        for path, (ts, arrived, src, src_port) in list(self._last_packet_by_path.items()):
            hold = self.sim.now - arrived
            self.socket.sendto(
                src,
                src_port,
                FEEDBACK_SIZE,
                kind="martp-feedback",
                streams=streams_info,
                loss_fraction=loss_fraction,
                echo_ts=ts,
                hold=hold,
                path=path,
            )
        self._last_packet_by_path.clear()

    # ------------------------------------------------------------------
    def stream_stats(self, stream_id: int) -> _StreamRx:
        return self._rx[stream_id]

    def stats(self) -> Dict[int, _StreamRx]:
        return dict(self._rx)
