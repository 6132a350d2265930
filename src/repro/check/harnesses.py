"""Checked harnesses: worlds, steps, and safety invariants.

Each harness packages one protocol state machine into the explorer's
interface:

- ``make_world(seed)`` — build the machine plus its drivers on a fresh
  :class:`Simulator`, returning a :class:`World` whose ``chooser`` the
  step consults;
- ``step(world)`` — one bounded burst of activity (choices + simulated
  time);
- ``invariants(world)`` — side-effect-free safety checks, run at every
  explored state;
- ``fingerprint(world)`` — a canonical, hashable abstraction of the
  state for the visited set (absolute sim time is abstracted away where
  the machine's behaviour depends only on relative timers, so revisited
  configurations actually prune);
- ``fault_plan(world)`` — the concrete fault events this path placed,
  exported with counterexamples;
- ``finalize(world)`` — optional end-of-trace (depth-limit leaf)
  checks, e.g. "the transfer completes once the network heals".

Deepcopy rules (checkpointing copies the whole world): callbacks must
be bound methods or callable objects — a lambda is atomic to deepcopy
and would keep pointing at the *original* world.  :class:`SimClock`
exists exactly for this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.check.choices import Chooser
from repro.core.congestion import RateController
from repro.core.degradation import DegradationController
from repro.core.protocol import MartpReceiver
from repro.core.resilience import BreakerState, CircuitBreaker
from repro.core.traffic import Priority, StreamSpec, TrafficClass
from repro.simnet.engine import Simulator
from repro.simnet.faults import FaultEvent, FaultInjector, FaultPlan
from repro.simnet.network import Network
from repro.simnet.packet import Packet
from repro.simnet.queues import DropTailQueue
from repro.transport.mptcp import MptcpReceiver, MptcpSender
from repro.transport.tcp import TcpConnection


@dataclass
class World:
    """Everything one explored state consists of."""

    sim: Simulator
    chooser: Chooser
    roots: Dict[str, object] = field(default_factory=dict)


class SimClock:
    """Deepcopy-safe ``clock()`` callable bound to a simulator.

    ``lambda: sim.now`` is atomic to deepcopy — a checkpointed breaker
    would keep reading the *original* simulator's clock after restore.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim

    def __call__(self) -> float:
        return self.sim.now


class Harness:
    """Interface + defaults; concrete harnesses override the rest."""

    name = ""
    description = ""
    #: invariant label -> docs/PROTOCOL.md section it checks.
    invariant_docs: Dict[str, str] = {}

    def make_world(self, seed: int) -> World:
        raise NotImplementedError

    def step(self, world: World) -> None:
        raise NotImplementedError

    def invariants(self, world: World) -> List[str]:
        raise NotImplementedError

    def fingerprint(self, world: World) -> Tuple:
        raise NotImplementedError

    def fault_plan(self, world: World) -> Optional[FaultPlan]:
        return None

    def finalize(self, world: World) -> Optional[List[str]]:
        """End-of-trace checks at a depth-limit leaf; ``None`` when the
        harness declines to drain this leaf."""
        return None


# ======================================================================
# CircuitBreaker (docs/PROTOCOL.md §8.3 — offload failover guard)
# ======================================================================

@dataclass
class _BreakerModel:
    """Driver-side shadow state for the breaker harness."""

    outstanding: int = 0          # admitted requests not yet completed
    violations: List[str] = field(default_factory=list)
    attempts: int = 0
    denials: int = 0


class BreakerHarness(Harness):
    """``core.resilience.CircuitBreaker`` under every request schedule.

    Invariants (PROTOCOL.md §8.3):

    - *never wedges closed*: CLOSED implies the consecutive-failure
      count is below the threshold (at the threshold it must open);
    - *never wedges open*: once the cooldown has elapsed, the next
      request must be admitted as the half-open probe;
    - *half-open admits exactly one probe*: further requests are denied
      until the probe completes;
    - the adaptive cooldown stays within ``[base, cap]``.

    ``allow_request`` mutates (OPEN -> HALF_OPEN), so admission-legality
    checks run in the driver at call time — ``invariants`` itself stays
    side-effect-free.
    """

    name = "breaker"
    description = "CircuitBreaker admission/transition legality"
    invariant_docs = {
        "wedged-closed": "docs/PROTOCOL.md §8.3 (breaker opens at threshold)",
        "wedged-open": "docs/PROTOCOL.md §8.3 (cooldown elapses -> probe)",
        "probe-budget": "docs/PROTOCOL.md §8.3 (half-open admits one probe)",
        "cooldown-range": "docs/PROTOCOL.md §8.3 (bounded backoff)",
    }

    #: Idle/hold durations the explorer can choose between: a short
    #: tick, most of the cooldown, and past the cooldown cap.
    DT_CHOICES = (0.05, 0.25, 0.9)

    def __init__(self, breaker_cls=CircuitBreaker) -> None:
        self._breaker_cls = breaker_cls

    def make_world(self, seed: int) -> World:
        sim = Simulator(seed=seed)
        breaker = self._breaker_cls(
            clock=SimClock(sim), failure_threshold=2,
            cooldown=0.2, cooldown_cap=0.8,
        )
        return World(sim=sim, chooser=Chooser(),
                     roots={"breaker": breaker, "model": _BreakerModel()})

    def step(self, world: World) -> None:
        sim = world.sim
        breaker: CircuitBreaker = world.roots["breaker"]
        model: _BreakerModel = world.roots["model"]

        actions = []
        if model.outstanding < 2:
            actions.append("attempt")
        actions.append("idle")
        if model.outstanding > 0:
            actions.extend(["complete-success", "complete-failure"])
        action = actions[world.chooser.choose("breaker.action", len(actions))]

        if action == "attempt":
            model.attempts += 1
            state_before = breaker.state
            # The admission predicate, recomputed from observable state
            # with the spec's exact `elapsed >= cooldown` comparison.
            # An epsilon here would be wrong: dt sums can land a few
            # ulps under the cooldown (first thing this harness found),
            # and at that float boundary the spec answer is "deny".
            should_admit = (
                state_before is not BreakerState.OPEN
                or sim.now - breaker._opened_at >= breaker._cooldown
            )
            allowed = breaker.allow_request()
            if state_before is BreakerState.CLOSED and not allowed:
                model.violations.append(
                    "wedged-closed: CLOSED breaker denied a request")
            if state_before is BreakerState.OPEN:
                if should_admit and not allowed:
                    model.violations.append(
                        "wedged-open: cooldown elapsed but the probe "
                        "request was denied")
                if not should_admit and allowed:
                    model.violations.append(
                        f"early-admit: OPEN breaker admitted a request "
                        f"with {breaker.cooldown_remaining:.3f}s cooldown "
                        "remaining")
            if state_before is BreakerState.HALF_OPEN and allowed:
                model.violations.append(
                    "probe-budget: HALF_OPEN admitted a second probe "
                    "while one is outstanding")
            if allowed:
                model.outstanding += 1
            else:
                model.denials += 1
        elif action == "complete-success":
            model.outstanding -= 1
            breaker.record_success()
        elif action == "complete-failure":
            model.outstanding -= 1
            breaker.record_failure()

        dt = self.DT_CHOICES[world.chooser.choose("breaker.dt",
                                                  len(self.DT_CHOICES))]
        sim.run(until=sim.now + dt)

    def invariants(self, world: World) -> List[str]:
        breaker: CircuitBreaker = world.roots["breaker"]
        model: _BreakerModel = world.roots["model"]
        out = list(model.violations)
        if (breaker.state is BreakerState.CLOSED
                and breaker.failures >= breaker.failure_threshold):
            out.append(
                f"wedged-closed: CLOSED with {breaker.failures} consecutive "
                f"failures (threshold {breaker.failure_threshold})")
        if breaker._cooldown > breaker.cooldown_cap + 1e-12:
            out.append(
                f"cooldown-range: cooldown {breaker._cooldown} exceeds cap "
                f"{breaker.cooldown_cap}")
        if breaker._cooldown < breaker.base_cooldown - 1e-12:
            out.append(
                f"cooldown-range: cooldown {breaker._cooldown} fell below "
                f"base {breaker.base_cooldown}")
        if breaker.state is BreakerState.OPEN and breaker._opened_at is None:
            out.append("wedged-open: OPEN with no opened_at timestamp")
        return out

    def fingerprint(self, world: World) -> Tuple:
        breaker: CircuitBreaker = world.roots["breaker"]
        model: _BreakerModel = world.roots["model"]
        # Absolute time is abstracted to the cooldown remainder: breaker
        # behaviour depends only on (state, failures, cooldown,
        # remaining), so recurring configurations prune.
        return (
            breaker.state.name,
            min(breaker.failures, breaker.failure_threshold),
            round(breaker._cooldown, 6),
            round(breaker.cooldown_remaining, 6),
            model.outstanding,
            len(model.violations),
        )

    def fault_plan(self, world: World) -> Optional[FaultPlan]:
        return FaultPlan()        # the schedule *is* the choice trace


# ======================================================================
# DegradationController + MARTP receiver (PROTOCOL.md §4, §6)
# ======================================================================

def _check_streams() -> List[StreamSpec]:
    return [
        StreamSpec(stream_id=0, name="metadata",
                   traffic_class=TrafficClass.CRITICAL,
                   priority=Priority.HIGHEST,
                   nominal_rate_bps=200_000.0, min_rate_bps=100_000.0,
                   message_bytes=200, deadline=1.0),
        StreamSpec(stream_id=1, name="reference",
                   traffic_class=TrafficClass.LOSS_RECOVERY,
                   priority=Priority.MEDIUM_NO_DISCARD,
                   nominal_rate_bps=1_200_000.0, min_rate_bps=300_000.0,
                   message_bytes=1200, adjustable=True, deadline=0.1),
        StreamSpec(stream_id=2, name="interframes",
                   traffic_class=TrafficClass.FULL_BEST_EFFORT,
                   priority=Priority.LOWEST,
                   nominal_rate_bps=1_000_000.0, min_rate_bps=200_000.0,
                   message_bytes=1200, deadline=0.075),
    ]


@dataclass
class _DegradationModel:
    """Driver-side shadow state for the degradation harness."""

    delivered: Dict[Tuple[int, int], int] = field(default_factory=dict)
    ordered_log: List[int] = field(default_factory=list)
    next_seq: Dict[int, int] = field(default_factory=dict)
    last_quality: Optional[Tuple[float, ...]] = None
    heavy_streak: int = 0
    clean_streak: int = 0
    violations: List[str] = field(default_factory=list)

    def on_message(self, stream_id: int, seq: int, latency: float) -> None:
        key = (stream_id, seq)
        self.delivered[key] = self.delivered.get(key, 0) + 1
        if stream_id == 0:
            self.ordered_log.append(seq)


class DegradationHarness(Harness):
    """Degradation ladder + receiver dedup under loss/recovery schedules.

    Invariants (PROTOCOL.md §4 allocation, §6 delivery):

    - non-discardable floors are always funded, congested or not;
    - per-stream quality is monotonically non-increasing while
      congestion is sustained (>= 2 consecutive heavy rounds);
    - after ``REPROMOTE_ROUNDS`` clean rounds every stream is back at
      full quality (recovery re-promotes — bounded liveness checked as
      safety);
    - no (stream, seq) message is delivered to the application twice,
      including stale duplicates older than the receiver's NACK-window
      prune floor;
    - the ordered (CRITICAL) stream is delivered in seq order.
    """

    name = "degradation"
    description = "degradation ladder monotonicity + receiver dedup"
    invariant_docs = {
        "floor-funding": "docs/PROTOCOL.md §4 (floors are hard guarantees)",
        "quality-monotonic": "docs/PROTOCOL.md §4 (degradation order)",
        "re-promotion": "docs/PROTOCOL.md §4 (recovery restores quality)",
        "no-double-delivery": "docs/PROTOCOL.md §6 (at-most-once delivery)",
        "ordered-delivery": "docs/PROTOCOL.md §6 (CRITICAL is in-order)",
    }

    #: Clean rounds after which full quality must be restored.
    REPROMOTE_ROUNDS = 8
    STEP_DT = 0.15
    BURST = 300                   # seqs to jump so pruning engages

    def make_world(self, seed: int) -> World:
        sim = Simulator(seed=seed)
        net = Network(sim)
        net.add_host("client")
        net.add_host("server")
        net.add_duplex("server", "client", 10e6, 10e6, delay=0.01)
        net.build_routes()
        streams = _check_streams()
        model = _DegradationModel(next_seq={0: 0, 2: 0})
        receiver = MartpReceiver(net["server"], 7000, streams,
                                 on_message=model.on_message)
        rate = RateController(initial_bps=2.4e6, min_bps=64_000.0)
        controller = DegradationController(streams)
        return World(sim=sim, chooser=Chooser(), roots={
            "net": net, "receiver": receiver, "rate": rate,
            "controller": controller, "model": model,
            "streams": streams,
        })

    # ------------------------------------------------------------------
    def _packet(self, world: World, stream_id: int, seq: int) -> Packet:
        sim = world.sim
        return Packet(
            src="client", dst="server", src_port=6000, dst_port=7000,
            size=528, kind="martp-data", flow="martp:check",
            payload={
                "stream": stream_id, "seq": seq, "created": sim.now,
                "msg_deadline": 1.0, "parity": False, "retransmit": False,
                "ts": sim.now, "path": "wifi",
            },
            created_at=sim.now,
        )

    def step(self, world: World) -> None:
        sim = world.sim
        rate: RateController = world.roots["rate"]
        controller: DegradationController = world.roots["controller"]
        receiver: MartpReceiver = world.roots["receiver"]
        model: _DegradationModel = world.roots["model"]
        now = sim.now

        regime = world.chooser.choose("deg.regime", 3)
        if regime == 0:           # clear air
            rate.on_loss(0.0, now)
            rate.on_rtt_sample(0.02, now)
            model.clean_streak += 1
            model.heavy_streak = 0
        elif regime == 1:         # mild wireless loss, no queuing
            rate.on_loss(0.05, now)
            rate.on_rtt_sample(0.022, now)
            model.clean_streak = 0
            model.heavy_streak = 0
        else:                     # sustained congestion
            rate.on_loss(0.3, now)
            rate.on_rtt_sample(0.08, now)
            model.clean_streak = 0
            model.heavy_streak += 1
        allocation = controller.allocate(rate.budget_bps, now)
        quality = tuple(allocation.quality[s.stream_id]
                        for s in world.roots["streams"])
        self._note_quality(world, allocation, quality)

        delivery = world.chooser.choose("deg.rx", 5)
        if delivery == 0:         # in-order delivery on both checked streams
            for stream_id in (0, 2):
                receiver._on_packet(
                    self._packet(world, stream_id, model.next_seq[stream_id]))
                model.next_seq[stream_id] += 1
        elif delivery == 1:       # gap: skip one seq on the ordered stream
            model.next_seq[0] += 1
            receiver._on_packet(self._packet(world, 0, model.next_seq[0]))
            model.next_seq[0] += 1
        elif delivery == 2:       # burst: drive the best-effort stream
            base = model.next_seq[2]            # across its prune window
            for seq in range(base, base + self.BURST):
                receiver._on_packet(self._packet(world, 2, seq))
            model.next_seq[2] = base + self.BURST
        elif delivery == 3:       # stale duplicate (below any prune floor)
            if model.next_seq[2] > 0:
                receiver._on_packet(self._packet(world, 2, 0))
        else:                     # recent duplicate
            if model.next_seq[2] > 0:
                receiver._on_packet(
                    self._packet(world, 2, model.next_seq[2] - 1))

        sim.run(until=now + self.STEP_DT)

    def _note_quality(self, world: World, allocation, quality) -> None:
        model: _DegradationModel = world.roots["model"]
        streams: List[StreamSpec] = world.roots["streams"]
        for spec in streams:
            if not spec.priority.may_discard:
                if allocation.rates_bps[spec.stream_id] < spec.min_rate_bps - 1e-9:
                    model.violations.append(
                        f"floor-funding: stream {spec.stream_id} got "
                        f"{allocation.rates_bps[spec.stream_id]:.0f} bps, "
                        f"floor {spec.min_rate_bps:.0f}")
        if model.heavy_streak >= 2 and model.last_quality is not None:
            for spec, q_now, q_prev in zip(streams, quality, model.last_quality):
                if q_now > q_prev + 1e-9:
                    model.violations.append(
                        f"quality-monotonic: stream {spec.stream_id} rose "
                        f"{q_prev:.4f} -> {q_now:.4f} under sustained "
                        "congestion")
        if model.clean_streak >= self.REPROMOTE_ROUNDS:
            for spec, q_now in zip(streams, quality):
                if q_now < 1.0 - 1e-9:
                    model.violations.append(
                        f"re-promotion: stream {spec.stream_id} stuck at "
                        f"quality {q_now:.4f} after {model.clean_streak} "
                        "clean rounds")
        model.last_quality = quality

    def invariants(self, world: World) -> List[str]:
        model: _DegradationModel = world.roots["model"]
        out = list(model.violations)
        for (stream_id, seq), count in sorted(model.delivered.items()):
            if count > 1:
                out.append(
                    f"no-double-delivery: ({stream_id}, {seq}) delivered "
                    f"{count} times")
        for prev, cur in zip(model.ordered_log, model.ordered_log[1:]):
            if cur <= prev:
                out.append(
                    f"ordered-delivery: stream 0 delivered seq {cur} after "
                    f"{prev}")
        return out

    def fingerprint(self, world: World) -> Tuple:
        rate: RateController = world.roots["rate"]
        receiver: MartpReceiver = world.roots["receiver"]
        model: _DegradationModel = world.roots["model"]
        rx0 = receiver.stream_stats(0)
        rx2 = receiver.stream_stats(2)
        return (
            round(rate.budget_bps, 3),
            model.last_quality,
            model.heavy_streak,
            min(model.clean_streak, self.REPROMOTE_ROUNDS),
            tuple(sorted(model.next_seq.items())),
            (rx0.received, rx0.cum_ack, len(model.ordered_log)),
            (rx2.received, rx2.duplicates, rx2.prune_floor),
        )

    def fault_plan(self, world: World) -> Optional[FaultPlan]:
        return FaultPlan()        # loss regimes ride in the choice trace


# ======================================================================
# MPTCP handover (PROTOCOL.md §5, §8 — multipath data plane)
# ======================================================================

@dataclass
class _MptcpModel:
    """Driver-side shadow state for the handover harness."""

    #: Sized so the transfer spans the whole explored horizon on the
    #: harness's slow links — a transfer that completes inside the
    #: first step would make every later action a no-op and collapse
    #: the tree.
    total_bytes: int = 400_000
    fault_events: List[FaultEvent] = field(default_factory=list)


class MptcpHandoverHarness(Harness):
    """MPTCP subflow migration under failovers, faults and reorderings.

    Invariants (PROTOCOL.md §5, §8):

    - no duplicate delivery counted as new data:
      ``bytes_delivered_unique`` never exceeds the bytes sent, and raw
      delivery always splits exactly into unique + duplicate;
    - no reordering escapes reassembly: the in-order contiguous prefix
      never exceeds the unique total;
    - no data loss across migration: once the trace ends with a usable
      subflow, draining the network delivers every byte exactly once
      (checked at depth-limit leaves).
    """

    name = "mptcp"
    description = "MPTCP handover: loss/dup/reorder across migration"
    invariant_docs = {
        "no-duplicate-delivery": "docs/PROTOCOL.md §5 (DSN reassembly)",
        "delivery-conservation": "docs/PROTOCOL.md §5 (DSN reassembly)",
        "no-data-loss": "docs/PROTOCOL.md §8 (handover re-injection)",
    }

    STEP_DT = 0.25
    MAX_TIE_DECISIONS = 2         # explored scheduler ties per step
    MAX_DRAINS = 40               # full leaf drains per exploration

    def __init__(self) -> None:
        self._drains = 0

    def make_world(self, seed: int) -> World:
        self._drains = 0
        sim = Simulator(seed=seed)
        net = Network(sim)
        net.add_host("client-wifi")
        net.add_host("client-lte")
        net.add_host("server")
        net.add_duplex("server", "client-wifi", 10e6, 2e6, delay=0.01,
                       queue_up=DropTailQueue(64))
        net.add_duplex("server", "client-lte", 10e6, 1e6, delay=0.03,
                       queue_up=DropTailQueue(64))
        net.build_routes()
        receiver = MptcpReceiver(net["server"], [80, 81])
        subflows = [
            TcpConnection(net["client-wifi"], 5000, "server", 80),
            TcpConnection(net["client-lte"], 5001, "server", 81),
        ]
        sender = MptcpSender(subflows)
        receiver.attach_sender(sender)
        model = _MptcpModel()
        injector = FaultInjector(net)
        sender.connect()
        sender.send(model.total_bytes)
        return World(sim=sim, chooser=Chooser(), roots={
            "net": net, "sender": sender, "receiver": receiver,
            "injector": injector, "model": model,
        })

    def _wifi_links(self, net: Network) -> List[str]:
        return [link.name for link in net.path_links("client-wifi", "server")]

    def _lte_links(self, net: Network) -> List[str]:
        return [link.name for link in net.path_links("client-lte", "server")]

    def step(self, world: World) -> None:
        sim = world.sim
        net: Network = world.roots["net"]
        sender: MptcpSender = world.roots["sender"]
        injector: FaultInjector = world.roots["injector"]
        model: _MptcpModel = world.roots["model"]

        action = world.chooser.choose("mptcp.action", 5)
        if action == 1:
            sender.set_alive(0, not sender._alive[0])
        elif action == 2:
            sender.set_alive(1, not sender._alive[1])
        elif action in (3, 4):
            links = (self._wifi_links(net) if action == 3
                     else self._lte_links(net))
            event = FaultEvent.blackout(sim.now, 0.3, links)
            injector.schedule(event)
            model.fault_events.append(event)

        # Advance one step interval, exploring same-timestamp orderings
        # for the first MAX_TIE_DECISIONS ties (engine order beyond).
        target = sim.now + self.STEP_DT
        tie_decisions = 0
        while True:
            ties = sim.pending_ties()
            if not ties or ties[0].time > target:
                break
            if len(ties) > 1 and tie_decisions < self.MAX_TIE_DECISIONS:
                pick = world.chooser.choose("mptcp.sched", min(len(ties), 3))
                tie_decisions += 1
                sim.fire_event(ties[pick])
            else:
                sim.fire_event(ties[0])
        if target > sim.now:
            sim.run(until=target)

    def invariants(self, world: World) -> List[str]:
        sender: MptcpSender = world.roots["sender"]
        receiver: MptcpReceiver = world.roots["receiver"]
        model: _MptcpModel = world.roots["model"]
        out: List[str] = []
        if receiver.bytes_delivered_unique > model.total_bytes:
            out.append(
                f"no-duplicate-delivery: {receiver.bytes_delivered_unique} "
                f"unique bytes delivered of {model.total_bytes} sent")
        if receiver.bytes_received != (receiver.bytes_delivered_unique
                                       + receiver.duplicate_bytes):
            out.append(
                f"delivery-conservation: raw {receiver.bytes_received} != "
                f"unique {receiver.bytes_delivered_unique} + duplicates "
                f"{receiver.duplicate_bytes}")
        if receiver.bytes_contiguous > receiver.bytes_delivered_unique:
            out.append(
                f"delivery-conservation: contiguous prefix "
                f"{receiver.bytes_contiguous} exceeds unique total "
                f"{receiver.bytes_delivered_unique}")
        if sender._pending_bytes < 0:
            out.append(f"delivery-conservation: negative pending byte count "
                       f"{sender._pending_bytes}")
        return out

    def fingerprint(self, world: World) -> Tuple:
        sender: MptcpSender = world.roots["sender"]
        receiver: MptcpReceiver = world.roots["receiver"]
        # Congestion state and in-flight data are part of the state:
        # collapsing them would prune branches whose future behaviour
        # (retransmits, window growth) genuinely differs.
        subflow_state = tuple(
            (s.state, s.snd_una, s.snd_nxt, s.app_bytes,
             round(s.cwnd, 3), s.bytes_in_flight,
             round(s.rtt.srtt, 6) if s.rtt.srtt is not None else None)
            for s in sender.subflows
        )
        return (
            subflow_state,
            tuple(sorted(sender._alive.items())),
            sender._pending_bytes,
            receiver.bytes_delivered_unique,
            receiver.duplicate_bytes,
            receiver.bytes_contiguous,
            len(world.roots["model"].fault_events),
        )

    def fault_plan(self, world: World) -> Optional[FaultPlan]:
        model: _MptcpModel = world.roots["model"]
        return FaultPlan(list(model.fault_events))

    def finalize(self, world: World) -> Optional[List[str]]:
        sender: MptcpSender = world.roots["sender"]
        receiver: MptcpReceiver = world.roots["receiver"]
        model: _MptcpModel = world.roots["model"]
        if not any(sender._alive.values()):
            return None           # nothing left to carry the data
        if self._drains >= self.MAX_DRAINS:
            return None
        self._drains += 1
        sim = world.sim
        sim.run(until=sim.now + 30.0)
        out: List[str] = []
        if receiver.bytes_delivered_unique != model.total_bytes:
            out.append(
                f"no-data-loss: drained to "
                f"{receiver.bytes_delivered_unique} unique bytes of "
                f"{model.total_bytes} sent")
        if receiver.bytes_contiguous != model.total_bytes:
            out.append(
                f"no-data-loss: in-order prefix stalled at "
                f"{receiver.bytes_contiguous} of {model.total_bytes}")
        out.extend(self.invariants(world))
        return out


# ======================================================================
# Seeded violation (CI self-check)
# ======================================================================

class _LeakyBreaker(CircuitBreaker):
    """Deliberately buggy: HALF_OPEN admits unlimited probes.

    Exists so CI can verify the whole pipeline end to end — the
    explorer must find the violation, export a counterexample, and the
    normal-engine replay must reproduce it byte-identically.
    """

    def allow_request(self) -> bool:
        if self.state is BreakerState.HALF_OPEN:
            return True           # BUG: the probe budget is ignored
        return super().allow_request()


class SeededViolationHarness(BreakerHarness):
    """Breaker harness over :class:`_LeakyBreaker` — must always fail."""

    name = "selfcheck"
    description = "seeded probe-budget bug (pipeline self-check)"

    def __init__(self) -> None:
        super().__init__(breaker_cls=_LeakyBreaker)


#: The checked harnesses, in CLI order.  ``selfcheck`` is deliberately
#: excluded from "all": it exists to prove the pipeline catches bugs.
HARNESSES: Dict[str, type] = {
    "breaker": BreakerHarness,
    "degradation": DegradationHarness,
    "mptcp": MptcpHandoverHarness,
    "selfcheck": SeededViolationHarness,
}

DEFAULT_HARNESSES = ("breaker", "degradation", "mptcp")
