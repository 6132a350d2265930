"""Hooks that wire the tracer, event log and registry into subsystems.

Three integration styles, chosen per subsystem by cost:

- **Frame pipeline** (hot, per-event): :class:`FrameObserver` plugs
  into the ``obs`` attachment points of
  :class:`~repro.mar.offload.OffloadExecutor` — every hook site is
  guarded by ``if self.obs is not None``, so the disabled path costs
  one attribute test and allocates nothing.  :func:`instrument_sender`
  wraps a MARTP sender's public seams (controller callbacks,
  allocation rounds, dispatch) to fill an
  :class:`~repro.obs.spans.EventLog`, without modifying protocol code.
- **Periodic samplers** (one engine event per tick):
  :class:`QueueMonitor` and :class:`LinkMonitor` read a queue's depth
  or a link's counters every ``interval`` seconds into the registry,
  the direct view of bufferbloat and utilization inside a run.
- **Link / queue / MARTP counters** (cold, end-of-run): the
  ``collect_*`` helpers snapshot already-maintained counters into a
  :class:`~repro.obs.registry.MetricsRegistry` after the run, adding
  zero hot-path work.

:func:`path_costs` computes the analytic wire cost of moving a payload
across the routed path — serialization (bits over each link's rate,
with per-fragment UDP/IP header overhead) and propagation (summed link
delays).  The frame observer stamps these on uplink/downlink stage
spans; whatever measured stage time they don't explain is queueing —
the bufferbloat the paper's Section IV worries about, read straight
off a trace.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.mar.offload import FRAGMENT_BYTES, OffloadExecutor
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import (
    PROPAGATION_ATTR,
    SERIALIZATION_ATTR,
    EventLog,
    FrameTrace,
    Tracer,
    breakdown,
)
from repro.simnet.engine import Simulator
from repro.simnet.link import Link
from repro.simnet.network import Network
from repro.simnet.packet import IP_UDP_HEADER
from repro.simnet.queues import QueueDiscipline
from repro.vision.costs import estimate_stage_costs

#: Histogram ranges (fixed, so registries always merge-compatible).
LATENCY_HI = 2.0
LATENCY_BINS = 200


def path_costs(net: Network, src: str, dst: str, nbytes: int) -> Tuple[float, float]:
    """Analytic (serialization, propagation) seconds for one payload.

    Mirrors the executor's fragmentation (``FRAGMENT_BYTES`` chunks, a
    1-byte tail for empty remainders, ``IP_UDP_HEADER`` per fragment)
    and charges serialization on every link of the current route —
    exact for the single-hop access paths of the Table II scenarios, an
    upper bound when a multi-hop path pipelines fragments.
    """
    n_fragments = max(1, -(-nbytes // FRAGMENT_BYTES))
    wire_bytes = max(nbytes, n_fragments) + n_fragments * IP_UDP_HEADER
    serialization = 0.0
    propagation = 0.0
    for link in net.path_links(src, dst):
        serialization += wire_bytes * 8 / link.rate_bps
        propagation += link.delay
    return serialization, propagation


class FrameObserver:
    """Threads one trace id through the offload frame pipeline.

    Attach with :func:`attach_frame_observer`; the executor (and its
    server side) then report stage boundaries as they happen:

    ``frame start`` → ``local`` compute → ``uplink`` (send → last
    fragment reassembled) → ``server`` compute → ``downlink`` (respond
    → last result fragment) → ``render`` marker → frame end.

    Stage spans are contiguous, so their durations sum exactly to the
    frame's end-to-end latency; network stages carry analytic
    serialization/propagation attributes for the critical-path split.
    """

    __slots__ = ("tracer", "net", "client", "server", "app", "traces",
                 "_path_cache", "_server_attr_cache")

    def __init__(self, tracer: Tracer, net: Network, client: str,
                 server: str, app) -> None:
        self.tracer = tracer
        self.net = net
        self.client = client
        self.server = server
        self.app = app
        #: Frame index → its (possibly still open) trace.
        self.traces: Dict[int, FrameTrace] = {}
        # Per-frame hooks must stay a few µs: payload sizes and compute
        # budgets repeat every frame, so the analytic wire costs (a
        # shortest-path walk) and the vision stage split are memoized.
        # Both assume a static topology.
        self._path_cache: Dict[Tuple[str, str, int], Tuple[float, float]] = {}
        self._server_attr_cache: Dict[float, dict] = {}

    def _path_costs(self, src: str, dst: str, nbytes: int) -> Tuple[float, float]:
        key = (src, dst, nbytes)
        costs = self._path_cache.get(key)
        if costs is None:
            costs = self._path_cache[key] = path_costs(
                self.net, src, dst, nbytes)
        return costs

    # -- client-side hooks ---------------------------------------------
    def on_frame_start(self, index: int, plan) -> None:
        trace = FrameTrace(self.tracer, index)
        self.traces[index] = trace
        trace.begin("local", megacycles=plan.local_megacycles)

    def on_upload_start(self, index: int, plan) -> None:
        trace = self.traces.get(index)
        if trace is None:
            return
        ser, prop = self._path_costs(self.client, self.server,
                                     plan.upload_bytes)
        trace.begin("uplink", attrs_dict={
            "bytes": plan.upload_bytes,
            SERIALIZATION_ATTR: ser,
            PROPAGATION_ATTR: prop,
        })

    def on_frame_complete(self, index: int, outcome: str = "offloaded") -> None:
        trace = self.traces.pop(index, None)
        if trace is None:
            return
        trace.mark("render")
        trace.complete(outcome=outcome)

    def on_frame_expired(self, index: int) -> None:
        trace = self.traces.pop(index, None)
        if trace is None:
            return
        trace.complete(outcome="expired")

    # -- server-side hooks ---------------------------------------------
    def on_upload_complete(self, index: int, remote_megacycles: float) -> None:
        trace = self.traces.get(index)
        if trace is None:
            return
        attrs = self._server_attr_cache.get(remote_megacycles)
        if attrs is None:
            attrs = {"megacycles": remote_megacycles}
            w, h = self.app.resolution
            costs = estimate_stage_costs(w * h).scaled_to(remote_megacycles)
            for stage, mc in costs.as_dict().items():
                if mc > 0.0:
                    attrs[f"mc_{stage}"] = round(mc, 6)
            self._server_attr_cache[remote_megacycles] = attrs
        trace.begin("server", attrs_dict=dict(attrs))

    def on_download_start(self, index: int, download_bytes: int) -> None:
        trace = self.traces.get(index)
        if trace is None:
            return
        ser, prop = self._path_costs(self.server, self.client,
                                     download_bytes)
        trace.begin("downlink", attrs_dict={
            "bytes": download_bytes,
            SERIALIZATION_ATTR: ser,
            PROPAGATION_ATTR: prop,
        })

    # ------------------------------------------------------------------
    def breakdowns(self):
        """Breakdown dicts of every completed frame, in frame order."""
        return [breakdown(root) for root in self.tracer.frame_roots()]


def attach_frame_observer(executor: OffloadExecutor, tracer: Tracer) -> FrameObserver:
    """Create a :class:`FrameObserver` and plug it into ``executor``.

    Sets the executor's and its primary server side's ``obs`` hook
    attribute (both default to ``None`` — tracing off).  Returns the
    observer so callers can query ``observer.breakdowns()`` afterwards.
    """
    observer = FrameObserver(
        tracer, executor.net, executor.socket.host.name,
        executor.server_name, executor.app)
    executor.obs = observer
    executor.server.obs = observer
    return observer


def instrument_sender(sender, log: Optional[EventLog] = None) -> EventLog:
    """Wrap a :class:`~repro.core.protocol.MartpSender` with event logging.

    Records: every congestion decrease (with reason proxied by budget
    delta), every allocation round (budget + dropped streams), sender
    sheds, and ARQ retransmissions.  Returns the log.
    """
    log = log if log is not None else EventLog()
    sim = sender.sim

    # Congestion: wrap each controller's _decrease; only a call that
    # lowered the budget is logged.
    for name, controller in sender.controllers.items():
        original_decrease = controller._decrease

        def logged_decrease(now, reason, _orig=original_decrease,
                            _ctl=controller, _path=name):
            before = _ctl.budget_bps
            _orig(now, reason)
            if _ctl.budget_bps < before:
                log.emit(now, "congestion", "budget-decrease",
                         path=_path, reason=reason,
                         before=before, after=_ctl.budget_bps)

        controller._decrease = logged_decrease

    original_allocate = sender.degradation.allocate

    def logged_allocate(budget_bps, now=0.0):
        allocation = original_allocate(budget_bps, now)
        log.emit(now, "allocation", "round",
                 budget=budget_bps, dropped=list(allocation.dropped),
                 overcommitted=allocation.overcommitted)
        return allocation

    sender.degradation.allocate = logged_allocate

    original_offer = sender._offer

    def logged_offer(tx, message):
        before = tx.dropped
        result = original_offer(tx, message)
        if tx.dropped > before:
            log.emit(sim.now, "shedding", "message-shed",
                     stream=tx.spec.name, size=message.size)
        return result

    sender._offer = logged_offer

    for stream_id, tx in sender._tx.items():
        if tx.arq is None:
            continue
        original_nack = tx.arq.nack

        def logged_nack(seqs, now, rtt, _orig=original_nack, _tx=tx):
            out = _orig(seqs, now, rtt)
            for message in out:
                log.emit(now, "recovery", "retransmit",
                         stream=_tx.spec.name, seq=message.seq)
            return out

        tx.arq.nack = logged_nack

    return log


# ----------------------------------------------------------------------
# Periodic samplers
# ----------------------------------------------------------------------
class _Sampler:
    """Calls ``_sample`` every ``interval`` seconds of sim time.

    The first tick fires ``first`` seconds after construction; the last
    tick at or before sim time ``horizon`` is the final one — the
    sampler then stops rescheduling and lets the heap drain (without a
    horizon ``sim.run()`` with no ``until`` would never return).
    """

    def __init__(self, sim: Simulator, interval: float, horizon: float,
                 first: float) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.interval = interval
        self.horizon = horizon
        sim.schedule(first, self._tick)

    def _tick(self) -> None:
        self._sample()
        if self.sim.now + self.interval > self.horizon:
            return
        self.sim.schedule(self.interval, self._tick)


#: Seconds between two samples of a :class:`QueueMonitor`.
QUEUE_SAMPLE_INTERVAL = 0.02

#: Seconds between two samples of a :class:`LinkMonitor`.
LINK_SAMPLE_INTERVAL = 0.1


class QueueMonitor(_Sampler):
    """A queue's occupancy, from t = 0 every ``QUEUE_SAMPLE_INTERVAL``
    seconds.

    Each tick feeds ``queue.<name>.packets`` (histogram) and
    ``queue.<name>.bytes`` (gauge) of ``registry``.
    """

    def __init__(self, sim: Simulator, queue: QueueDiscipline, *,
                 horizon: float, registry: MetricsRegistry,
                 name: str = "queue") -> None:
        super().__init__(sim, QUEUE_SAMPLE_INTERVAL, horizon, first=0.0)
        self.queue = queue
        self._hist = registry.histogram(f"queue.{name}.packets",
                                        256.0, 256)
        self._gauge = registry.gauge(f"queue.{name}.bytes")

    def _sample(self) -> None:
        self._hist.observe(float(len(self.queue)))
        self._gauge.set(float(self.queue.backlog_bytes))


class LinkMonitor(_Sampler):
    """A link's per-interval utilization, from its cumulative counters.

    The first tick is one ``LINK_SAMPLE_INTERVAL`` in; ticks feed
    ``link.<name>.utilization`` (histogram) and
    ``link.<name>.throughput_bps`` (gauge) of ``registry``.
    """

    def __init__(self, sim: Simulator, link: Link, *, horizon: float,
                 registry: MetricsRegistry) -> None:
        super().__init__(sim, LINK_SAMPLE_INTERVAL, horizon, first=LINK_SAMPLE_INTERVAL)
        self.link = link
        self._last_bytes = link.bytes_sent
        self._hist = registry.histogram(f"link.{link.name}.utilization",
                                        1.0, 100)
        self._gauge = registry.gauge(f"link.{link.name}.throughput_bps")

    def _sample(self) -> None:
        delta = self.link.bytes_sent - self._last_bytes
        self._last_bytes = self.link.bytes_sent
        bps = delta * 8 / self.interval
        utilization = min(1.0, bps / self.link.rate_bps) if self.link.rate_bps else 0.0
        self._hist.observe(utilization)
        self._gauge.set(bps)


# ----------------------------------------------------------------------
# Cold-path collectors: snapshot existing counters into a registry
# ----------------------------------------------------------------------
def collect_links(registry: MetricsRegistry, net: Network,
                  elapsed: Optional[float] = None) -> None:
    """Snapshot every link's counters (``link.<name>.*``)."""
    for link in net.links:
        prefix = f"link.{link.name}"
        registry.counter(f"{prefix}.bytes_sent").inc(link.bytes_sent)
        registry.counter(f"{prefix}.bytes_delivered").inc(link.bytes_delivered)
        registry.counter(f"{prefix}.bytes_lost").inc(link.bytes_lost)
        registry.counter(f"{prefix}.packets_delivered").inc(link.packets_delivered)
        registry.counter(f"{prefix}.packets_lost").inc(link.packets_lost)
        registry.counter(f"{prefix}.queue_drops").inc(link.queue_drops)
        if elapsed is not None and elapsed > 0:
            registry.gauge(f"{prefix}.utilization").set(link.utilization(elapsed))


def collect_martp(registry: MetricsRegistry, sender, receiver) -> None:
    """Snapshot a MARTP sender/receiver pair (``martp.*``).

    Reads only public protocol state — per-stream send/shed counters,
    receiver delivery/in-time counters and latency samples, the
    sender's combined budget and congestion-event count — after the
    run; the protocol hot path is untouched.
    """
    registry.gauge("martp.budget_bps").set(sender.budget_bps)
    registry.counter("martp.congestion_events").inc(
        sender.congestion_events)
    for stream_id in sorted(sender._tx):
        tx = sender.stream_stats(stream_id)
        sprefix = f"martp.stream.{tx.spec.name}"
        registry.counter(f"{sprefix}.sent").inc(tx.sent)
        registry.counter(f"{sprefix}.shed").inc(tx.dropped)
        registry.counter(f"{sprefix}.bytes_sent").inc(tx.bytes_sent)
    for stream_id in sorted(receiver._rx):
        rx = receiver.stream_stats(stream_id)
        sprefix = f"martp.stream.{rx.spec.name}"
        registry.counter(f"{sprefix}.received").inc(rx.received)
        registry.counter(f"{sprefix}.in_time").inc(rx.in_time)
        registry.counter(f"{sprefix}.recovered").inc(rx.recovered)
        hist = registry.histogram(f"{sprefix}.latency", LATENCY_HI, LATENCY_BINS)
        # One walk per accumulator, not one ``observe`` per sample.
        hist.bins.extend(rx.latencies)
        hist.moments.extend(rx.latencies)
