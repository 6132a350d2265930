"""Links: unidirectional transmission pipes with a queue, a rate, a
propagation delay, optional jitter and random loss.

A :class:`Link` models the classic store-and-forward pipeline: packets
wait in a queue discipline, serialize at ``rate_bps``, then propagate
for ``delay + jitter`` seconds.  :class:`DuplexLink` bundles two
opposite links (possibly asymmetric — the situation of Section IV-D).
:class:`VariableRateLink` adds the abrupt throughput changes observed on
real wireless access networks (Section IV-A) via an AR(1) rate process.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.simnet.engine import Simulator
from repro.simnet.packet import Packet
from repro.simnet.queues import DropTailQueue, QueueDiscipline

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.node import Node


class Link:
    """A unidirectional link from ``src`` to ``dst``.

    Parameters
    ----------
    sim:
        Owning simulator.
    src, dst:
        Endpoint nodes.  The link registers itself as an egress
        interface on ``src``.
    rate_bps:
        Serialization rate in bits per second.
    delay:
        One-way propagation delay in seconds.
    jitter:
        If non-zero, a uniform random extra delay in ``[0, jitter]`` is
        added per packet.  Reordering is prevented by clamping delivery
        to be no earlier than the previous delivery.
    loss:
        Independent per-packet drop probability applied on the wire
        (after serialization).
    queue:
        Queue discipline instance; defaults to a 100-packet DropTail.
    """

    # Hot attributes are slot-backed; "__dict__" stays in the list so
    # subclasses and tests may still attach ad-hoc attributes (the dict
    # is only materialised when actually used).
    __slots__ = (
        "sim", "src", "dst", "rate_bps", "delay", "jitter", "loss", "queue",
        "name", "_rng", "_busy", "_last_delivery", "_finish_cb", "_deliver_cb",
        "bytes_sent", "bytes_delivered", "bytes_lost", "packets_delivered",
        "packets_lost", "__dict__",
    )

    def __init__(
        self,
        sim: Simulator,
        src: "Node",
        dst: "Node",
        rate_bps: float,
        delay: float = 0.0,
        jitter: float = 0.0,
        loss: float = 0.0,
        queue: Optional[QueueDiscipline] = None,
        name: str = "",
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if not 0.0 <= loss < 1.0:
            raise ValueError("loss must be in [0, 1)")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.rate_bps = float(rate_bps)
        self.delay = delay
        self.jitter = jitter
        self.loss = loss
        self.queue = queue if queue is not None else DropTailQueue()
        self.name = name or f"{src.name}->{dst.name}"
        # Parallel links share a name: the second and later ones get
        # their own stream (the first keeps the plain tag).  A stand-in
        # endpoint needs only ``add_interface``.
        twins = sum(1 for link in getattr(src, "interfaces", ())
                    if link.name == self.name)
        self._rng = sim.child_rng(
            f"link:{self.name}#{twins}" if twins else f"link:{self.name}")
        self._busy = False
        self._last_delivery = 0.0
        # Pre-bound callbacks: the hot path schedules these once per
        # packet, so avoid re-creating bound-method objects each time.
        self._finish_cb = self._finish_transmission
        self._deliver_cb = self._deliver
        # Statistics.  ``bytes_sent - bytes_delivered - bytes_lost`` is
        # the in-flight byte count; wire drops land in ``bytes_lost`` /
        # ``packets_lost`` while queue drops are counted by the queue
        # discipline (surfaced via :attr:`queue_drops`).
        self.bytes_sent = 0
        self.bytes_delivered = 0
        self.bytes_lost = 0
        self.packets_delivered = 0
        self.packets_lost = 0
        src.add_interface(self)

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Offer a packet to the link; returns False if the queue dropped it."""
        accepted = self.queue.enqueue(packet, self.sim.now)
        if accepted and not self._busy:
            self._start_transmission()
        return accepted

    def _start_transmission(self) -> None:
        packet = self.queue.dequeue(self.sim.now)
        if packet is None:
            self._busy = False
            return
        self._busy = True
        size = packet.size
        self.bytes_sent += size
        self.sim.schedule(size * 8 / self.rate_bps, self._finish_cb, packet)

    def _finish_transmission(self, packet: Packet) -> None:
        rng = self._rng
        if rng.random() < self.loss:
            self.packets_lost += 1
            self.bytes_lost += packet.size
        else:
            jitter = self.jitter
            extra = rng.uniform(0.0, jitter) if jitter > 0 else 0.0
            arrival = self.sim.now + self.delay + extra
            # Never reorder: delivery is monotone along one link.
            if arrival < self._last_delivery:
                arrival = self._last_delivery
            else:
                self._last_delivery = arrival
            self.sim.schedule_at(arrival, self._deliver_cb, packet)
        # Virtual on purpose: TraceReplayLink holds service in an outage.
        self._start_transmission()

    def _deliver(self, packet: Packet) -> None:
        self.bytes_delivered += packet.size
        self.packets_delivered += 1
        self.dst.receive(packet, self)

    # ------------------------------------------------------------------
    @property
    def backlog(self) -> int:
        """Packets currently queued (not counting the one in flight)."""
        return len(self.queue)

    @property
    def queue_drops(self) -> int:
        """Packets the queue discipline refused or AQM-dropped."""
        return self.queue.drops

    @property
    def bytes_in_flight(self) -> int:
        """Bytes serialized but neither delivered nor lost on the wire."""
        return self.bytes_sent - self.bytes_delivered - self.bytes_lost

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds spent transmitting."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, (self.bytes_sent * 8) / (self.rate_bps * elapsed))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} {self.rate_bps / 1e6:.1f}Mb/s {self.delay * 1e3:.1f}ms>"


#: Seconds between two rate updates of a :class:`VariableRateLink`.
RATE_UPDATE_INTERVAL = 0.5

#: Relaxation of a :class:`VariableRateLink`'s rate toward its mean.
RATE_ALPHA = 0.5


class VariableRateLink(Link):
    """A link whose rate follows a clamped AR(1) process.

    Every ``RATE_UPDATE_INTERVAL`` seconds the rate moves toward
    ``mean_rate_bps`` with relaxation ``RATE_ALPHA`` plus lognormal noise of
    scale ``sigma``, clamped to ``[min_rate_bps, max_rate_bps]``.  This
    captures the "abrupt changes of several orders of magnitude"
    reported for HSPA+/LTE in Section IV-A without modeling PHY detail.
    """

    __slots__ = (
        "mean_rate_bps", "min_rate_bps", "max_rate_bps", "sigma", "rate_history",
    )

    def __init__(
        self,
        sim: Simulator,
        src: "Node",
        dst: "Node",
        mean_rate_bps: float,
        min_rate_bps: float,
        max_rate_bps: float,
        sigma: float = 0.3,
        **kwargs,
    ) -> None:
        super().__init__(sim, src, dst, rate_bps=mean_rate_bps, **kwargs)
        if not min_rate_bps <= mean_rate_bps <= max_rate_bps:
            raise ValueError("need min <= mean <= max rate")
        self.mean_rate_bps = mean_rate_bps
        self.min_rate_bps = min_rate_bps
        self.max_rate_bps = max_rate_bps
        self.sigma = sigma
        self.rate_history: list = [(0.0, mean_rate_bps)]
        sim.schedule(RATE_UPDATE_INTERVAL, self._update_rate)

    def _update_rate(self) -> None:
        noise = self._rng.lognormvariate(0.0, self.sigma)
        proposal = self.rate_bps * (1 - RATE_ALPHA) + self.mean_rate_bps * RATE_ALPHA
        proposal *= noise
        self.rate_bps = min(self.max_rate_bps, max(self.min_rate_bps, proposal))
        self.rate_history.append((self.sim.now, self.rate_bps))
        self.sim.schedule(RATE_UPDATE_INTERVAL, self._update_rate)


class DuplexLink:
    """Two opposite unidirectional links, possibly asymmetric.

    ``DuplexLink`` is the natural model for access links: Section IV-D
    stresses that most access links are asymmetric (down:up ratios of
    2.5–8) while MAR traffic is upload-heavy.
    """

    __slots__ = ("down", "up")

    def __init__(
        self,
        sim: Simulator,
        a: "Node",
        b: "Node",
        rate_down_bps: float,
        rate_up_bps: Optional[float] = None,
        delay: float = 0.0,
        jitter: float = 0.0,
        loss: float = 0.0,
        queue_down: Optional[QueueDiscipline] = None,
        queue_up: Optional[QueueDiscipline] = None,
    ) -> None:
        rate_up_bps = rate_up_bps if rate_up_bps is not None else rate_down_bps
        base = f"{a.name}<->{b.name}"
        # "down" carries traffic toward ``b`` (the client side by
        # convention), "up" carries traffic from ``b`` toward ``a``.
        self.down = Link(
            sim, a, b, rate_down_bps, delay, jitter, loss, queue_down, name=f"{base}:down"
        )
        self.up = Link(sim, b, a, rate_up_bps, delay, jitter, loss, queue_up, name=f"{base}:up")
