"""Links: unidirectional transmission pipes with a queue, a rate, a
propagation delay, optional jitter and random loss.

A :class:`Link` models the classic store-and-forward pipeline: packets
wait in a queue discipline, serialize at ``rate_bps``, then propagate
for ``delay + jitter`` seconds.  :class:`DuplexLink` bundles two
opposite links (possibly asymmetric — the situation of Section IV-D).
:class:`VariableRateLink` adds the abrupt throughput changes observed on
real wireless access networks (Section IV-A) via an AR(1) rate process.

Planned departures
------------------
A :class:`~repro.simnet.queues.DropTailQueue` makes no decision when a
packet leaves it: packets depart in arrival order, each as soon as the
one before it has finished.  A link over such a queue therefore plans a
packet's whole schedule when :meth:`Link.send` accepts it, by the
Lindley recursion — start ``S = max(A, D_prev)``, finish
``D = S + size·8/rate`` — then draws its fate as the event-driven link
would at ``D`` (one ``random()`` for loss, then ``uniform(0, jitter)``
for a delivered packet, on the link's own stream and in packet order)
and schedules one event: its delivery, or for a lost packet the loss at
``D``.  A datagram hop costs one event.

The plan is exact, not an approximation.  The event-driven link reads
``rate_bps`` at ``S`` and ``loss``, ``jitter`` and ``delay`` at ``D``;
assigning a new value to any of the four replans every packet whose
``D`` lies ahead: their deliveries are cancelled, their raw uniforms
pushed back in front of the stream, and their fates re-derived under
the new values.  The byte counter and the queue's length and backlog,
read at any instant, are what the event-driven link would hold then:
packets whose ``D`` has passed are settled lazily, on the next read or
send.

Every other discipline (CoDel, FQ-CoDel, RSVP's ``ReservedQueue``)
decides at dequeue time, so a link over one keeps the event-driven
path: a serialization-finish event per packet, which dequeues the next.
So does a :class:`~repro.simnet.replay.TraceReplayLink`, whose outage
hold decides at dequeue time whether to start.  Swapping the queue
hands planned packets back to the event-driven path
(:meth:`Link._unplan`).
"""

from __future__ import annotations

import random
from collections import deque
from operator import attrgetter
from typing import List, Optional, TYPE_CHECKING

from repro.simnet.engine import Simulator
from repro.simnet.packet import Packet
from repro.simnet.queues import DropTailQueue, QueueDiscipline

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.node import Node


def _replanning(slot: str, doc: str) -> property:
    """A link parameter whose assignment replans the packets it would
    still have read it for."""

    def set_(link: "Link", value) -> None:
        if value == getattr(link, slot):
            return          # the plan already holds under this value
        taken = link._rewind()
        setattr(link, slot, value)
        link._replay(taken)

    return property(attrgetter(slot), set_, doc=doc)


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
        "sim", "src", "dst", "_rate_bps", "_delay", "_jitter", "_loss",
        "_queue", "name", "_rng", "_back", "_plan", "_free_at", "_busy",
        "_last_delivery", "_finish_cb", "_deliver_cb", "_lose_cb",
        "_bytes_sent", "bytes_delivered", "bytes_lost", "packets_delivered",
        "packets_lost", "__dict__",
    )

    #: Whether a DropTail queue lets this link plan its departures.
    _PLANS = True

    rate_bps = _replanning(
        "_rate_bps", "Serialization rate in bit/s, read when a packet starts.")
    delay = _replanning(
        "_delay", "Propagation delay in seconds, read when a packet finishes.")
    jitter = _replanning(
        "_jitter", "Jitter bound in seconds, read when a packet finishes.")
    loss = _replanning(
        "_loss", "Wire loss probability, read when a packet finishes.")

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
        self._rate_bps = float(rate_bps)
        self._delay = delay
        self._jitter = jitter
        self._loss = loss
        self.name = name or f"{src.name}->{dst.name}"
        # Parallel links share a name: the second and later ones get
        # their own stream (the first keeps the plain tag).  A stand-in
        # endpoint needs only ``add_interface``.
        twins = sum(1 for link in getattr(src, "interfaces", ())
                    if link.name == self.name)
        self._rng = sim.child_rng(
            f"link:{self.name}#{twins}" if twins else f"link:{self.name}")
        # Raw uniforms taken back from replanned packets: the stream
        # yields them before it draws from ``_rng`` again.
        self._back: deque = deque()
        # One entry per planned packet whose finish has not been settled,
        # in packet order: (start, finish, size, packet, its delivery or
        # loss event, loss uniform, jitter uniform or None, the clamp
        # before it, arrival at the link).
        self._plan: deque = deque()
        self._free_at = 0.0       # finish of the last planned packet
        self._busy = False        # event-driven path: a packet is serializing
        self._last_delivery = 0.0
        # Pre-bound callbacks: the hot path schedules these once per
        # packet, so avoid re-creating bound-method objects each time.
        self._finish_cb = self._finish_transmission
        self._deliver_cb = self._deliver
        self._lose_cb = self._lose
        # Statistics.  ``bytes_sent - bytes_delivered - bytes_lost`` is
        # the in-flight byte count; wire drops land in ``bytes_lost`` /
        # ``packets_lost`` while queue drops are counted by the queue
        # discipline (surfaced via :attr:`queue_drops`).
        self._bytes_sent = 0
        self.bytes_delivered = 0
        self.bytes_lost = 0
        self.packets_delivered = 0
        self.packets_lost = 0
        self._queue: Optional[QueueDiscipline] = None
        self.queue = queue if queue is not None else DropTailQueue()
        src.add_interface(self)

    # ------------------------------------------------------------------
    @property
    def queue(self) -> QueueDiscipline:
        """The queue discipline.  Assigning one hands any planned packets
        back to the old queue and the event-driven path; the link plans
        again only over a DropTail queue assigned while it is idle."""
        return self._queue

    @queue.setter
    def queue(self, queue: QueueDiscipline) -> None:
        old = self._queue
        if old is not None and old._planner is self:
            self._unplan()
        self._queue = queue
        if (type(queue) is DropTailQueue and self._PLANS and not self._busy
                and queue._planner is None and not queue._q):
            queue._planner = self

    def send(self, packet: Packet) -> bool:
        """Offer a packet to the link; returns False if the queue dropped it."""
        queue = self._queue
        now = self.sim.now
        if queue._planner is not self:
            accepted = queue.enqueue(packet, now)
            if accepted and not self._busy:
                self._start_transmission()
            return accepted
        plan = self._plan
        if plan and plan[0][1] <= now:
            self._settle()
        # DropTail occupancy: the planned packets that have not started.
        queued = len(plan)
        if queued and plan[0][0] <= now:
            queued -= 1
        if queued >= queue.capacity:
            queue.drops += 1
            return False
        packet.enqueued_at = now
        free = self._free_at
        start = now if now > free else free
        size = packet.size
        self._schedule(packet, size, now, start,
                       start + size * 8 / self._rate_bps)
        return True

    def _schedule(self, packet: Packet, size: int, arrived: float,
                  start: float, finish: float) -> None:
        """Plan one packet: draw its fate as the event-driven link does at
        ``finish`` and schedule its delivery (or its loss)."""
        self._free_at = finish
        back = self._back
        u = back.popleft() if back else self._rng.random()
        last = self._last_delivery
        if u < self._loss:
            lost = self.sim.schedule_at(finish, self._lose_cb, packet)
            self._plan.append((start, finish, size, packet, lost, u, None,
                               last, arrived))
            return
        jitter = self._jitter
        if jitter > 0:
            # uniform(0, jitter) is 0.0 + (jitter - 0.0) * random().
            v = back.popleft() if back else self._rng.random()
            arrival = finish + self._delay + jitter * v
        else:
            v = None
            arrival = finish + self._delay
        # Never reorder: delivery is monotone along one link.
        if arrival < last:
            arrival = last
        else:
            self._last_delivery = arrival
        delivery = self.sim.schedule_at(arrival, self._deliver_cb, packet)
        self._plan.append((start, finish, size, packet, delivery, u, v,
                           last, arrived))

    def _settle(self) -> None:
        """Retire the planned packets whose finish has passed into the
        byte counter, which the event-driven link bumps at the start."""
        plan = self._plan
        now = self.sim.now
        while plan and plan[0][1] <= now:
            self._bytes_sent += plan.popleft()[2]

    def _rewind(self) -> List[tuple]:
        """Take back the plan of every packet whose finish lies ahead:
        cancel its delivery and push its raw uniforms back in front of
        the stream, as if it had not been drawn yet.  Returns the taken
        entries, oldest first, for :meth:`_replay`."""
        self._settle()
        plan = self._plan
        if not plan:
            return []
        taken = list(plan)
        plan.clear()
        raws = []
        for _start, _finish, _size, _packet, event, u, v, _last, _arrived in taken:
            event.cancel()
            raws.append(u)
            if v is not None:
                raws.append(v)
        self._back.extendleft(reversed(raws))
        self._last_delivery = taken[0][7]
        return taken

    def _replay(self, taken: List[tuple]) -> None:
        """Plan taken-back packets again under the current parameters.
        The packet in service keeps the finish its start rate gave it;
        each later one starts when its predecessor finishes."""
        now = self.sim.now
        for start, finish, size, packet, _e, _u, _v, _last, arrived in taken:
            if start > now:
                free = self._free_at
                start = arrived if arrived > free else free
                finish = start + size * 8 / self._rate_bps
            self._schedule(packet, size, arrived, start, finish)

    def _unplan(self) -> None:
        """Hand the planned packets to the event-driven path: the one in
        service gets its finish event, the rest go back into the queue,
        and each draws its fate again when it finishes."""
        queue = self._queue
        queue._planner = None
        now = self.sim.now
        for start, finish, size, packet, *_ in self._rewind():
            if start <= now:
                self._busy = True
                self._bytes_sent += size
                self.sim.schedule_at(finish, self._finish_cb, packet)
            else:
                queue._q.append(packet)
                queue.byte_count += size

    def _draw(self) -> float:
        """The next raw uniform of the link's stream."""
        back = self._back
        return back.popleft() if back else self._rng.random()

    # ------------------------------------------------------------------
    # The event-driven path (a queue that decides at dequeue time)
    # ------------------------------------------------------------------
    def _start_transmission(self) -> None:
        packet = self._queue.dequeue(self.sim.now)
        if packet is None:
            self._busy = False
            return
        self._busy = True
        size = packet.size
        self._bytes_sent += size
        self.sim.schedule(size * 8 / self._rate_bps, self._finish_cb, packet)

    def _finish_transmission(self, packet: Packet) -> None:
        back = self._back
        rng = self._rng
        if (back.popleft() if back else rng.random()) < self._loss:
            self._lose(packet)
        else:
            jitter = self._jitter
            extra = (jitter * (back.popleft() if back else rng.random())
                     if jitter > 0 else 0.0)
            arrival = self.sim.now + self._delay + extra
            # Never reorder: delivery is monotone along one link.
            if arrival < self._last_delivery:
                arrival = self._last_delivery
            else:
                self._last_delivery = arrival
            self.sim.schedule_at(arrival, self._deliver_cb, packet)
        # Virtual on purpose: TraceReplayLink holds service in an outage.
        self._start_transmission()

    def _lose(self, packet: Packet) -> None:
        self.packets_lost += 1
        self.bytes_lost += packet.size

    def _deliver(self, packet: Packet) -> None:
        self.bytes_delivered += packet.size
        self.packets_delivered += 1
        self.dst.receive(packet, self)

    # ------------------------------------------------------------------
    @property
    def bytes_sent(self) -> int:
        """Bytes whose serialization has started."""
        plan = self._plan
        now = self.sim.now
        if plan and plan[0][1] <= now:
            self._settle()
        if plan and plan[0][0] <= now:
            return self._bytes_sent + plan[0][2]
        return self._bytes_sent

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


class _Stream(random.Random):
    """A link's random stream as the event-driven link would read it
    now: the draws taken back from planned packets first, then the
    link's generator.  Only ``random()`` is real — the derived draws
    (``lognormvariate`` among them) are built on it — so the seed below
    is never drawn from."""

    def __init__(self, link: Link) -> None:
        super().__init__(0)
        self._link = link

    def random(self) -> float:
        return self._link._draw()


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
        # The draw sits between the packets finishing before now and
        # those finishing after: take the latter's draws back first.
        taken = self._rewind()
        noise = _Stream(self).lognormvariate(0.0, self.sigma)
        proposal = self.rate_bps * (1 - RATE_ALPHA) + self.mean_rate_bps * RATE_ALPHA
        proposal *= noise
        self.rate_bps = min(self.max_rate_bps, max(self.min_rate_bps, proposal))
        self._replay(taken)
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
