"""The planned link against the two-event link it replaced.

``Link`` plans a DropTail link's departures when it accepts a packet
(docs/PERF.md §1).  ``TwoEventLink`` below is the link as it was before:
a serialization-finish event per packet, which draws the packet's fate
and dequeues the next one.  Both are driven with the same seeded
traffic, parameter changes, a queue swap and probe reads at random
instants; every delivery time, drop decision, counter, queue reading and
the link stream's next draw must be equal.
"""

import random

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.link import RATE_ALPHA, RATE_UPDATE_INTERVAL, Link, VariableRateLink
from repro.simnet.packet import Packet
from repro.simnet.queues import CoDelQueue, DropTailQueue

NAME = "a->b"
HORIZON = 12.0
READINGS = ("len", "backlog_bytes", "drops", "bytes_sent", "bytes_delivered",
            "bytes_lost", "packets_delivered", "packets_lost")


class TwoEventLink:
    """The event-driven link: the reference the planned one must equal."""

    def __init__(self, sim, dst, rate_bps, delay, jitter, loss, queue):
        self.sim, self.dst, self.queue = sim, dst, queue
        self.rate_bps, self.delay, self.jitter, self.loss = rate_bps, delay, jitter, loss
        self.rng = sim.child_rng(f"link:{NAME}")
        self.busy = False
        self.last_delivery = 0.0
        self.bytes_sent = self.bytes_delivered = self.bytes_lost = 0
        self.packets_delivered = self.packets_lost = 0

    def send(self, packet):
        accepted = self.queue.enqueue(packet, self.sim.now)
        if accepted and not self.busy:
            self._start()
        return accepted

    def _start(self):
        packet = self.queue.dequeue(self.sim.now)
        self.busy = packet is not None
        if packet is not None:
            self.bytes_sent += packet.size
            self.sim.schedule(packet.size * 8 / self.rate_bps, self._finish, packet)

    def _finish(self, packet):
        if self.rng.random() < self.loss:
            self.packets_lost += 1
            self.bytes_lost += packet.size
        else:
            extra = self.rng.uniform(0.0, self.jitter) if self.jitter > 0 else 0.0
            self.last_delivery = max(self.sim.now + self.delay + extra, self.last_delivery)
            self.sim.schedule_at(self.last_delivery, self._deliver, packet)
        self._start()

    def _deliver(self, packet):
        self.bytes_delivered += packet.size
        self.packets_delivered += 1
        self.dst.receive(packet, self)

    def update_rate(self, mean, lo, hi, sigma):
        """VariableRateLink's AR(1) step, on the same stream."""
        noise = self.rng.lognormvariate(0.0, sigma)
        proposal = self.rate_bps * (1 - RATE_ALPHA) + mean * RATE_ALPHA
        self.rate_bps = min(hi, max(lo, proposal * noise))
        self.sim.schedule(RATE_UPDATE_INTERVAL, self.update_rate, mean, lo, hi, sigma)


class Endpoint:
    def __init__(self, sim, name):
        self.sim, self.name = sim, name
        self.interfaces = []
        self.arrivals = []

    def add_interface(self, link):
        self.interfaces.append(link)

    def receive(self, packet, _link):
        self.arrivals.append((self.sim.now, packet.payload["id"]))


def _script(seed):
    """One world's inputs: arrivals (some in bursts past the buffer),
    parameter changes, one queue swap and probe instants."""
    rng = random.Random(seed)
    arrivals, t = [], 0.0
    while t < HORIZON - 2:
        t += rng.expovariate(180.0)
        for _ in range(rng.choice((1, 1, 1, 6, 25))):
            arrivals.append((t, rng.randrange(40, 1500)))
    changes = []
    for _ in range(12):
        name = rng.choice(("rate_bps", "loss", "delay", "jitter"))
        value = {"rate_bps": rng.uniform(0.3e6, 4e6),
                 "loss": rng.choice((0.0, 0.05, 0.3, 1.0)),
                 "delay": rng.uniform(0.0, 0.08),
                 "jitter": rng.choice((0.0, rng.uniform(0.0, 0.05)))}[name]
        changes.append((rng.uniform(0.0, HORIZON - 1), name, value))
    swap = (rng.uniform(2.0, HORIZON - 3), rng.choice(("codel", "droptail")))
    # Each probe reads first what another probe reads last: reading one
    # counter must not be what brings another up to date.
    probes = sorted((rng.uniform(0.0, HORIZON), rng.sample(READINGS, len(READINGS)))
                    for _ in range(300))
    return arrivals, changes, swap, probes


def _run(seed, planned, variable):
    sim = Simulator(seed=seed)
    src, dst = Endpoint(sim, "a"), Endpoint(sim, "b")
    params = dict(delay=0.02, jitter=0.01, loss=0.02, queue=DropTailQueue(20))
    rate = (1e6, 0.2e6, 3e6, 0.5)           # mean, min, max, sigma
    if planned and variable:
        link = VariableRateLink(sim, src, dst, *rate, name=NAME, **params)
    elif planned:
        link = Link(sim, src, dst, rate[0], name=NAME, **params)
    else:
        link = TwoEventLink(sim, dst, rate[0], **params)
        if variable:
            sim.schedule(RATE_UPDATE_INTERVAL, link.update_rate, *rate[:3], rate[3])
    arrivals, changes, swap, probes = _script(seed)
    verdicts, readings = [], []

    def send(i, size):
        verdicts.append(link.send(Packet("a", "b", size, payload={"id": i})))

    def change(name, value):
        setattr(link, name, value)

    def swap_queue(kind):
        old = link.queue
        if kind == "codel":                 # RSVP's conversion: keep the backlog
            new = CoDelQueue()
            while (packet := old.dequeue(0.0)) is not None:
                new.enqueue(packet, packet.enqueued_at)
        else:                               # A1's: a fresh queue
            new = DropTailQueue(8)
        link.queue = new

    def probe(order):
        read = {name: (len(link.queue) if name == "len"
                       else getattr(link.queue if name in ("backlog_bytes", "drops")
                                    else link, name))
                for name in order}
        readings.append((sim.now, *(read[name] for name in READINGS)))

    for i, (t, size) in enumerate(arrivals):
        sim.schedule_at(t, send, i, size)
    for t, name, value in changes:
        sim.schedule_at(t, change, name, value)
    sim.schedule_at(swap[0], swap_queue, swap[1])
    for t, order in probes:
        sim.schedule_at(t, probe, order)
    sim.run(until=HORIZON + 5)
    next_draw = link._draw() if planned else link.rng.random()
    return dst.arrivals, verdicts, readings, next_draw, sim.events_fired


@pytest.mark.parametrize("variable", [False, True], ids=["fixed", "variable-rate"])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_planned_link_equals_the_two_event_link(seed, variable):
    planned = _run(seed, planned=True, variable=variable)
    reference = _run(seed, planned=False, variable=variable)
    arrivals, verdicts, readings, next_draw, events = reference
    assert len(arrivals) > 200 and False in verdicts    # deliveries and drops
    assert planned[4] < events                          # it did plan
    assert planned[0] == arrivals
    assert planned[1] == verdicts
    assert planned[2] == readings
    assert planned[3] == next_draw
