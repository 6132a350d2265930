"""Queue disciplines for link buffers.

Section VI-H of the paper singles out oversized uplink buffers (~1000
packets) as a major latency source and suggests latency queuing /
FQ-CoDel.  Three disciplines are provided:

- :class:`DropTailQueue` — FIFO, drops at a fixed capacity.  Configured
  with ~1000 packets this reproduces the bufferbloat of Figures 3/4.
- :class:`CoDelQueue` — the Controlled Delay AQM (Nichols/Jacobson):
  drops when the minimum sojourn time stays above ``target`` for an
  ``interval``, with a square-root control law.
- :class:`FQCoDelQueue` — flow-queuing CoDel: deficit-round-robin over
  hashed flow buckets, each with its own CoDel state, and a new-flow
  priority list (the scheme of RFC 8290, simplified).
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from operator import itemgetter
from typing import Deque, Dict, Optional, Tuple

from repro.simnet.packet import Packet

#: A link plan entry's packet size (see ``repro.simnet.link``).
_PLANNED_SIZE = itemgetter(2)


class QueueDiscipline:
    """Interface every queue discipline implements.

    ``enqueue`` returns ``True`` when the packet was accepted and
    ``False`` when it was dropped; ``dequeue`` returns the next packet
    to transmit (or ``None`` when empty).  Implementations must count
    drops in :attr:`drops` and track :attr:`byte_count`.
    """

    #: The link planning this queue's departures, if any (DropTail only;
    #: see :mod:`repro.simnet.link`).
    _planner = None

    def __init__(self) -> None:
        self.drops = 0
        self.byte_count = 0

    def enqueue(self, packet: Packet, now: float) -> bool:
        raise NotImplementedError

    def dequeue(self, now: float) -> Optional[Packet]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def backlog_bytes(self) -> int:
        return self.byte_count


class DropTailQueue(QueueDiscipline):
    """Plain FIFO with a packet-count capacity.

    While a link plans this queue's departures (it is the ``_planner``),
    the queued packets live in the link's plan: length and backlog are
    read from there, and a direct ``enqueue`` or ``dequeue`` first hands
    them back to the queue and the link's event-driven path.
    """

    def __init__(self, capacity: int = 100) -> None:
        super().__init__()
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._q: Deque[Packet] = deque()

    def enqueue(self, packet: Packet, now: float) -> bool:
        if self._planner is not None:
            self._planner._unplan()
        if len(self._q) >= self.capacity:
            self.drops += 1
            return False
        packet.enqueued_at = now
        self._q.append(packet)
        self.byte_count += packet.size
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if self._planner is not None:
            self._planner._unplan()
        if not self._q:
            return None
        packet = self._q.popleft()
        self.byte_count -= packet.size
        return packet

    # The two readings below are inline, one frame each, since monitors
    # sample them: a planning link's queued packets are the entries of
    # its plan that have not started serializing (the head one has once
    # its start has passed; entries whose finish has passed are settled
    # first).
    def __len__(self) -> int:
        link = self._planner
        if link is None:
            return len(self._q)
        plan = link._plan
        now = link.sim.now
        if plan and plan[0][1] <= now:
            link._settle()
        if plan and plan[0][0] <= now:
            return len(plan) - 1
        return len(plan)

    @property
    def backlog_bytes(self) -> int:
        link = self._planner
        if link is None:
            return self.byte_count
        plan = link._plan
        now = link.sim.now
        if plan and plan[0][1] <= now:
            link._settle()
        planned = sum(map(_PLANNED_SIZE, plan))
        if plan and plan[0][0] <= now:
            return planned - plan[0][2]
        return planned


class _CoDelState:
    """CoDel control-law state shared by CoDel and FQ-CoDel buckets."""

    def __init__(self, target: float, interval: float) -> None:
        self.target = target
        self.interval = interval
        self.first_above_time = 0.0
        self.drop_next = 0.0
        self.count = 0
        self.dropping = False

    def control_law(self, t: float) -> float:
        return t + self.interval / math.sqrt(self.count)

    def should_drop(self, sojourn: float, now: float, backlog_bytes: int) -> bool:
        """One step of the CoDel 'ok to drop' decision for a dequeue."""
        if sojourn < self.target or backlog_bytes <= 1500:
            # Below target (or nearly-empty queue): leave dropping state.
            self.first_above_time = 0.0
            if self.dropping:
                self.dropping = False
            return False
        if self.first_above_time == 0.0:
            self.first_above_time = now + self.interval
            return False
        if self.dropping:
            if now >= self.drop_next:
                self.count += 1
                self.drop_next = self.control_law(self.drop_next)
                return True
            return False
        if now >= self.first_above_time:
            self.dropping = True
            # Start close to the last drop rate for persistent congestion.
            self.count = max(1, self.count - 2) if self.count > 2 else 1
            self.drop_next = self.control_law(now)
            return True
        return False


#: CoDel's target sojourn time (RFC 8289 default: 5 ms).
CODEL_TARGET = 0.005

#: CoDel's interval (RFC 8289 default: 100 ms).
CODEL_INTERVAL = 0.1

#: Hard packet capacity of the CoDel and FQ-CoDel queues (bounds memory).
AQM_CAPACITY = 1000

#: FQ-CoDel's deficit round-robin quantum, in bytes (one MTU frame).
FQ_QUANTUM = 1514

#: Number of FQ-CoDel flow buckets packets hash into.
FQ_BUCKETS = 1024


class CoDelQueue(QueueDiscipline):
    """Controlled-Delay active queue management.

    Parameters follow the RFC 8289 defaults (``CODEL_TARGET`` 5 ms
    sojourn, ``CODEL_INTERVAL`` 100 ms).  A hard ``AQM_CAPACITY`` bounds
    memory.
    """

    def __init__(self) -> None:
        super().__init__()
        self.capacity = AQM_CAPACITY
        self._q: Deque[Packet] = deque()
        self._state = _CoDelState(CODEL_TARGET, CODEL_INTERVAL)

    def enqueue(self, packet: Packet, now: float) -> bool:
        if len(self._q) >= self.capacity:
            self.drops += 1
            return False
        packet.enqueued_at = now
        self._q.append(packet)
        self.byte_count += packet.size
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        while self._q:
            packet = self._q.popleft()
            self.byte_count -= packet.size
            sojourn = now - packet.enqueued_at
            if self._state.should_drop(sojourn, now, self.byte_count):
                self.drops += 1
                continue
            return packet
        return None

    def __len__(self) -> int:
        return len(self._q)


class _FlowBucket:
    """One FQ-CoDel flow queue with its own CoDel state."""

    def __init__(self, target: float, interval: float) -> None:
        self.q: Deque[Packet] = deque()
        self.state = _CoDelState(target, interval)
        self.deficit = 0
        self.bytes = 0


class FQCoDelQueue(QueueDiscipline):
    """Flow-queuing CoDel (RFC 8290, simplified).

    Packets hash by their ``flow`` label into ``FQ_BUCKETS`` buckets.
    New (recently idle) flows get one quantum of priority service, which
    is what protects a thin latency-critical MAR flow from a bulk upload
    sharing the uplink.
    """

    def __init__(self) -> None:
        super().__init__()
        self.capacity = AQM_CAPACITY
        self._buckets: Dict[int, _FlowBucket] = {}
        self._new_flows: "OrderedDict[int, None]" = OrderedDict()
        self._old_flows: "OrderedDict[int, None]" = OrderedDict()
        self._len = 0

    def _bucket_for(self, packet: Packet) -> Tuple[int, _FlowBucket]:
        idx = hash(packet.flow) % FQ_BUCKETS
        bucket = self._buckets.get(idx)
        if bucket is None:
            bucket = _FlowBucket(CODEL_TARGET, CODEL_INTERVAL)
            self._buckets[idx] = bucket
        return idx, bucket

    def _drop_from_fattest(self) -> None:
        """At capacity, drop from the head of the largest bucket."""
        fattest = max(self._buckets.values(), key=lambda b: b.bytes, default=None)
        if fattest is None or not fattest.q:
            return
        victim = fattest.q.popleft()
        fattest.bytes -= victim.size
        self.byte_count -= victim.size
        self._len -= 1
        self.drops += 1

    def enqueue(self, packet: Packet, now: float) -> bool:
        if self._len >= self.capacity:
            self._drop_from_fattest()
            if self._len >= self.capacity:
                self.drops += 1
                return False
        idx, bucket = self._bucket_for(packet)
        packet.enqueued_at = now
        was_empty = not bucket.q
        bucket.q.append(packet)
        bucket.bytes += packet.size
        self.byte_count += packet.size
        self._len += 1
        if was_empty and idx not in self._new_flows and idx not in self._old_flows:
            bucket.deficit = FQ_QUANTUM
            self._new_flows[idx] = None
        return True

    def _next_flow(self) -> Optional[int]:
        if self._new_flows:
            return next(iter(self._new_flows))
        if self._old_flows:
            return next(iter(self._old_flows))
        return None

    def _rotate(self, idx: int, from_new: bool) -> None:
        """Move a flow to the back of the old-flows list."""
        if from_new:
            self._new_flows.pop(idx, None)
        else:
            self._old_flows.pop(idx, None)
        self._old_flows[idx] = None

    def dequeue(self, now: float) -> Optional[Packet]:
        while True:
            idx = self._next_flow()
            if idx is None:
                return None
            from_new = idx in self._new_flows
            bucket = self._buckets[idx]
            if not bucket.q:
                # Empty flow leaves the schedule.
                self._new_flows.pop(idx, None)
                self._old_flows.pop(idx, None)
                continue
            if bucket.deficit <= 0:
                bucket.deficit += FQ_QUANTUM
                self._rotate(idx, from_new)
                continue
            packet = bucket.q.popleft()
            bucket.bytes -= packet.size
            self.byte_count -= packet.size
            self._len -= 1
            sojourn = now - packet.enqueued_at
            if bucket.state.should_drop(sojourn, now, bucket.bytes):
                self.drops += 1
                continue
            bucket.deficit -= packet.size
            return packet

    def __len__(self) -> int:
        return self._len
