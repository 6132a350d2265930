"""RSVP-style per-flow resource reservation (Section V-A1).

The paper: "the possibility to provide QoS guarantees on specific AR
applications could be a commercial argument for mobile broadband
operators".  This module implements the data plane such a guarantee
needs plus a minimal signaling layer:

- :class:`ReservedQueue` — a queue discipline with per-flow guaranteed
  rates: reserved flows are served by strict priority *within* their
  token-bucket allowance (so a reservation cannot be starved, and
  cannot hog beyond its reservation either), everything else shares a
  FIFO.
- :class:`ReservationTable` / :func:`reserve_path` — walks the current
  route and installs the reservation on every link, converting link
  queues to :class:`ReservedQueue` as needed (the PATH/RESV handshake
  collapsed to an instantaneous control-plane action, admission
  control included).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.simnet.link import Link
from repro.simnet.network import Network
from repro.simnet.packet import Packet
from repro.simnet.queues import QueueDiscipline


#: A reservation's token bucket holds this many seconds of its rate.
BURST_SECONDS = 0.05

#: The share of each link's capacity reservations may promise away.
ADMISSION_FRACTION = 0.8


class AdmissionError(RuntimeError):
    """The requested reservation exceeds a link's admittable capacity."""


@dataclass
class _Reservation:
    flow: str
    rate_bps: float
    bucket_bits: float
    max_burst_bits: float
    queue: Deque[Packet] = field(default_factory=deque)


class ReservedQueue(QueueDiscipline):
    """Guaranteed-rate queue: reserved flows first, within token bounds.

    ``dequeue`` refills each reservation's token bucket from elapsed
    time, serves any reserved flow with both a packet and tokens, then
    falls back to the best-effort FIFO.  Tokens cap at one ``burst``
    so idle reservations cannot save up unbounded credit.
    """

    def __init__(self, capacity: int = 1000) -> None:
        super().__init__()
        self.capacity = capacity
        self._reservations: Dict[str, _Reservation] = {}
        self._best_effort: Deque[Packet] = deque()
        self._last_refill = 0.0
        self._len = 0

    # ------------------------------------------------------------------
    def add_reservation(self, flow: str, rate_bps: float) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        burst = rate_bps * BURST_SECONDS
        self._reservations[flow] = _Reservation(
            flow=flow, rate_bps=rate_bps, bucket_bits=burst, max_burst_bits=burst,
        )

    def reserved_rate_bps(self) -> float:
        return math.fsum(r.rate_bps for r in self._reservations.values())

    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, now: float) -> bool:
        if self._len >= self.capacity:
            # Buffer protection: a reserved packet evicts a best-effort
            # one rather than being tail-dropped behind a flood.
            if packet.flow in self._reservations and self._best_effort:
                victim = self._best_effort.pop()
                self.byte_count -= victim.size
                self._len -= 1
                self.drops += 1
            else:
                self.drops += 1
                return False
        packet.enqueued_at = now
        reservation = self._reservations.get(packet.flow)
        if reservation is not None:
            reservation.queue.append(packet)
        else:
            self._best_effort.append(packet)
        self.byte_count += packet.size
        self._len += 1
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        self._refill(now)
        # Reserved flows first, if they have tokens.
        for reservation in self._reservations.values():
            if reservation.queue and reservation.bucket_bits >= reservation.queue[0].bits:
                packet = reservation.queue.popleft()
                reservation.bucket_bits -= packet.bits
                self._pop_accounting(packet)
                return packet
        if self._best_effort:
            packet = self._best_effort.popleft()
            self._pop_accounting(packet)
            return packet
        # Starvation guard: nothing best-effort and every reserved flow
        # is out of tokens — serve the longest-waiting reserved packet
        # anyway (work conservation; the link would otherwise idle).
        waiting = [r for r in self._reservations.values() if r.queue]
        if waiting:
            reservation = min(waiting, key=lambda r: r.queue[0].enqueued_at)
            packet = reservation.queue.popleft()
            self._pop_accounting(packet)
            return packet
        return None

    def _pop_accounting(self, packet: Packet) -> None:
        self.byte_count -= packet.size
        self._len -= 1

    def _refill(self, now: float) -> None:
        elapsed = now - self._last_refill
        if elapsed <= 0:
            return
        self._last_refill = now
        for reservation in self._reservations.values():
            reservation.bucket_bits = min(
                reservation.max_burst_bits,
                reservation.bucket_bits + reservation.rate_bps * elapsed,
            )

    def __len__(self) -> int:
        return self._len


class ReservationTable:
    """Network-wide reservation bookkeeping with admission control.

    ``ADMISSION_FRACTION`` bounds how much of each link's capacity may
    be promised away (the rest stays best-effort).
    """

    def __init__(self, net: Network) -> None:
        self.net = net

    def reserve_path(self, src: str, dst: str, flow: str, rate_bps: float) -> List[Link]:
        """Install a guaranteed rate for ``flow`` on every link of the
        current ``src``→``dst`` route.  Raises :class:`AdmissionError`
        (installing nothing) if any link lacks capacity."""
        links = self.net.path_links(src, dst)
        # Admission check on all links first — atomic install.
        for link in links:
            queue = link.queue
            already = queue.reserved_rate_bps() if isinstance(queue, ReservedQueue) else 0.0
            if already + rate_bps > link.rate_bps * ADMISSION_FRACTION:
                raise AdmissionError(
                    f"link {link.name} cannot admit {rate_bps / 1e6:.2f} Mb/s "
                    f"(reserved {already / 1e6:.2f} of {link.rate_bps / 1e6:.2f})"
                )
        for link in links:
            if not isinstance(link.queue, ReservedQueue):
                link.queue = self._convert(link.queue)
            link.queue.add_reservation(flow, rate_bps)
        return links

    @staticmethod
    def _convert(old_queue: QueueDiscipline) -> ReservedQueue:
        """Swap a link's discipline, preserving whatever is queued."""
        capacity = getattr(old_queue, "capacity", 1000)
        new_queue = ReservedQueue(capacity=capacity)
        while True:
            packet = old_queue.dequeue(0.0)
            if packet is None:
                break
            new_queue.enqueue(packet, packet.enqueued_at)
        return new_queue
