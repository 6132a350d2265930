"""What transports share: socket plumbing, reassembly, RTT estimation."""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from repro.simnet.node import Host
from repro.simnet.packet import Packet


class SocketBase:
    """A protocol endpoint bound to one (host, port).

    Subclasses implement :meth:`on_packet`.  The base class handles
    binding/unbinding and outbound packet construction.
    """

    def __init__(self, host: Host, port: int) -> None:
        self.host = host
        self.port = port
        self.sim = host.sim
        self.closed = False
        host.bind(port, self)

    def close(self) -> None:
        if not self.closed:
            self.host.unbind(self.port)
            self.closed = True

    # ------------------------------------------------------------------
    def _packet(
        self,
        dst: str,
        dst_port: int,
        size: int,
        kind: str = "data",
        flow: str = "",
        **payload,
    ) -> Packet:
        return Packet(self.host.name, dst, size, self.port, dst_port,
                      kind, flow, payload, self.sim.now)

    def on_packet(self, packet: Packet) -> None:
        raise NotImplementedError


class Reassembly:
    """A receive buffer (TCP's, each QUIC stream's) releasing bytes in order.

    ``next`` is the delivery point: every byte below it was delivered.
    A segment waits as ``start -> length`` (a repeated start keeps the
    longer length) with its start on a heap: O(log n) per segment.
    """

    __slots__ = ("next", "_held", "_starts")

    def __init__(self) -> None:
        self.next = 0
        self._held: Dict[int, int] = {}
        self._starts: List[int] = []

    def add(self, start: int, length: int) -> List[int]:
        """Buffer ``[start, start + length)``; return the advances of the
        delivery point it releases, one per drained segment, in order."""
        held, starts = self._held, self._starts
        if start in held:
            held[start] = max(held[start], length)
        else:
            held[start] = length
            heapq.heappush(starts, start)
        advances: List[int] = []
        while starts and starts[0] <= self.next:
            first = heapq.heappop(starts)
            end = first + held.pop(first)
            if end > self.next:
                advances.append(end - self.next)
                self.next = end
        return advances


#: :meth:`RttEstimator.timeout` before the first RTT sample, in seconds.
RTT_INITIAL_TIMEOUT = 0.2

#: Lower clamp of :meth:`RttEstimator.timeout`, in seconds.
RTT_TIMEOUT_FLOOR = 0.02

#: Upper clamp of :meth:`RttEstimator.timeout`, in seconds.
RTT_TIMEOUT_CAP = 2.0


class RttEstimator:
    """Smoothed RTT and variance (RFC 6298 constants).

    ``timeout()`` returns ``srtt + 4·rttvar`` clamped to
    ``[RTT_TIMEOUT_FLOOR, RTT_TIMEOUT_CAP]`` — the heartbeat's liveness
    timer (TCP and QUIC clamp their own).  Before any sample the timer
    sits at ``RTT_INITIAL_TIMEOUT``.
    """

    def __init__(self) -> None:
        self.srtt: Optional[float] = None
        self.rttvar: float = 0.0
        self.samples = 0

    def sample(self, rtt: float) -> None:
        if rtt < 0:
            return
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt
        self.samples += 1

    def timeout(self) -> float:
        if self.srtt is None:
            return RTT_INITIAL_TIMEOUT
        return min(RTT_TIMEOUT_CAP, max(RTT_TIMEOUT_FLOOR, self.srtt + 4 * self.rttvar))
