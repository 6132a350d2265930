"""Multipath TCP (Section V-B1), simplified.

The paper cites MPTCP for two benefits: (1) aggregating WiFi + 4G
capacity toward MAR's bandwidth needs, and (2) smoothing handover
(Paasch et al.).  This module implements the data-plane behaviours
those claims rest on:

- one connection = several :class:`~repro.transport.tcp.TcpConnection`
  subflows, each with its own congestion state (loosely-coupled —
  plain per-subflow NewReno, adequate for the experiments here);
- a connection-level byte stream sprayed over subflows by a
  lowest-RTT-first scheduler with per-subflow window limits;
- connection-level data-sequence (DSN) reassembly at the receiver:
  the sender records which DSN interval rides on which subflow (the
  stand-in for DSN headers, since segment payloads are not
  materialized), and the receiver maps each subflow's in-order TCP
  delivery back to DSN space, deduplicating against the set of
  already-delivered intervals;
- subflow failure handling: when a subflow's path dies, every byte the
  subflow has not cumulatively acked — in flight *and* sitting in its
  send backlog — is re-injected on the survivors (the handover
  mechanism).  Spurious failovers therefore deliver some bytes twice;
  the receiver counts those as ``duplicate_bytes`` rather than new
  data.

Setup uses the same simplified handshake as the TCP module.  A real
MPTCP couples congestion windows (LIA/OLIA) for bottleneck fairness;
the experiments here never share a bottleneck between subflows of the
same connection, so the coupling is out of scope and documented as
such.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.simnet.node import Host
from repro.transport.tcp import TcpConnection, TcpListener


class _IntervalSet:
    """Sorted disjoint half-open byte intervals with overlap accounting:
    span ``i`` is ``[_starts[i], _ends[i])``, found by bisection."""

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        self.total = 0                       # bytes covered

    def add(self, start: int, end: int) -> int:
        """Insert ``[start, end)``; return the number of NEW bytes covered."""
        if end <= start:
            return 0
        starts, ends = self._starts, self._ends
        # Spans lo..hi-1 overlap or touch [start, end); they merge into it.
        lo = bisect_left(ends, start)
        hi = bisect_right(starts, end, lo)
        overlap = 0
        for i in range(lo, hi):
            overlap += min(ends[i], end) - max(starts[i], start)
        new_start, new_end = start, end
        if lo < hi:
            new_start, new_end = min(start, starts[lo]), max(end, ends[hi - 1])
        starts[lo:hi] = [new_start]
        ends[lo:hi] = [new_end]
        fresh = (end - start) - overlap
        self.total += fresh
        return fresh

    def contiguous_from_zero(self) -> int:
        """Length of the delivered prefix starting at DSN 0."""
        if self._starts and self._starts[0] == 0:
            return self._ends[0]
        return 0


class MptcpSender:
    """Connection-level sender over several TCP subflows.

    Parameters
    ----------
    subflows:
        Client-side :class:`TcpConnection` endpoints, already created
        (typically one per access interface, each on its own host so
        routes diverge).  They are connected by :meth:`connect`.
    """

    def __init__(self, subflows: List[TcpConnection]) -> None:
        if not subflows:
            raise ValueError("need at least one subflow")
        self.subflows = subflows
        self.sim = subflows[0].sim
        self._alive: Dict[int, bool] = {i: True for i in range(len(subflows))}
        self._connected = 0
        self._pending_bytes = 0
        self._dsn = 0                     # next fresh data-sequence byte
        #: DSN intervals awaiting subflow assignment, in send order.
        #: Re-injected intervals go to the front (retransmit priority).
        self._send_queue: Deque[Tuple[int, int]] = deque()
        #: Per-subflow append-only assignment log: the DSN interval each
        #: subflow-level chunk carries.  This is the simulation stand-in
        #: for the DSN header riding in segment payloads; the receiver
        #: reads it to reassemble connection-level delivery.
        self.dsn_log: List[List[Tuple[int, int]]] = []
        self.on_established: Optional[Callable[[], None]] = None
        for i, subflow in enumerate(subflows):
            self.dsn_log.append([])
            subflow.on_established = self._make_established(i)

    # ------------------------------------------------------------------
    def connect(self) -> None:
        for subflow in self.subflows:
            subflow.connect()

    def _make_established(self, index: int):
        return functools.partial(self._subflow_established, index)

    def _subflow_established(self, index: int) -> None:
        self._connected += 1
        if self._connected == 1 and self.on_established is not None:
            self.on_established()
        self._pump()

    # ------------------------------------------------------------------
    def send(self, nbytes: int) -> None:
        """Queue connection-level bytes for transmission."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        self._send_queue.append((self._dsn, self._dsn + nbytes))
        self._dsn += nbytes
        self._pending_bytes += nbytes
        self._pump()

    def set_alive(self, index: int, alive: bool) -> None:
        """Mark a subflow's path up/down (handover signalling).

        On failure, every byte the subflow has not cumulatively acked is
        re-injected on the survivors: bytes in flight AND bytes parked
        in the subflow's send backlog (``app_bytes - snd_nxt``) — the
        backlog is equally stranded when the path dies, and dropping it
        silently loses data (found by repro.check's handover harness).
        """
        was_alive = self._alive[index]
        self._alive[index] = alive
        if was_alive and not alive:
            subflow = self.subflows[index]
            stranded = self._stranded_intervals(index, subflow.snd_una,
                                                subflow.app_bytes)
            for start, end in reversed(stranded):
                self._send_queue.appendleft((start, end))
                self._pending_bytes += end - start
        self._pump()

    def _stranded_intervals(self, index: int, acked_offset: int,
                            sent_offset: int) -> List[Tuple[int, int]]:
        """DSN intervals mapping to subflow bytes ``[acked, sent)``."""
        out: List[Tuple[int, int]] = []
        offset = 0
        for start, end in self.dsn_log[index]:
            length = end - start
            lo = max(acked_offset, offset)
            hi = min(sent_offset, offset + length)
            if lo < hi:
                out.append((start + (lo - offset), start + (hi - offset)))
            offset += length
            if offset >= sent_offset:
                break
        return out

    # ------------------------------------------------------------------
    def _usable(self) -> List[Tuple[int, TcpConnection]]:
        return [
            (i, s) for i, s in enumerate(self.subflows)
            if self._alive[i] and s.state == "established"
        ]

    def _pump(self) -> None:
        """Spray pending bytes over usable subflows, lowest RTT first."""
        while self._pending_bytes > 0:
            usable = self._usable()
            if not usable:
                return
            # Prefer the lowest-srtt subflow with spare window AND a
            # shallow unsent backlog — assigning ahead of the window
            # would pin bytes to one subflow regardless of how path
            # capacities actually evolve.
            def srtt_of(pair):
                return pair[1].rtt.srtt if pair[1].rtt.srtt is not None else 0.05
            candidates = [
                (i, s) for i, s in sorted(usable, key=srtt_of)
                if s.bytes_in_flight < s.cwnd
                and (s.app_bytes - s.snd_nxt) < 2 * s.mss
            ]
            if not candidates:
                # Everyone is window-limited; retry when ACKs open windows.
                self.sim.schedule(0.01, self._pump)
                return
            index, subflow = candidates[0]
            chunk = min(
                self._pending_bytes,
                max(int(subflow.cwnd - subflow.bytes_in_flight), subflow.mss),
            )
            self.dsn_log[index].extend(self._take(chunk))
            subflow.send(chunk)
            self._pending_bytes -= chunk

    def _take(self, nbytes: int) -> List[Tuple[int, int]]:
        """Pop ``nbytes`` worth of DSN intervals off the send queue."""
        out: List[Tuple[int, int]] = []
        remaining = nbytes
        while remaining > 0:
            start, end = self._send_queue.popleft()
            length = end - start
            if length <= remaining:
                out.append((start, end))
                remaining -= length
            else:
                out.append((start, start + remaining))
                self._send_queue.appendleft((start + remaining, end))
                remaining = 0
        return out


class MptcpReceiver:
    """Connection-level DSN reassembly over per-subflow listeners.

    Each TCP subflow delivers exactly-once and in order at the subflow
    level; this class maps those deliveries back to connection DSN space
    using the sender's assignment log (the stand-in for DSN headers) and
    splits the aggregate into unique versus duplicate bytes.  Attach the
    sender with :meth:`attach_sender` to enable DSN accounting; without
    it the receiver degrades to raw byte counting (``bytes_received``),
    the original behaviour.
    """

    def __init__(self, host: Host, ports: List[int]) -> None:
        self.host = host
        self.sim = host.sim
        self.bytes_received = 0
        self.bytes_delivered_unique = 0
        self.duplicate_bytes = 0
        self.delivery_log: List[Tuple[float, int]] = []
        self._sender: Optional[MptcpSender] = None
        self._delivered = _IntervalSet()
        self._consumed: List[int] = []       # per-subflow delivered bytes
        self._log_pos: List[Tuple[int, int]] = []  # (entry idx, offset) cursor
        self.listeners = [
            TcpListener(host, port,
                        on_accept=functools.partial(self._on_accept, i))
            for i, port in enumerate(ports)
        ]

    def attach_sender(self, sender: MptcpSender) -> None:
        """Wire the sender whose ``dsn_log`` describes subflow payloads."""
        if len(sender.subflows) != len(self.listeners):
            raise ValueError("sender subflow count != receiver port count")
        self._sender = sender
        self._consumed = [0] * len(self.listeners)
        self._log_pos = [(0, 0)] * len(self.listeners)

    def _on_accept(self, index: int, conn: TcpConnection) -> None:
        conn.on_data = functools.partial(self._on_data, index)

    def _on_data(self, index: int, nbytes: int) -> None:
        self.bytes_received += nbytes
        self.delivery_log.append((self.sim.now, nbytes))
        if self._sender is None:
            return
        for start, end in self._dsn_intervals(index, nbytes):
            fresh = self._delivered.add(start, end)
            self.bytes_delivered_unique += fresh
            self.duplicate_bytes += (end - start) - fresh
        self._consumed[index] += nbytes

    def _dsn_intervals(self, index: int, nbytes: int) -> List[Tuple[int, int]]:
        """Advance subflow ``index``'s log cursor by ``nbytes``."""
        log = self._sender.dsn_log[index]
        entry, offset = self._log_pos[index]
        out: List[Tuple[int, int]] = []
        remaining = nbytes
        while remaining > 0:
            start, end = log[entry]
            avail = (end - start) - offset
            step = min(avail, remaining)
            out.append((start + offset, start + offset + step))
            remaining -= step
            offset += step
            if offset == end - start:
                entry, offset = entry + 1, 0
        self._log_pos[index] = (entry, offset)
        return out

    # ------------------------------------------------------------------
    @property
    def bytes_contiguous(self) -> int:
        """In-order app-deliverable prefix: contiguous DSN bytes from 0."""
        return self._delivered.contiguous_from_zero()

    def throughput_bps(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            return 0.0
        total = sum(n for t, n in self.delivery_log if t0 < t <= t1)
        return total * 8 / (t1 - t0)
