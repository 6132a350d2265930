"""TCP NewReno over the simulator.

This is the baseline protocol for the paper's asymmetric-link experiment
(Figure 3 — uploads starving a download through ACK compression on an
oversized uplink buffer) and the congestion-window trace that Figure 4
contrasts with MARTP's graceful degradation.

The implementation covers the sender/receiver mechanics that those
dynamics depend on:

- byte-sequence cumulative ACKs with delayed ACKing,
- slow start / congestion avoidance / NewReno fast recovery,
- RTT estimation (Jacobson/Karel, Karn's rule) and exponential RTO
  backoff,
- a one-MSS-per-RTT additive increase in congestion avoidance.

Connection setup is a simplified two-way handshake (SYN/SYN-ACK); flow
control uses a large static receive window by default since none of the
experiments exercise zero-window behaviour.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from repro.simnet.engine import Event
from repro.simnet.node import Host
from repro.simnet.packet import IP_TCP_HEADER, Packet
from repro.transport.base import Reassembly, RttEstimator, SocketBase

MSS = 1460
ACK_SIZE = IP_TCP_HEADER

#: The receiver's advertised window, in bytes (never the bottleneck).
RWND = 10_000_000

#: Floor of the retransmission timeout, in seconds.
MIN_RTO = 0.2

#: The first local port a :class:`TcpListener` gives an accepted
#: connection (the next free one above it after that).
FIRST_ACCEPT_PORT = 40000

# States
CLOSED = "closed"
SYN_SENT = "syn-sent"
ESTABLISHED = "established"

# Congestion phases
SLOW_START = "slow-start"
CONG_AVOID = "congestion-avoidance"
FAST_RECOVERY = "fast-recovery"


class TcpConnection(SocketBase):
    """One endpoint of a TCP connection.

    Create the client side with ``TcpConnection(host, port, dst,
    dst_port)`` and call :meth:`connect`; the passive side is spawned by
    a :class:`TcpListener`.  Data is modelled as byte counts: the
    application calls :meth:`send` with a number of bytes (or sets
    ``bulk=True`` for an unbounded transfer) and the peer's
    ``on_data(nbytes)`` callback fires as bytes are delivered in order.
    """

    def __init__(
        self,
        host: Host,
        port: int,
        dst: str,
        dst_port: int,
        mss: int = MSS,
    ) -> None:
        super().__init__(host, port)
        self.dst = dst
        self.dst_port = dst_port
        self.mss = mss
        self.on_data: Optional[Callable[[int], None]] = None
        self.state = CLOSED
        self.on_established: Optional[Callable[[], None]] = None
        self.on_complete: Optional[Callable[[], None]] = None

        # --- sender state ---
        self.snd_una = 0
        self.snd_nxt = 0
        self.app_bytes = 0          # bytes the app has queued, total
        self.bulk = False
        self.cwnd = 10 * mss        # RFC 6928 initial window
        self.ssthresh = 1 << 30
        self.phase = SLOW_START
        self.dup_acks = 0
        self.recover = 0
        self._send_times: Dict[int, Tuple[float, bool]] = {}  # seq -> (t, retransmitted)
        self._sent_seqs: List[int] = []  # heap of the _send_times keys
        self._rto_event: Optional[Event] = None
        self.rtt = RttEstimator()
        self.rto = 1.0
        self._backoff = 1

        # --- receiver state ---
        self._rcv = Reassembly()    # ``_rcv.next`` is RCV.NXT
        self._ack_pending = 0
        self._ack_event: Optional[Event] = None

        # --- traces / stats ---
        self.cwnd_trace: List[Tuple[float, float]] = []
        self.bytes_delivered = 0
        self.retransmits = 0
        self.timeouts = 0
        self.flow = f"tcp:{host.name}:{port}->{dst}:{dst_port}"

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def connect(self) -> None:
        if self.state != CLOSED:
            raise RuntimeError("already connecting/connected")
        self.state = SYN_SENT
        self._send_ctrl("syn")
        self._arm_rto()

    def _establish(self) -> None:
        self.state = ESTABLISHED
        self._record_cwnd()
        if self.on_established is not None:
            self.on_established()
        self._try_send()

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def send(self, nbytes: int) -> None:
        """Queue ``nbytes`` application bytes for transmission."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        self.app_bytes += nbytes
        self._try_send()

    def send_forever(self) -> None:
        """Switch to an unbounded (bulk) transfer."""
        self.bulk = True
        self._try_send()

    @property
    def bytes_in_flight(self) -> int:
        return self.snd_nxt - self.snd_una

    @property
    def transfer_complete(self) -> bool:
        return not self.bulk and self.snd_una >= self.app_bytes > 0

    # ------------------------------------------------------------------
    # Sending machinery
    # ------------------------------------------------------------------
    def _available_bytes(self) -> int:
        limit = self.app_bytes if not self.bulk else (1 << 62)
        return max(0, limit - self.snd_nxt)

    def _window(self) -> int:
        return int(min(self.cwnd, RWND))

    def _try_send(self) -> None:
        if self.state != ESTABLISHED:
            return
        while self.bytes_in_flight < self._window() and self._available_bytes() > 0:
            seg = min(self.mss, self._available_bytes(),
                      self._window() - self.bytes_in_flight)
            if seg <= 0:
                break
            self._send_segment(self.snd_nxt, seg, retransmit=False)
            self.snd_nxt += seg
        self._arm_rto()

    def _send_segment(self, seq: int, length: int, retransmit: bool) -> None:
        packet = self._packet(
            self.dst,
            self.dst_port,
            length + IP_TCP_HEADER,
            kind="tcp-data",
            flow=self.flow,
            seq=seq,
            len=length,
        )
        resent = seq in self._send_times
        if not resent:
            heapq.heappush(self._sent_seqs, seq)
        self._send_times[seq] = (self.sim.now, retransmit or resent)
        if retransmit:
            self.retransmits += 1
        self.host.send(packet)

    def _send_ctrl(self, kind: str) -> None:
        packet = self._packet(self.dst, self.dst_port, ACK_SIZE, kind=kind, flow=self.flow)
        self.host.send(packet)

    # ------------------------------------------------------------------
    # RTO handling
    # ------------------------------------------------------------------
    def _arm_rto(self, reset: bool = False) -> None:
        """Ensure the retransmission timer is armed.

        ``reset=True`` restarts the timer (new cumulative ACK arrived —
        RFC 6298 rule 5.3).  With ``reset=False`` an already-armed timer
        is left alone: duplicate ACKs and new transmissions must NOT
        push the timeout out, or a lost fast-retransmission deadlocks
        behind an endless dupack stream.
        """
        armed = self.state == SYN_SENT or self.bytes_in_flight > 0
        if self._rto_event is not None:
            if not reset:
                return
            if armed:
                # Re-arm in place: no cancelled entry left in the heap.
                self._rto_event = self.sim.reschedule(
                    self._rto_event, self.rto * self._backoff)
            else:
                self._rto_event.cancel()
                self._rto_event = None
        elif armed:
            self._rto_event = self.sim.schedule(self.rto * self._backoff, self._on_rto)

    def _on_rto(self) -> None:
        self._rto_event = None
        if self.state == SYN_SENT:
            self._send_ctrl("syn")
            self._backoff = min(self._backoff * 2, 64)
            self._arm_rto()
            return
        if self.bytes_in_flight <= 0:
            return
        # Timeout: collapse to one segment, restart from snd_una.
        self.timeouts += 1
        self.ssthresh = max(self.bytes_in_flight // 2, 2 * self.mss)
        self.cwnd = self.mss
        self.phase = SLOW_START
        self.dup_acks = 0
        self.snd_nxt = self.snd_una
        self._record_cwnd()
        self._backoff = min(self._backoff * 2, 64)
        self._try_send()

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        kind = packet.kind
        if kind == "syn":
            # Passive open (listener spawns us before first packet).
            self.state = ESTABLISHED
            self._send_ctrl("syn-ack")
        elif kind == "syn-ack":
            if self.state == SYN_SENT:
                if self._rto_event is not None:
                    self._rto_event.cancel()
                    self._rto_event = None
                self._backoff = 1
                self._establish()
        elif kind == "tcp-data":
            self._on_data_segment(packet)
        elif kind == "tcp-ack":
            self._on_ack(packet)

    # --- receiver side ---
    def _on_data_segment(self, packet: Packet) -> None:
        if self.state != ESTABLISHED:
            self.state = ESTABLISHED  # implicit accept on passive side
        seq = packet.payload["seq"]
        length = packet.payload["len"]
        in_order = seq == self._rcv.next
        if seq >= self._rcv.next:
            for advance in self._rcv.add(seq, length):
                self.bytes_delivered += advance
                if self.on_data is not None:
                    self.on_data(advance)
        if in_order:
            self._ack_pending += 1
            if self._ack_pending >= 2:
                self._emit_ack()
            elif self._ack_event is None:
                self._ack_event = self.sim.schedule(0.04, self._emit_ack)
        else:
            # Out-of-order: ACK immediately so the
            # sender sees dupacks quickly.
            self._emit_ack()

    def _emit_ack(self) -> None:
        if self._ack_event is not None:
            self._ack_event.cancel()
            self._ack_event = None
        self._ack_pending = 0
        packet = self._packet(
            self.dst, self.dst_port, ACK_SIZE, kind="tcp-ack", flow=self.flow, ack=self._rcv.next
        )
        self.host.send(packet)

    # --- sender side ---
    def _on_ack(self, packet: Packet) -> None:
        ack = packet.payload["ack"]
        if ack > self.snd_una:
            self._on_new_ack(ack)
        elif ack == self.snd_una and self.bytes_in_flight > 0:
            self._on_dup_ack()
        self._try_send()
        if self.transfer_complete and self.on_complete is not None:
            callback, self.on_complete = self.on_complete, None
            callback()

    def _on_new_ack(self, ack: int) -> None:
        acked = ack - self.snd_una
        # RTT sample per Karn: only for never-retransmitted segments.
        sent = self._send_times.get(self.snd_una)
        if sent is not None and not sent[1]:
            self.rtt.sample(self.sim.now - sent[0])
            self.rto = max(MIN_RTO, self.rtt.srtt + 4 * self.rtt.rttvar)
            self._backoff = 1
        # No seq below snd_una is sent again: the acked ones top the heap.
        sent_seqs = self._sent_seqs
        while sent_seqs and sent_seqs[0] < ack:
            del self._send_times[heapq.heappop(sent_seqs)]
        self.snd_una = ack
        if self.snd_nxt < ack:
            self.snd_nxt = ack

        if self.phase == FAST_RECOVERY:
            if ack >= self.recover:
                # Full ACK: leave fast recovery.
                self.cwnd = self.ssthresh
                self.phase = CONG_AVOID
                self.dup_acks = 0
            else:
                # Partial ACK (NewReno): retransmit next hole, deflate.
                self._send_segment(self.snd_una, min(self.mss, self.snd_nxt - self.snd_una),
                                   retransmit=True)
                self.cwnd = max(self.mss, self.cwnd - acked + self.mss)
        else:
            self.dup_acks = 0
            if self.phase == SLOW_START:
                self.cwnd += min(acked, self.mss)
                if self.cwnd >= self.ssthresh:
                    self.phase = CONG_AVOID
            else:
                self.cwnd += self.mss * self.mss / self.cwnd
        self._record_cwnd()
        self._arm_rto(reset=True)

    def _on_dup_ack(self) -> None:
        self.dup_acks += 1
        if self.phase == FAST_RECOVERY:
            self.cwnd += self.mss
            self._record_cwnd()
            return
        if self.dup_acks == 3:
            self.ssthresh = max(self.bytes_in_flight // 2, 2 * self.mss)
            self.recover = self.snd_nxt
            self.cwnd = self.ssthresh + 3 * self.mss
            self.phase = FAST_RECOVERY
            self._send_segment(self.snd_una, min(self.mss, self.snd_nxt - self.snd_una),
                               retransmit=True)
            self._record_cwnd()

    def _record_cwnd(self) -> None:
        self.cwnd_trace.append((self.sim.now, self.cwnd))


class TcpListener(SocketBase):
    """Accepts incoming connections: spawns a passive TcpConnection per peer.

    ``on_accept(conn)`` is invoked with the new server-side endpoint so
    the application can attach ``on_data`` / start responding.
    """

    def __init__(
        self,
        host: Host,
        port: int,
        on_accept: Optional[Callable[[TcpConnection], None]] = None,
    ) -> None:
        super().__init__(host, port)
        self.on_accept = on_accept
        self._next_port = FIRST_ACCEPT_PORT
        self._conns: Dict[Tuple[str, int], TcpConnection] = {}

    def on_packet(self, packet: Packet) -> None:
        key = (packet.src, packet.src_port)
        conn = self._conns.get(key)
        if conn is None:
            if packet.kind != "syn":
                return  # stray packet for a dead connection
            conn = TcpConnection(self.host, self._alloc_port(), packet.src, packet.src_port)
            conn.state = ESTABLISHED
            self._conns[key] = conn
            if self.on_accept is not None:
                self.on_accept(conn)
            # Answer the SYN from the listener port so the client's
            # syn-ack matcher sees the expected source.
            reply = self._packet(packet.src, packet.src_port, ACK_SIZE, kind="syn-ack")
            self.host.send(reply)
        elif packet.kind == "syn":
            reply = self._packet(packet.src, packet.src_port, ACK_SIZE, kind="syn-ack")
            self.host.send(reply)
        else:
            conn.on_packet(packet)

    def _alloc_port(self) -> int:
        while self.host.is_bound(self._next_port):
            self._next_port += 1
        port = self._next_port
        self._next_port += 1
        return port
