"""QUIC-like transport (Section V-B2), simplified.

The paper lists QUIC as combining "functionalities from TCP, Multipath
TCP, TLS, and HTTP".  The properties relevant to MAR — and implemented
here — are:

- **stream multiplexing without head-of-line blocking**: independent
  streams over one connection; a loss on stream A never stalls stream
  B's delivery (the TCP baseline stalls everything behind the hole);
- **0/1-RTT setup**: a resumed connection sends data immediately;
- connection-level NewReno-style congestion control over UDP;
- per-packet (not per-byte) loss detection with fast retransmit on
  packet-number gaps and a probe timeout.

Packets carry (packet_number, stream_id, stream_offset, length); ACK
frames carry the largest received number, the lowest one they cover and
the gaps between (at most 64), close to the real wire image but
unserialized.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Set, Tuple

from repro.simnet.node import Host
from repro.simnet.packet import IP_UDP_HEADER, Packet
from repro.transport.base import Reassembly, RttEstimator, SocketBase

QUIC_HEADER = 20
MAX_DATAGRAM = 1200
ACK_SIZE = 64
PTO_MIN = 0.05


class QuicStream:
    """Receive-side state of one stream: in-order delivery per stream."""

    def __init__(self, stream_id: int) -> None:
        self.stream_id = stream_id
        self.segments = Reassembly()
        self.delivered = 0

    def on_segment(self, offset: int, length: int) -> int:
        """Buffer a segment; returns bytes newly delivered in order."""
        if offset + length <= self.segments.next:
            return 0
        newly = sum(self.segments.add(offset, length))
        self.delivered += newly
        return newly


class QuicConnection(SocketBase):
    """One endpoint of a QUIC-like connection.

    Create both endpoints, point them at each other, then call
    :meth:`connect` on the client (pass ``resumed=True`` for 0-RTT).
    ``on_stream_data(stream_id, nbytes)`` fires as stream bytes are
    delivered in per-stream order.
    """

    def __init__(
        self,
        host: Host,
        port: int,
        dst: str,
        dst_port: int,
        on_stream_data: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        super().__init__(host, port)
        self.dst = dst
        self.dst_port = dst_port
        self.flow = f"quic:{host.name}:{port}"
        self.on_stream_data = on_stream_data
        self.established = False

        # --- sender state ---
        self._next_pn = 0
        self._stream_offsets: Dict[int, int] = {}
        self._pending: Deque[Tuple[int, int, int]] = deque()  # (stream, offset, len)
        #: pn -> (stream, offset, len, sent_at, retransmitted), in pn order
        #: (pns only grow and none is re-inserted): the first is the oldest.
        self._inflight: Dict[int, Tuple[int, int, int, float, bool]] = {}
        self.bytes_in_flight = 0
        self.cwnd = 10 * MAX_DATAGRAM
        self.ssthresh = 1 << 30
        self.rtt = RttEstimator()
        self._pto_event = None
        self.retransmits = 0

        # --- receiver state ---
        self.streams: Dict[int, QuicStream] = {}
        self._received_pns: Set[int] = set()
        self._largest_rx = -1
        self._ack_pending = False

    # ------------------------------------------------------------------
    # Handshake
    # ------------------------------------------------------------------
    def connect(self, resumed: bool = False) -> None:
        """1-RTT handshake, or 0-RTT when resuming a known server."""
        if resumed:
            self.established = True
            self._flush()
        else:
            packet = self._packet(self.dst, self.dst_port, QUIC_HEADER + 48,
                                  kind="quic-initial")
            self.host.send(packet)

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def send_stream(self, stream_id: int, nbytes: int) -> None:
        """Queue bytes on a stream."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        offset = self._stream_offsets.get(stream_id, 0)
        self._stream_offsets[stream_id] = offset + nbytes
        while nbytes > 0:
            chunk = min(nbytes, MAX_DATAGRAM)
            self._pending.append((stream_id, offset, chunk))
            offset += chunk
            nbytes -= chunk
        self._flush()

    # ------------------------------------------------------------------
    # Sending machinery
    # ------------------------------------------------------------------
    def _flush(self) -> None:
        if not self.established:
            return
        while self._pending and self.bytes_in_flight < self.cwnd:
            stream_id, offset, length = self._pending.popleft()
            self._send_segment(stream_id, offset, length, retransmit=False)
        self._arm_pto()

    def _send_segment(self, stream_id: int, offset: int, length: int,
                      retransmit: bool) -> None:
        pn = self._next_pn
        self._next_pn += 1
        self._inflight[pn] = (stream_id, offset, length, self.sim.now, retransmit)
        self.bytes_in_flight += length
        if retransmit:
            self.retransmits += 1
        packet = self._packet(
            self.dst, self.dst_port, length + QUIC_HEADER + IP_UDP_HEADER,
            kind="quic-data",
            flow=self.flow,
            pn=pn, stream=stream_id, offset=offset, len=length,
        )
        self.host.send(packet)

    def _arm_pto(self) -> None:
        if self._inflight:
            pto = max(PTO_MIN, (self.rtt.srtt or 0.1) * 2 + 4 * self.rtt.rttvar)
            if self._pto_event is not None:
                # Re-arm in place: no cancelled entry left in the heap.
                self._pto_event = self.sim.reschedule(self._pto_event, pto)
            else:
                self._pto_event = self.sim.schedule(pto, self._on_pto)
        elif self._pto_event is not None:
            self._pto_event.cancel()
            self._pto_event = None

    def _on_pto(self) -> None:
        """Probe timeout: retransmit the oldest packet, collapse cwnd."""
        self._pto_event = None
        if not self._inflight:
            return
        stream_id, offset, length = self._forget(next(iter(self._inflight)))
        self.ssthresh = max(self.cwnd // 2, 2 * MAX_DATAGRAM)
        self.cwnd = 2 * MAX_DATAGRAM
        self._send_segment(stream_id, offset, length, retransmit=True)
        self._arm_pto()

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        kind = packet.kind
        if kind == "quic-initial":
            self.established = True
            reply = self._packet(packet.src, packet.src_port,
                                 QUIC_HEADER + 48, kind="quic-accept")
            self.host.send(reply)
        elif kind == "quic-accept":
            if not self.established:
                self.established = True
                self._flush()
        elif kind == "quic-data":
            self._on_data(packet)
        elif kind == "quic-ack":
            self._on_ack(packet)

    def _on_data(self, packet: Packet) -> None:
        self.established = True
        pn = packet.payload["pn"]
        if pn in self._received_pns:
            return
        self._received_pns.add(pn)
        self._largest_rx = max(self._largest_rx, pn)
        stream_id = packet.payload["stream"]
        stream = self.streams.setdefault(stream_id, QuicStream(stream_id))
        newly = stream.on_segment(packet.payload["offset"], packet.payload["len"])
        if newly and self.on_stream_data is not None:
            self.on_stream_data(stream_id, newly)
        if not self._ack_pending:
            self._ack_pending = True
            self.sim.schedule(0.005, self._send_ack, packet.src, packet.src_port)

    def _send_ack(self, peer: str, peer_port: int) -> None:
        """ACK ``[first, largest]`` minus the gaps listed: the 64 highest,
        with ``first`` above any gap left out, so none reads as received."""
        self._ack_pending = False
        first = max(0, self._largest_rx - 256)
        missing = [pn for pn in range(first, self._largest_rx + 1)
                   if pn not in self._received_pns]
        if len(missing) > 64:
            first = missing[-65] + 1
            missing = missing[-64:]
        packet = self._packet(peer, peer_port, ACK_SIZE, kind="quic-ack",
                              largest=self._largest_rx, first=first, missing=missing)
        self.host.send(packet)

    # ------------------------------------------------------------------
    def _forget(self, pn: int) -> Tuple[int, int, int]:
        """Drop ``pn`` from flight; return its (stream, offset, len)."""
        stream_id, offset, length, _, _ = self._inflight.pop(pn)
        self.bytes_in_flight -= length
        return stream_id, offset, length

    def _on_ack(self, packet: Packet) -> None:
        largest = packet.payload["largest"]
        first = packet.payload["first"]
        missing = set(packet.payload["missing"])
        # RTT from the largest pn only, when this ACK is its first (RFC
        # 9002 §5.1): an older pn acknowledged late would add its wait.
        sent = self._inflight.get(largest)
        if sent is not None and not sent[4]:
            self.rtt.sample(self.sim.now - sent[3])
        acked_bytes = 0
        for pn in [p for p in self._inflight if first <= p <= largest and p not in missing]:
            acked_bytes += self._forget(pn)[2]
        if acked_bytes:
            if self.cwnd < self.ssthresh:
                self.cwnd += acked_bytes                      # slow start
            else:
                self.cwnd += MAX_DATAGRAM * acked_bytes // self.cwnd
        # Fast retransmit: nothing left in flight up to the largest was
        # acknowledged, so the oldest is lost once it is 3+ below it.
        if self._inflight:
            oldest = next(iter(self._inflight))
            if oldest <= largest - 3:
                stream_id, offset, length = self._forget(oldest)
                self.ssthresh = max(self.cwnd // 2, 2 * MAX_DATAGRAM)
                self.cwnd = self.ssthresh
                self._send_segment(stream_id, offset, length, retransmit=True)
        self._flush()

    # ------------------------------------------------------------------
    def stream_delivered(self, stream_id: int) -> int:
        stream = self.streams.get(stream_id)
        return stream.delivered if stream else 0
