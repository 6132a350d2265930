"""Transport protocols over the simnet substrate.

- :class:`~repro.transport.udp.UdpSocket` — plain datagram service.
- :class:`~repro.transport.tcp.TcpConnection` — NewReno TCP with slow
  start, congestion avoidance, fast retransmit/recovery, RTO and
  delayed ACKs; the baseline the paper's Figures 3 and 4 compare
  against.
- :class:`~repro.transport.mptcp.MptcpSender` — multipath TCP with
  subflow scheduling and handover reinjection (Section V-B1).
- :class:`~repro.transport.quic.QuicConnection` — QUIC-like streams
  over UDP: 0/1-RTT setup, no cross-stream head-of-line blocking
  (Section V-B2).
- :class:`~repro.transport.rsvp.ReservationTable` — RSVP-style per-flow
  guaranteed rates with admission control (Section V-A1).
"""

from repro.transport.base import SocketBase
from repro.transport.udp import UdpSocket
from repro.transport.tcp import TcpConnection, TcpListener
from repro.transport.mptcp import MptcpReceiver, MptcpSender
from repro.transport.quic import QuicConnection, QuicStream
from repro.transport.rsvp import AdmissionError, ReservationTable, ReservedQueue

__all__ = [
    "SocketBase",
    "UdpSocket",
    "TcpConnection",
    "TcpListener",
    "MptcpSender",
    "MptcpReceiver",
    "QuicConnection",
    "QuicStream",
    "ReservationTable",
    "ReservedQueue",
    "AdmissionError",
]
