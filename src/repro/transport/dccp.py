"""DCCP-like transport: unreliable datagrams with TCP-friendly rate control.

Section V-B3 of the paper surveys DCCP ("congestion control without
reliable in-order delivery; new data is always preferred to former
data").  This module implements that service model with a TFRC-style
(RFC 5348) sender: the receiver reports loss-event rate and receive
rate once per RTT, and the sender caps its rate at the TCP throughput
equation.  It is one of the baselines MARTP is compared against in the
ablation benchmarks.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

from repro.simnet.node import Host
from repro.simnet.packet import IP_UDP_HEADER, Packet
from repro.transport.base import SocketBase

FEEDBACK_SIZE = 64


def tcp_friendly_rate(segment_size: int, rtt: float, loss_event_rate: float) -> float:
    """TCP throughput equation of RFC 5348 (bytes/second).

    ``X = s / (R*sqrt(2bp/3) + t_RTO*(3*sqrt(3bp/8))*p*(1+32p^2))`` with
    ``b = 1`` and ``t_RTO = 4R``.
    """
    if rtt <= 0:
        return float("inf")
    p = max(loss_event_rate, 1e-8)
    t_rto = 4 * rtt
    denom = rtt * math.sqrt(2 * p / 3) + t_rto * (3 * math.sqrt(3 * p / 8)) * p * (1 + 32 * p * p)
    return segment_size / denom


class DccpSocket(SocketBase):
    """An endpoint of a DCCP-like flow.

    The sending side calls :meth:`start` with an application callback
    ``next_datagram() -> Optional[int]`` returning the size of the next
    datagram to send (or None to skip this slot); the socket clocks
    transmissions out at the TFRC-allowed rate.  The receiving side
    just needs to exist (it auto-generates feedback).
    """

    def __init__(
        self,
        host: Host,
        port: int,
        dst: str = "",
        dst_port: int = 0,
        segment_size: int = 1200,
        initial_rate_bps: float = 500_000.0,
        on_receive: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        super().__init__(host, port)
        self.dst = dst
        self.dst_port = dst_port
        self.flow = f"dccp:{host.name}:{port}"
        self.segment_size = segment_size
        self.on_receive = on_receive
        self.allowed_rate_bps = initial_rate_bps
        self.rtt = 0.1
        self._next_datagram: Optional[Callable[[], Optional[int]]] = None
        self._seq = 0
        self._running = False
        # receiver state
        self._rcv_max_seq = -1
        self._rcv_count = 0
        self._rcv_bytes = 0
        self._loss_events = 0
        self._last_loss_seq = -1
        self._feedback_timer_armed = False
        self._window_start = 0.0
        # stats
        self.datagrams_sent = 0
        self.datagrams_received = 0
        self.rate_trace: List[Tuple[float, float]] = []

    # ------------------------------------------------------------------
    # Sender
    # ------------------------------------------------------------------
    def start(self, next_datagram: Callable[[], Optional[int]]) -> None:
        """Begin rate-clocked transmission."""
        if not self.dst:
            raise RuntimeError("sender needs a destination")
        self._next_datagram = next_datagram
        if not self._running:
            self._running = True
            self._send_tick()

    def stop(self) -> None:
        self._running = False

    def _send_tick(self) -> None:
        if not self._running or self.closed:
            return
        size = self._next_datagram() if self._next_datagram else None
        sent_size = self.segment_size
        if size is not None:
            sent_size = size
            packet = self._packet(
                self.dst,
                self.dst_port,
                size + IP_UDP_HEADER,
                kind="dccp-data",
                flow=self.flow,
                seq=self._seq,
                sent_at=self.sim.now,
            )
            self._seq += 1
            self.datagrams_sent += 1
            self.host.send(packet)
        interval = (sent_size * 8) / max(self.allowed_rate_bps, 1000.0)
        self.sim.schedule(interval, self._send_tick)

    # ------------------------------------------------------------------
    # Receiver
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        if packet.kind == "dccp-data":
            self._on_data(packet)
        elif packet.kind == "dccp-feedback":
            self._on_feedback(packet)

    def _on_data(self, packet: Packet) -> None:
        self.datagrams_received += 1
        seq = packet.payload["seq"]
        if seq > self._rcv_max_seq + 1 and seq - 1 > self._last_loss_seq:
            # A new gap, at most one loss event per window of data.
            self._loss_events += 1
            self._last_loss_seq = seq
        self._rcv_max_seq = max(self._rcv_max_seq, seq)
        self._rcv_count += 1
        self._rcv_bytes += packet.size
        if self.on_receive is not None:
            self.on_receive(packet)
        if not self._feedback_timer_armed:
            self._feedback_timer_armed = True
            self._window_start = self.sim.now
            self.sim.schedule(max(self.rtt, 0.02), self._send_feedback, packet.src,
                              packet.src_port)

    def _send_feedback(self, peer: str, peer_port: int) -> None:
        self._feedback_timer_armed = False
        elapsed = max(self.sim.now - self._window_start, 1e-6)
        expected = self._rcv_max_seq + 1
        loss_rate = self._loss_events / max(expected, 1)
        recv_rate = self._rcv_bytes * 8 / elapsed
        packet = self._packet(
            peer,
            peer_port,
            FEEDBACK_SIZE,
            kind="dccp-feedback",
            loss_event_rate=loss_rate,
            recv_rate_bps=recv_rate,
            echo_ts=self.sim.now,
        )
        self.host.send(packet)
        self._rcv_bytes = 0
        self._window_start = self.sim.now
        self._loss_events = max(0, self._loss_events - 1)  # age out old events

    def _on_feedback(self, packet: Packet) -> None:
        loss = packet.payload["loss_event_rate"]
        recv_rate = packet.payload["recv_rate_bps"]
        # RTT from the feedback round trip (coarse — no per-packet echo).
        sample = max(self.sim.now - packet.created_at, 1e-4) * 2
        self.rtt = 0.9 * self.rtt + 0.1 * sample
        if loss > 0:
            x_calc = tcp_friendly_rate(self.segment_size, self.rtt, loss) * 8
            self.allowed_rate_bps = max(min(x_calc, 2 * recv_rate), 8 * self.segment_size)
        else:
            # No loss: at most double per feedback interval (slow-start-like).
            self.allowed_rate_bps = max(self.allowed_rate_bps, min(
                2 * recv_rate, self.allowed_rate_bps * 2))
        self.rate_trace.append((self.sim.now, self.allowed_rate_bps))
