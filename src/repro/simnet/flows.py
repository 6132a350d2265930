"""Application-level traffic generators and sinks.

These run directly over the packet layer (no transport) and are used to
load links in benchmarks: a constant-bit-rate stream (sensor data, cross
traffic, a UDP flow that does not back off) and a sink that records
per-flow statistics.
"""

from __future__ import annotations

from typing import Optional

from repro.simnet.node import Host
from repro.simnet.packet import Packet
from repro.simnet.trace import FlowStats


class PacketSink:
    """Terminates packets on a host port and records per-flow statistics.

    When ``echo_port`` is set, every received data packet triggers a
    small reply packet back to the sender — enough to measure RTT
    without a full transport.
    """

    def __init__(self, host: Host, port: int, echo_port: Optional[int] = None,
                 echo_size: int = 64) -> None:
        self.host = host
        self.port = port
        self.echo_port = echo_port
        self.echo_size = echo_size
        self.stats = FlowStats()
        host.bind(port, self)

    def on_packet(self, packet: Packet) -> None:
        self.stats.record(packet, self.host.sim.now)
        if self.echo_port is not None:
            reply = Packet(
                src=self.host.name,
                dst=packet.src,
                size=self.echo_size,
                src_port=self.port,
                dst_port=self.echo_port,
                kind="echo",
                payload={"echo_of": packet.uid, "orig_created": packet.created_at},
            )
            self.host.send(reply)


class CBRSource:
    """Constant-bit-rate source: one packet every ``size*8/rate`` seconds."""

    def __init__(
        self,
        host: Host,
        dst: str,
        dst_port: int,
        rate_bps: float,
        packet_size: int = 1200,
        src_port: int = 0,
        start: float = 0.0,
        stop: Optional[float] = None,
        flow: str = "",
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        self.rate_bps = rate_bps
        self.host = host
        self.sim = host.sim
        self.dst = dst
        self.dst_port = dst_port
        self.src_port = src_port
        self.packet_size = packet_size
        self.stop = stop
        self.flow = flow
        self.sim.schedule_at(max(start, self.sim.now), self._tick)

    def _tick(self) -> None:
        if self.stop is not None and self.sim.now >= self.stop:
            return
        self.host.send(Packet(
            src=self.host.name,
            dst=self.dst,
            size=self.packet_size,
            src_port=self.src_port,
            dst_port=self.dst_port,
            flow=self.flow,
        ))
        self.sim.schedule((self.packet_size * 8) / self.rate_bps, self._tick)
