"""Application-level traffic generators and sinks.

These run directly over the packet layer (no transport) and are used to
load links in benchmarks: a constant-bit-rate stream (sensor data, cross
traffic, a UDP flow that does not back off) and a sink that records
per-flow statistics.
"""

from __future__ import annotations

from repro.simnet.node import Host
from repro.simnet.packet import Packet
from repro.simnet.trace import FlowStats


class PacketSink:
    """Terminates packets on a host port and records per-flow statistics."""

    def __init__(self, host: Host, port: int) -> None:
        self.host = host
        self.port = port
        self.stats = FlowStats()
        host.bind(port, self)

    def on_packet(self, packet: Packet) -> None:
        self.stats.record(packet, self.host.sim.now)


class CBRSource:
    """Constant-bit-rate source: one packet every ``size*8/rate`` seconds,
    from port 0, starting now and never stopping."""

    def __init__(
        self,
        host: Host,
        dst: str,
        dst_port: int,
        rate_bps: float,
        packet_size: int = 1200,
        flow: str = "",
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        self.rate_bps = rate_bps
        self.host = host
        self.sim = host.sim
        self.dst = dst
        self.dst_port = dst_port
        self.packet_size = packet_size
        self.flow = flow
        self.sim.schedule_at(self.sim.now, self._tick)

    def _tick(self) -> None:
        self.host.send(Packet(
            src=self.host.name,
            dst=self.dst,
            size=self.packet_size,
            dst_port=self.dst_port,
            flow=self.flow,
        ))
        self.sim.schedule((self.packet_size * 8) / self.rate_bps, self._tick)
