"""Common socket plumbing shared by every transport."""

from __future__ import annotations


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
