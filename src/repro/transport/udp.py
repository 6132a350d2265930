"""UDP: unreliable, unordered datagram service.

MARTP (Section VI-H: "the actual implementation of this protocol may be
done on top of UDP at the application level") runs entirely over this
socket.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.simnet.node import Host
from repro.simnet.packet import IP_UDP_HEADER, Packet
from repro.transport.base import SocketBase


class UdpSocket(SocketBase):
    """A datagram socket.

    ``on_receive`` is called with each arriving packet.  ``sendto``
    accounts for IP/UDP header overhead on the wire.
    """

    def __init__(
        self,
        host: Host,
        port: int,
        on_receive: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        super().__init__(host, port)
        self.on_receive = on_receive

    def sendto(
        self,
        dst: str,
        dst_port: int,
        size: int,
        kind: str = "data",
        flow: str = "",
        **payload,
    ) -> Packet:
        """Send ``size`` payload bytes (+28 B header) to ``dst:dst_port``."""
        if self.closed:
            raise RuntimeError("socket is closed")
        host = self.host
        packet = Packet(host.name, dst, size + IP_UDP_HEADER, self.port, dst_port,
                        kind, flow, payload, self.sim.now)
        host.send(packet)
        return packet

    def on_packet(self, packet: Packet) -> None:
        if self.on_receive is not None:
            self.on_receive(packet)
