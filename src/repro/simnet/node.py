"""Nodes: hosts and routers.

A :class:`Node` owns egress interfaces (links) and a static routing
table mapping destination node names to one of those links.  Hosts
additionally demultiplex packets addressed to them to bound transport
protocols by destination port.  Routing tables are normally filled by
:meth:`repro.simnet.network.Network.build_routes`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, TYPE_CHECKING

from repro.simnet.engine import Simulator
from repro.simnet.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.link import Link


class PacketHandler(Protocol):
    """Anything that can consume packets delivered to a host port."""

    def on_packet(self, packet: Packet) -> None: ...


class Node:
    """Base network node with interfaces and a static routing table."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.interfaces: List["Link"] = []
        self.routes: Dict[str, "Link"] = {}
        self.packets_unroutable = 0
        #: Crashed nodes (see :mod:`repro.simnet.faults`) drop every
        #: packet delivered or offered for forwarding until restart.
        self.down = False
        self.packets_dropped_down = 0

    def add_interface(self, link: "Link") -> None:
        self.interfaces.append(link)

    def add_route(self, dst: str, link: "Link") -> None:
        if link.src is not self:
            raise ValueError(f"route via a link that does not start at {self.name}")
        self.routes[dst] = link

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Inject a locally generated packet toward its destination."""
        if self.down:
            self.packets_dropped_down += 1
            return False
        if packet.created_at == 0.0:
            packet.created_at = self.sim.now
        link = self.routes.get(packet.dst)
        if link is None:
            self.packets_unroutable += 1
            return False
        return link.send(packet)

    def receive(self, packet: Packet, via: Optional["Link"] = None) -> None:
        """Called by an ingress link when a packet arrives."""
        if self.down:
            self.packets_dropped_down += 1
            return
        if packet.dst == self.name:
            self._deliver_local(packet)
        else:
            link = self.routes.get(packet.dst)
            if link is None:
                self.packets_unroutable += 1
            else:
                link.send(packet)

    def _deliver_local(self, packet: Packet) -> None:
        raise NotImplementedError(f"{type(self).__name__} cannot terminate packets")


class Router(Node):
    """A pure forwarding node; delivering to it locally is an error."""

    def _deliver_local(self, packet: Packet) -> None:
        raise RuntimeError(f"packet addressed to router {self.name}: {packet!r}")


class Host(Node):
    """An end host: binds transport protocols on ports.

    Packets addressed to an unbound port go to ``default_handler`` when
    set, and are counted in :attr:`packets_dropped_no_port` otherwise.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self._ports: Dict[int, PacketHandler] = {}
        self.default_handler: Optional[Callable[[Packet], None]] = None
        self.packets_dropped_no_port = 0

    def bind(self, port: int, handler: PacketHandler) -> None:
        if port in self._ports:
            raise ValueError(f"port {port} already bound on {self.name}")
        self._ports[port] = handler

    def unbind(self, port: int) -> None:
        self._ports.pop(port, None)

    def is_bound(self, port: int) -> bool:
        return port in self._ports

    def _deliver_local(self, packet: Packet) -> None:
        handler = self._ports.get(packet.dst_port)
        if handler is not None:
            handler.on_packet(packet)
        elif self.default_handler is not None:
            self.default_handler(packet)
        else:
            self.packets_dropped_no_port += 1
