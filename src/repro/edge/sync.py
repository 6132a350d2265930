"""Inter-server synchronization for distributed offloading (§VI-E).

"The question of inter-server synchronization remains with the need for
n-way synchronization (n being the number of servers)."  This module
models that cost over simnet: a :class:`SyncGroup` of server hosts
replicates every state update to all peers and reports

- **consistency lag**: how long until *all* replicas hold an update;
- **sync traffic**: the n·(n−1) overhead bytes per update;

which the E7-style analysis uses to weigh "more, closer servers" (lower
user RTT) against "more sync" (higher replication cost and staleness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.simnet.network import Network
from repro.simnet.packet import Packet
from repro.transport.udp import UdpSocket

SYNC_PORT = 7700


@dataclass
class UpdateRecord:
    """Replication state of one update."""

    update_id: int
    origin: str
    size: int
    issued_at: float
    acked_by: set = field(default_factory=set)
    completed_at: Optional[float] = None

    def lag(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.issued_at


#: Bytes of one replicated state update.
SYNC_UPDATE_BYTES = 800


class SyncGroup:
    """Full-mesh state replication among server hosts."""

    def __init__(self, net: Network, servers: List[str]) -> None:
        if len(servers) < 2:
            raise ValueError("a sync group needs at least two servers")
        self.net = net
        self.sim = net.sim
        self.servers = list(servers)
        self._sockets: Dict[str, UdpSocket] = {
            name: UdpSocket(net[name], SYNC_PORT,
                            on_receive=self._make_receiver(name))
            for name in servers
        }
        self._next_id = 0
        self.updates: Dict[int, UpdateRecord] = {}
        self.sync_bytes_sent = 0

    # ------------------------------------------------------------------
    def publish(self, origin: str) -> int:
        """Originate a ``SYNC_UPDATE_BYTES`` update at ``origin``;
        replicate to all peers."""
        if origin not in self._sockets:
            raise KeyError(f"{origin} is not in the sync group")
        update_id = self._next_id
        self._next_id += 1
        size = SYNC_UPDATE_BYTES
        record = UpdateRecord(update_id=update_id, origin=origin, size=size,
                              issued_at=self.sim.now)
        record.acked_by.add(origin)
        self.updates[update_id] = record
        socket = self._sockets[origin]
        for peer in self.servers:
            if peer == origin:
                continue
            socket.sendto(peer, SYNC_PORT, size, kind="sync-update",
                          update=update_id, origin=origin)
            self.sync_bytes_sent += size
        if len(self.servers) == 1:
            record.completed_at = self.sim.now
        return update_id

    def _make_receiver(self, name: str):
        def _on_packet(packet: Packet) -> None:
            if packet.kind != "sync-update":
                return
            record = self.updates.get(packet.payload["update"])
            if record is None:
                return
            record.acked_by.add(name)
            if len(record.acked_by) == len(self.servers) and record.completed_at is None:
                record.completed_at = self.sim.now
        return _on_packet

    # ------------------------------------------------------------------
    def consistency_lags(self) -> List[float]:
        return [r.lag() for r in self.updates.values() if r.lag() is not None]

    def mean_lag(self) -> float:
        lags = self.consistency_lags()
        return math.fsum(lags) / len(lags) if lags else float("inf")

    def incomplete(self) -> int:
        return sum(1 for r in self.updates.values() if r.completed_at is None)

    def overhead_bytes_per_update(self) -> float:
        if not self.updates:
            return 0.0
        return self.sync_bytes_sent / len(self.updates)
