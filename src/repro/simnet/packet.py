"""Packet model.

Packets carry an addressing 4-tuple (src/dst node name and port), a size
in bytes, a ``kind`` tag used by transports (``"data"``, ``"ack"``,
``"feedback"`` ...), and an opaque ``payload`` mapping for protocol
headers.  The simulator never serializes payloads; ``size`` alone
determines transmission time, so protocols must account for their own
header overhead in ``size``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Dict, Optional

#: Conventional per-packet header overhead (IP + UDP), in bytes.
IP_UDP_HEADER = 28

#: Conventional per-packet header overhead (IP + TCP), in bytes.
IP_TCP_HEADER = 40


class Packet:
    """A simulated packet.

    Attributes
    ----------
    src, dst:
        Node names of the endpoints.
    src_port, dst_port:
        Transport demultiplexing ports.
    size:
        Wire size in bytes (including any header overhead the sending
        transport accounts for).
    kind:
        Free-form tag consumed by transports ("data", "ack", ...).
    flow:
        Flow label used by FQ-CoDel hashing and tracing.
    payload:
        Protocol headers / application data (never serialized).
    created_at:
        Simulation time at which the packet entered the network.
    enqueued_at:
        When a queue last took the packet (0.0 until one does).
    """

    # One is built per datagram, so construction is a single
    # hand-written frame (no dataclass default factories or
    # ``__post_init__`` hop) and the fields are slot-backed.
    __slots__ = (
        "src", "dst", "size", "src_port", "dst_port", "kind", "flow",
        "payload", "created_at", "enqueued_at",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        size: int,
        src_port: int = 0,
        dst_port: int = 0,
        kind: str = "data",
        flow: str = "",
        payload: Optional[Dict[str, Any]] = None,
        created_at: float = 0.0,
    ) -> None:
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        self.src = src
        self.dst = dst
        self.size = size
        self.src_port = src_port
        self.dst_port = dst_port
        self.kind = kind
        self.flow = flow or f"{src}:{src_port}->{dst}:{dst_port}"
        self.payload = {} if payload is None else payload
        self.created_at = created_at
        self.enqueued_at = 0.0

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return _fields(self) == _fields(other)
        return NotImplemented

    # Field-wise equality on a mutable object: unhashable, as before.
    __hash__ = None  # type: ignore[assignment]

    @property
    def bits(self) -> int:
        """Wire size in bits."""
        return self.size * 8

    def age(self, now: float) -> float:
        """Seconds since the packet was created."""
        return now - self.created_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Packet {self.kind} {self.src}:{self.src_port}->"
            f"{self.dst}:{self.dst_port} {self.size}B>"
        )


_fields = attrgetter(*Packet.__slots__)

