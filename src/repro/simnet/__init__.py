"""Discrete-event network simulation substrate.

Everything in the reproduction runs on top of this package: an event
engine (:mod:`~repro.simnet.engine`), packets, links with configurable
rate/delay/jitter/loss, pluggable queue disciplines (DropTail, CoDel,
FQ-CoDel), hosts and routers with static shortest-path routing, traffic
generators, and per-flow tracing.
"""

from repro.simnet.engine import Event, Simulator
from repro.simnet.packet import Packet
from repro.simnet.queues import CoDelQueue, DropTailQueue, FQCoDelQueue, QueueDiscipline
from repro.simnet.link import Link, DuplexLink, VariableRateLink
from repro.simnet.replay import TraceReplayLink, commute_trace
from repro.simnet.node import Host, Node, Router
from repro.simnet.network import Network
from repro.simnet.faults import FaultEvent, FaultInjector, FaultPlan
from repro.simnet.flows import CBRSource, PacketSink
from repro.simnet.trace import FlowStats

__all__ = [
    "Event",
    "Simulator",
    "Packet",
    "QueueDiscipline",
    "DropTailQueue",
    "CoDelQueue",
    "FQCoDelQueue",
    "Link",
    "DuplexLink",
    "VariableRateLink",
    "TraceReplayLink",
    "commute_trace",
    "Node",
    "Host",
    "Router",
    "Network",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "CBRSource",
    "PacketSink",
    "FlowStats",
]
