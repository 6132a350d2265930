"""Topology container: builds nodes, links and routing tables.

:class:`Network` is a convenience layer over the raw node/link objects:
it tracks every node and link, computes static shortest-path routes
(delay-weighted Dijkstra), and offers path inspection helpers used by
benchmarks (minimum RTT, bottleneck rate).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.simnet.engine import Simulator
from repro.simnet.link import DuplexLink, Link
from repro.simnet.node import Host, Node, Router
from repro.simnet.queues import QueueDiscipline


class Network:
    """A collection of nodes and links over one simulator."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_host(self, name: str) -> Host:
        return self._register(Host(self.sim, name))

    def add_router(self, name: str) -> Router:
        return self._register(Router(self.sim, name))

    def _register(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        return node

    def __getitem__(self, name: str) -> Node:
        return self.nodes[name]

    def add_link(
        self,
        a: str,
        b: str,
        rate_bps: float,
        delay: float = 0.0,
        loss: float = 0.0,
        queue: Optional[QueueDiscipline] = None,
    ) -> Link:
        """Add one unidirectional, jitter-free link from ``a`` to ``b``."""
        link = Link(self.sim, self.nodes[a], self.nodes[b], rate_bps, delay, 0.0, loss, queue)
        self.links.append(link)
        return link

    def add_duplex(
        self,
        a: str,
        b: str,
        rate_down_bps: float,
        rate_up_bps: Optional[float] = None,
        delay: float = 0.0,
        jitter: float = 0.0,
        loss: float = 0.0,
        queue_down: Optional[QueueDiscipline] = None,
        queue_up: Optional[QueueDiscipline] = None,
    ) -> DuplexLink:
        """Add a duplex (possibly asymmetric) link between ``a`` and ``b``.

        "Down" carries ``a``→``b`` traffic, "up" carries ``b``→``a``.
        """
        duplex = DuplexLink(
            self.sim,
            self.nodes[a],
            self.nodes[b],
            rate_down_bps,
            rate_up_bps,
            delay,
            jitter,
            loss,
            queue_down,
            queue_up,
        )
        self.links.extend([duplex.down, duplex.up])
        return duplex

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _successors(self) -> Dict[str, Dict[str, Tuple[float, Link]]]:
        """``{node: {next node: (weight, link)}}``, in link-insertion order.

        A later parallel link between the same pair replaces the earlier
        one's weight and link but keeps its position.
        """
        succ: Dict[str, Dict[str, Tuple[float, Link]]] = {name: {} for name in self.nodes}
        for link in self.links:
            # Serialization of one MTU gives a tiny rate-aware tiebreak.
            weight = link.delay + (1514 * 8) / link.rate_bps
            succ[link.src.name][link.dst.name] = (weight, link)
        return succ

    @staticmethod
    def _shortest_path_tree(
        succ: Dict[str, Dict[str, Tuple[float, Link]]], source: str
    ) -> Dict[str, Optional[str]]:
        """Dijkstra from ``source``: each reachable node's predecessor.

        Keys are in settling order (``source`` first, mapped to None).
        The tie-break decides routes, so it is part of the behaviour
        contract (networkx is the oracle in tests/test_node_network.py):
        a node keeps the first predecessor that reached it at its final
        distance (strict ``<`` relaxation), and equal distances settle
        in the order they were pushed.
        """
        best = {source: 0.0}
        pred: Dict[str, Optional[str]] = {source: None}
        settled: Dict[str, Optional[str]] = {}
        pushed = 0
        fringe: List[Tuple[float, int, str]] = [(0.0, pushed, source)]
        while fringe:
            dist, _, node = heappop(fringe)
            if node in settled:
                continue
            settled[node] = pred[node]
            for nxt, (weight, _link) in succ[node].items():
                through = dist + weight
                if nxt not in settled and (nxt not in best or through < best[nxt]):
                    best[nxt] = through
                    pred[nxt] = node
                    pushed += 1
                    heappush(fringe, (through, pushed, nxt))
        return settled

    def build_routes(self) -> None:
        """Fill every node's routing table with delay-weighted shortest paths."""
        succ = self._successors()
        for src_name, node in self.nodes.items():
            first_hop: Dict[str, Link] = {}
            for dst_name, via in self._shortest_path_tree(succ, src_name).items():
                if via is None:
                    continue
                hop = succ[src_name][dst_name][1] if via == src_name else first_hop[via]
                first_hop[dst_name] = hop
                node.add_route(dst_name, hop)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def path_links(self, a: str, b: str) -> List[Link]:
        """The links on the current route from ``a`` to ``b``.

        Raises :class:`KeyError` for a node the network does not have
        and :class:`ValueError` when ``b`` cannot be reached from ``a``.
        """
        for name in (a, b):
            if name not in self.nodes:
                raise KeyError(name)
        succ = self._successors()
        pred = self._shortest_path_tree(succ, a)
        if b not in pred:
            raise ValueError(f"no path from {a!r} to {b!r}")
        links: List[Link] = []
        node = b
        while pred[node] is not None:
            links.append(succ[pred[node]][node][1])
            node = pred[node]
        links.reverse()
        return links

    def base_rtt(self, a: str, b: str, packet_size: int = 1514) -> float:
        """Unloaded round-trip time between two nodes.

        Sums propagation plus one serialization of ``packet_size`` per
        hop in both directions — the floor any transport can observe.
        """
        total = 0.0
        for link in self.path_links(a, b) + self.path_links(b, a):
            total += link.delay + (packet_size * 8) / link.rate_bps
        return total
