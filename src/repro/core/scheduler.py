"""Multipath scheduling (Section VI-D).

A MARTP connection may run over several access paths (typically WiFi
and LTE).  The paper proposes three user-facing policies, motivated by
LTE data pricing:

1. ``WIFI_ONLY_HANDOVER`` — WiFi all the time, LTE only to bridge WiFi
   handover gaps;
2. ``WIFI_PREFERRED`` — WiFi when available, LTE whenever it is not;
3. ``AGGREGATE`` — both simultaneously: latency-critical data on the
   lowest-RTT path, bulk data load-balanced, loss-recovery-class data
   optionally *duplicated* on both paths.

:class:`MultipathScheduler` implements path selection per message;
path quality (RTT, usability) is fed by the protocol's feedback loop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional

from repro.core.traffic import Message, Priority, StreamSpec, TrafficClass


_name = attrgetter("name")
_srtt = attrgetter("srtt")


class MultipathPolicy(enum.Enum):
    WIFI_ONLY_HANDOVER = "wifi-only-4g-handover"
    WIFI_PREFERRED = "wifi-preferred"
    AGGREGATE = "wifi-and-4g"


@dataclass
class PathState:
    """Sender-side view of one path."""

    name: str                      # e.g. "wifi", "lte"
    srtt: float = 0.1
    usable: bool = True            # flip with MultipathScheduler.set_usable
    is_metered: bool = False       # LTE-like: costs user money
    bytes_sent: int = 0
    weight: float = 1.0            # share for load balancing

    def observe_rtt(self, rtt: float) -> None:
        self.srtt = 0.875 * self.srtt + 0.125 * rtt


class MultipathScheduler:
    """Chooses the path (or paths) each message travels."""

    def __init__(self, paths: List[PathState], policy: MultipathPolicy) -> None:
        if not paths:
            raise ValueError("need at least one path")
        self.paths = {p.name: p for p in paths}
        self.policy = policy
        self.duplicate_loss_recovery = policy is MultipathPolicy.AGGREGATE
        self._rr_credit: Dict[str, float] = {}
        self._refresh_candidates()

    # ------------------------------------------------------------------
    def set_usable(self, name: str, usable: bool) -> None:
        """Flip a path up or down — the only writer of ``usable``."""
        self.paths[name].usable = usable
        self._refresh_candidates()

    def _refresh_candidates(self) -> None:
        # The policy and ``is_metered`` never change and ``usable`` changes
        # only in ``set_usable``, so the paths a message may take are
        # worked out here, not once per message.
        candidates = [p for p in self.paths.values() if p.usable]
        if self.policy is not MultipathPolicy.AGGREGATE:
            # WiFi first; metered paths only when no unmetered one is up.
            # Under WIFI_ONLY_HANDOVER that fallback exists only to bridge
            # handover gaps; the caller flips the WiFi path unusable
            # during a gap and back after.
            candidates = [p for p in candidates if not p.is_metered] or candidates
        self._candidates: List[PathState] = candidates
        self._by_name: List[PathState] = sorted(candidates, key=_name)

    def observe_rtt(self, name: str, rtt: float) -> None:
        self.paths[name].observe_rtt(rtt)

    # ------------------------------------------------------------------
    def select(self, spec: StreamSpec, message: Message) -> List[PathState]:
        """Paths this message should be sent on (possibly several).

        An empty list means the message cannot currently be sent (no
        usable path under the active policy).
        """
        candidates = self._candidates
        if not candidates:
            return []
        if (
            self.duplicate_loss_recovery
            and spec.traffic_class is TrafficClass.LOSS_RECOVERY
            and len(candidates) > 1
        ):
            # Duplicate on the two best paths to avoid recovery RTTs.
            chosen = sorted(candidates, key=_srtt)[:2]
        elif spec.deadline <= 0.1 and spec.priority <= Priority.MEDIUM_NO_DISCARD:
            # Latency-critical: the lowest-RTT path.
            chosen = [min(candidates, key=_srtt)]
        else:
            # Smooth weighted round-robin (the nginx algorithm): every
            # call credits each candidate its weight, picks the highest
            # credit, then debits the picked path by the total weight.
            # A lone candidate still makes the round trip: (c + w) - w is
            # not c in the last ulp once a second path has been in play.
            credits = self._rr_credit
            total = 0.0
            best: Optional[PathState] = None
            best_credit = 0.0
            for path in self._by_name:
                weight = max(path.weight, 1e-9)
                total += weight
                credit = credits.get(path.name, 0.0) + weight
                credits[path.name] = credit
                if best is None or credit > best_credit:
                    best = path
                    best_credit = credit
            credits[best.name] = best_credit - total
            chosen = [best]
        size = message.size
        for path in chosen:
            path.bytes_sent += size
        return chosen

    # ------------------------------------------------------------------
    def metered_fraction(self) -> float:
        """Fraction of bytes that travelled metered (LTE) paths —
        the user-cost metric of the Section VI-D policy comparison."""
        total = sum(p.bytes_sent for p in self.paths.values())
        if total == 0:
            return 0.0
        metered = sum(p.bytes_sent for p in self.paths.values() if p.is_metered)
        return metered / total
