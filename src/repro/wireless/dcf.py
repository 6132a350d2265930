"""Slot-level 802.11 DCF: contention windows, collisions, backoff.

The airtime model in :mod:`repro.wireless.wifi` grants the channel to a
uniformly random backlogged station — a clean approximation that
reproduces the performance anomaly but hides *collisions*.  This module
simulates the MAC at slot level:

- each backlogged station draws a backoff from its contention window
  ``[0, CW)`` and counts down idle slots;
- stations reaching zero in the same slot **collide**: the channel is
  occupied for the longest colliding frame, nobody is credited, and
  every loser doubles its CW (binary exponential backoff, up to
  ``CW_MAX``);
- a successful transmission resets the winner's CW to ``CW_MIN``.

The model exposes the classic DCF results: collision probability grows
with the number of stations; goodput peaks at a small station count and
decays as contention overhead mounts; and the Heusse performance
anomaly emerges here too, now with collision losses on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.simnet.engine import Simulator

SLOT_TIME = 9e-6           # 802.11a/g slot
DIFS = 34e-6
SIFS_ACK = 44e-6           # SIFS + ACK at basic rate
CW_MIN = 16
CW_MAX = 1024


@dataclass
class DcfStation:
    """A saturated station with its own contention state."""

    name: str
    phy_rate_bps: float
    payload: int = 1500
    cw: int = CW_MIN
    backoff: int = 0
    bytes_sent: int = 0
    frames_sent: int = 0
    collisions: int = 0
    tx_log: List[Tuple[float, int]] = field(default_factory=list)

    def airtime(self) -> float:
        return DIFS + SIFS_ACK + self.payload * 8 / self.phy_rate_bps

    def throughput_bps(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            return 0.0
        sent = sum(size for t, size in self.tx_log if t0 < t <= t1)
        return sent * 8 / (t1 - t0)


class DcfChannel:
    """Slot-synchronous DCF contention among saturated stations."""

    def __init__(self, sim: Simulator, name: str = "dcf") -> None:
        self.sim = sim
        self.name = name
        self.stations: Dict[str, DcfStation] = {}
        self._rng = sim.child_rng(f"dcf:{name}")
        self._running = False
        self.total_collisions = 0
        self.total_successes = 0

    # ------------------------------------------------------------------
    def add_station(self, station: DcfStation) -> DcfStation:
        if station.name in self.stations:
            raise ValueError(f"duplicate station {station.name!r}")
        station.backoff = self._rng.randrange(station.cw)
        self.stations[station.name] = station
        self._kick()
        return station

    def set_rate(self, name: str, phy_rate_bps: float) -> None:
        self.stations[name].phy_rate_bps = phy_rate_bps

    def _kick(self) -> None:
        if not self._running and self.stations:
            self._running = True
            self.sim.schedule(0.0, self._contend)

    # ------------------------------------------------------------------
    def _contend(self) -> None:
        """Jump to the next transmission attempt and resolve it."""
        if not self.stations:
            self._running = False
            return
        stations = list(self.stations.values())
        min_backoff = min(s.backoff for s in stations)
        winners = [s for s in stations if s.backoff == min_backoff]
        # Idle slots elapse for everyone.
        idle_time = min_backoff * SLOT_TIME
        for s in stations:
            s.backoff -= min_backoff

        if len(winners) == 1:
            winner = winners[0]
            busy = winner.airtime()
            self.sim.schedule(idle_time + busy, self._success, winner)
        else:
            # Collision: channel busy for the longest colliding frame.
            busy = max(s.airtime() for s in winners)
            self.sim.schedule(idle_time + busy, self._collision, winners)

    def _success(self, winner: DcfStation) -> None:
        winner.bytes_sent += winner.payload
        winner.frames_sent += 1
        winner.tx_log.append((self.sim.now, winner.payload))
        winner.cw = CW_MIN
        winner.backoff = self._rng.randrange(winner.cw)
        self.total_successes += 1
        self._contend()

    def _collision(self, losers: List[DcfStation]) -> None:
        self.total_collisions += 1
        for s in losers:
            s.collisions += 1
            s.cw = min(s.cw * 2, CW_MAX)
            s.backoff = self._rng.randrange(s.cw)
        self._contend()

    # ------------------------------------------------------------------
    @property
    def collision_probability(self) -> float:
        attempts = self.total_successes + self.total_collisions
        return self.total_collisions / attempts if attempts else 0.0

    def aggregate_throughput_bps(self, t0: float, t1: float) -> float:
        return math.fsum(s.throughput_bps(t0, t1) for s in self.stations.values())
