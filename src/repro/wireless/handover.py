"""Coverage and handover model for the city study of Section IV-A4.

Castignani et al. (Wi2Me, 2012) measured, in a medium-sized French
city, that WiFi coverage was *nominally* present 98.9 % of the time
(99.23 % for 3G) but an actual Internet connection was available only
53.8 % of the time — killed by closed APs, association/authentication
delay, and multi-second handover gaps.

:class:`CoverageMap` places APs over an area; :meth:`connectivity`
walks a mobility trace through it and classifies every tick:

- ``in_range`` — at least one AP's radio footprint covers the walker;
- ``usable`` — the best AP is open, its backhaul works, association
  (``ASSOC_TIME``) has completed since entering it, and the walker is
  not inside a handover gap.

The same map answers cellular availability with a hashed Bernoulli
field so results are deterministic per seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.wireless.mobility import AREA_HEIGHT, AREA_WIDTH, Waypoint

#: Share of the cellular layer's grid cells that have coverage.
CELLULAR_COVERAGE = 0.9923

#: Side of one cell of the cellular coverage grid, in metres.
CELLULAR_GRID = 100.0

#: :meth:`CoverageMap.urban`: APs scattered over the area, their
#: footprint radius (m), and the shares that are open and that have a
#: working backhaul.
URBAN_N_APS = 420
URBAN_AP_RADIUS = 110.0
URBAN_OPEN_FRACTION = 0.27
URBAN_BACKHAUL_OK_FRACTION = 0.9

#: Seconds of scan + associate + DHCP before a joined AP is usable.
ASSOC_TIME = 8.0

#: Extra dead seconds when switching from one AP to another.
HANDOVER_GAP = 4.0


@dataclass(frozen=True)
class AccessPoint:
    name: str
    x: float
    y: float
    radius: float
    open: bool = True
    backhaul_ok: bool = True

    def covers(self, p: Waypoint) -> bool:
        return math.hypot(p.x - self.x, p.y - self.y) <= self.radius


@dataclass
class TickState:
    """Connectivity classification of one mobility sample."""

    t: float
    in_range: bool
    usable: bool
    ap: Optional[str]
    cellular: bool


@dataclass
class ConnectivityTrace:
    """Result of walking a trajectory through a coverage map."""

    ticks: List[TickState] = field(default_factory=list)

    def fraction(self, predicate) -> float:
        if not self.ticks:
            return 0.0
        return sum(1 for t in self.ticks if predicate(t)) / len(self.ticks)

    @property
    def wifi_in_range_fraction(self) -> float:
        return self.fraction(lambda t: t.in_range)

    @property
    def wifi_usable_fraction(self) -> float:
        return self.fraction(lambda t: t.usable)

    @property
    def cellular_fraction(self) -> float:
        return self.fraction(lambda t: t.cellular)

    @property
    def any_connectivity_fraction(self) -> float:
        return self.fraction(lambda t: t.usable or t.cellular)

    def handover_count(self) -> int:
        """Number of AP changes along the walk (None→AP not counted)."""
        count = 0
        prev = None
        for tick in self.ticks:
            if tick.ap is not None and prev is not None and tick.ap != prev:
                count += 1
            if tick.ap is not None:
                prev = tick.ap
        return count


class CoverageMap:
    """APs scattered over an area plus a cellular layer."""

    def __init__(
        self,
        aps: Optional[Sequence[AccessPoint]] = None,
        seed: int = 0,
    ) -> None:
        #: Fixed at construction: the grid index of best_ap is built from it.
        self.aps: Tuple[AccessPoint, ...] = tuple(aps) if aps is not None else ()
        self.seed = seed
        # The grid index of best_ap: square buckets strictly wider than
        # every footprint (and at least 1 m, so zero-radius APs still
        # give a finite grid), each holding (list position, AP) pairs.
        reach = max((ap.radius for ap in self.aps), default=0.0)
        self._side = math.nextafter(max(reach, 1.0), math.inf)
        self._buckets: Dict[Tuple[int, int], List[Tuple[int, AccessPoint]]] = {}
        for i, ap in enumerate(self.aps):
            key = (math.floor(ap.x / self._side), math.floor(ap.y / self._side))
            self._buckets.setdefault(key, []).append((i, ap))
        # cellular_at's one draw per grid cell, memoised: a walk visits
        # each cell many times, and seeding a generator is the cost.
        self._cellular: Dict[Tuple[int, int], bool] = {}

    # ------------------------------------------------------------------
    @classmethod
    def urban(cls, seed: int = 0) -> "CoverageMap":
        """Generate a dense urban AP deployment over the city area.

        The ``URBAN_*`` constants are tuned so that a random-waypoint walk sees WiFi
        radio coverage ~99 % of the time while only ~55-60 % of APs
        yield a usable connection — the regime of the Wi2Me study.
        """
        rng = random.Random(seed)
        aps = [
            AccessPoint(
                name=f"ap{i}",
                x=rng.uniform(0, AREA_WIDTH),
                y=rng.uniform(0, AREA_HEIGHT),
                radius=URBAN_AP_RADIUS,
                open=rng.random() < URBAN_OPEN_FRACTION,
                backhaul_ok=rng.random() < URBAN_BACKHAUL_OK_FRACTION,
            )
            for i in range(URBAN_N_APS)
        ]
        return cls(aps, seed=seed)

    # ------------------------------------------------------------------
    def cellular_at(self, p: Waypoint) -> bool:
        """Deterministic Bernoulli field: dead zones on a coarse grid."""
        cell = (int(p.x // CELLULAR_GRID), int(p.y // CELLULAR_GRID))
        covered = self._cellular.get(cell)
        if covered is None:
            rng = random.Random(f"{self.seed}:{cell[0]}:{cell[1]}")
            covered = self._cellular[cell] = rng.random() < CELLULAR_COVERAGE
        return covered

    def best_ap(self, p: Waypoint) -> Optional[AccessPoint]:
        """Nearest covering AP, preferring open ones.

        Only the buckets meeting ``[p - side, p + side]`` on both axes
        are tested — 3×3 of them, bar float rounding.  They hold every
        AP that covers ``p``: ``covers`` admits an AP only if each axis
        distance rounds to less than ``side``, so the AP lies within
        ``side`` of ``p`` exactly, and rounding ``p ± side`` and the
        division by ``side`` are monotone.  Candidates are tested in
        list order, so the stable sort breaks ties as a full scan would.
        """
        side = self._side
        buckets = self._buckets
        floor = math.floor
        gx0 = floor((p.x - side) / side)
        gx1 = floor((p.x + side) / side)
        gy0 = floor((p.y - side) / side)
        gy1 = floor((p.y + side) / side)
        near: List[Tuple[int, AccessPoint]] = []
        for gx in range(gx0, gx1 + 1):
            for gy in range(gy0, gy1 + 1):
                bucket = buckets.get((gx, gy))
                if bucket:
                    near += bucket
        near.sort()
        covering = [ap for _i, ap in near if ap.covers(p)]
        if not covering:
            return None
        covering.sort(key=lambda ap: (not ap.open, math.hypot(p.x - ap.x, p.y - ap.y)))
        return covering[0]

    def connectivity(self, trajectory: Sequence[Waypoint]) -> ConnectivityTrace:
        """Classify every sample of a mobility trace.

        ``ASSOC_TIME`` models scan+associate+DHCP when joining an AP;
        ``HANDOVER_GAP`` the additional dead time when switching APs
        ("handover ... can cause several seconds gaps").
        """
        trace = ConnectivityTrace()
        current_ap: Optional[str] = None
        usable_from = math.inf
        for p in trajectory:
            ap = self.best_ap(p)
            in_range = ap is not None
            if ap is None:
                current_ap = None
                usable_from = math.inf
            elif ap.name != current_ap:
                penalty = ASSOC_TIME + (HANDOVER_GAP if current_ap is not None else 0.0)
                current_ap = ap.name
                usable_from = p.t + penalty
            usable = (
                ap is not None
                and ap.open
                and ap.backhaul_ok
                and p.t >= usable_from
            )
            trace.ticks.append(
                TickState(p.t, in_range, usable, ap.name if ap else None, self.cellular_at(p))
            )
        return trace
