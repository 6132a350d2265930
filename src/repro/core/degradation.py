"""Priority-ordered budget allocation — graceful degradation (VI-A/B).

Given the congestion controller's byte budget and the declared streams,
:class:`DegradationController` decides who sends what, reproducing the
three situations of Figure 4:

1. budget ≥ sum of nominal rates — everyone at full quality, the
   adjustable streams may even be scaled *up* to probe the link;
2. after a first congestion event — interframes and sensor data are
   reduced; metadata and reference frames untouched;
3. severe congestion — adjustable/droppable streams go to zero and, in
   the worst case, even highest-priority *adjustable* streams (the
   reference frames) are scaled down to their floor, but never below.

Allocation algorithm: streams are sorted by priority; each stream's
*floor* (min rate; for non-discardable streams the floor is a hard
guarantee) is funded first in priority order, then remaining budget
tops streams up toward nominal in priority order.  Droppable streams
whose floor cannot be funded are dropped entirely (allocation 0);
non-droppable streams always keep their floor even if the budget is
formally exceeded — the paper's "connection metadata should be
unaltered at all cost".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.traffic import StreamSpec


@dataclass
class Allocation:
    """Result of one allocation round."""

    rates_bps: Dict[int, float]
    quality: Dict[int, float]        # allocated / nominal, 0 when dropped
    dropped: List[int]
    budget_bps: float
    overcommitted: bool              # guaranteed floors exceeded the budget

    def rate(self, stream_id: int) -> float:
        return self.rates_bps.get(stream_id, 0.0)


class DegradationController:
    """Allocates a rate budget across prioritized streams."""

    def __init__(self, streams: List[StreamSpec]) -> None:
        if len({s.stream_id for s in streams}) != len(streams):
            raise ValueError("duplicate stream ids")
        self.streams = sorted(streams, key=lambda s: (s.priority, s.stream_id))
        self._specs: Dict[int, StreamSpec] = {s.stream_id: s for s in streams}
        self.history: List[Tuple[float, Allocation]] = []

    # ------------------------------------------------------------------
    def allocate(self, budget_bps: float, now: float = 0.0) -> Allocation:
        """One allocation round for the given budget.

        Allocation is strictly priority-major: a priority level is
        served *completely* (floors, then top-up to nominal) before any
        budget reaches the next level — under scarcity the lowest
        priorities are discarded first, never the other way around
        (Section VI-A's degradation order).  Within one level, floors
        are funded before top-ups, in stream-id order.
        """
        rates: Dict[int, float] = {spec.stream_id: 0.0 for spec in self.streams}
        dropped: List[int] = []
        remaining = budget_bps
        overcommitted = False

        levels = sorted({spec.priority for spec in self.streams})
        for level in levels:
            at_level = [s for s in self.streams if s.priority is level]
            # Floors first.
            for spec in at_level:
                floor = spec.min_rate_bps
                if floor <= 0:
                    continue
                if remaining >= floor:
                    rates[spec.stream_id] = floor
                    remaining -= floor
                elif spec.priority.may_discard:
                    dropped.append(spec.stream_id)
                else:
                    # Guaranteed stream: keep the floor anyway (paper:
                    # metadata "unaltered at all cost").  The budget is
                    # overcommitted; the congestion controller's floor
                    # normally prevents this.
                    rates[spec.stream_id] = floor
                    remaining = 0.0
                    overcommitted = True
            # Then top up toward nominal at this level, *proportionally*
            # to each stream's remaining demand — within one priority
            # level no stream outranks another (stream ids are labels,
            # not priorities).  Water-fill until demand or budget runs
            # out.
            active = [s for s in at_level if s.stream_id not in dropped]
            while remaining > 1e-9:
                wants = {
                    s.stream_id: s.nominal_rate_bps - rates[s.stream_id]
                    for s in active
                    if s.nominal_rate_bps - rates[s.stream_id] > 1e-9
                }
                total_want = math.fsum(wants.values())
                if total_want <= 0:
                    break
                pool = min(remaining, total_want)
                for stream_id, want in wants.items():
                    grant = min(want, pool * want / total_want)
                    rates[stream_id] += grant
                    remaining -= grant
                if pool >= total_want:
                    break

        # Zero-floor streams that received nothing are dropped when the
        # budget ran dry before their level.
        for spec in self.streams:
            if rates[spec.stream_id] == 0.0 and spec.stream_id not in dropped:
                if spec.nominal_rate_bps > 0 and spec.priority.may_discard:
                    dropped.append(spec.stream_id)

        quality = {
            spec.stream_id: (
                rates[spec.stream_id] / spec.nominal_rate_bps
                if spec.nominal_rate_bps > 0
                else 1.0
            )
            for spec in self.streams
        }
        allocation = Allocation(
            rates_bps=rates,
            quality=quality,
            dropped=sorted(dropped),
            budget_bps=budget_bps,
            overcommitted=overcommitted,
        )
        self.history.append((now, allocation))
        return allocation

    # ------------------------------------------------------------------
    def guaranteed_floor_bps(self) -> float:
        """Sum of floors of non-discardable streams — the budget's hard
        minimum for a sane configuration."""
        return math.fsum(
            s.min_rate_bps for s in self.streams if not s.priority.may_discard
        )

    def spec(self, stream_id: int) -> StreamSpec:
        return self._specs[stream_id]
