"""Mobility models for the coverage/handover study (Section IV-A4).

:class:`RandomWaypoint` generates the classic random-waypoint walk over
a rectangular city area; :class:`Waypoint` trajectories can also be
built by hand for deterministic tests.  Positions are sampled on a
fixed tick so the coverage analysis in
:mod:`repro.wireless.handover` sees a regular time series.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List

#: The city area walkers move in (and APs are scattered over), metres.
AREA_WIDTH = 2000.0
AREA_HEIGHT = 2000.0

#: A random-waypoint leg's speed is uniform in ``[V_MIN, V_MAX]`` m/s.
V_MIN, V_MAX = 0.5, 2.0

#: A walker pauses up to this many seconds at each destination.
MAX_PAUSE = 60.0

#: Seconds between two samples of a trajectory.
SAMPLE_TICK = 1.0


@dataclass(frozen=True)
class Waypoint:
    """A position sample: time (s), x (m), y (m)."""

    t: float
    x: float
    y: float


class RandomWaypoint:
    """Random-waypoint mobility in the ``AREA_WIDTH``×``AREA_HEIGHT``
    metre area.

    The walker picks a uniform destination and a uniform speed in
    ``[V_MIN, V_MAX]``, walks there in a straight line, pauses up to
    ``MAX_PAUSE`` seconds, and repeats.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def trajectory(self, duration: float) -> List[Waypoint]:
        """Sample the walk every ``SAMPLE_TICK`` seconds for ``duration``
        seconds."""
        tick = SAMPLE_TICK
        rng = self._rng
        x = rng.uniform(0, AREA_WIDTH)
        y = rng.uniform(0, AREA_HEIGHT)
        samples: List[Waypoint] = []
        t = 0.0
        while t < duration:
            # Choose next leg.
            dest_x = rng.uniform(0, AREA_WIDTH)
            dest_y = rng.uniform(0, AREA_HEIGHT)
            speed = rng.uniform(V_MIN, V_MAX)
            pause = rng.uniform(0, MAX_PAUSE)
            leg_len = math.hypot(dest_x - x, dest_y - y)
            leg_time = leg_len / speed
            # Walk the leg.
            steps = max(1, int(leg_time / tick))
            for i in range(1, steps + 1):
                if t >= duration:
                    break
                frac = min(1.0, (i * tick) / leg_time) if leg_time > 0 else 1.0
                samples.append(Waypoint(t, x + (dest_x - x) * frac, y + (dest_y - y) * frac))
                t += tick
            x, y = dest_x, dest_y
            # Pause at the destination.
            pause_steps = int(pause / tick)
            for _ in range(pause_steps):
                if t >= duration:
                    break
                samples.append(Waypoint(t, x, y))
                t += tick
        return samples
