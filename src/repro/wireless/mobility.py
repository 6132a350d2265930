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


@dataclass(frozen=True)
class Waypoint:
    """A position sample: time (s), x (m), y (m)."""

    t: float
    x: float
    y: float


class RandomWaypoint:
    """Random-waypoint mobility in a ``width``×``height`` metre area.

    The walker picks a uniform destination and a uniform speed in
    ``[v_min, v_max]``, walks there in a straight line, pauses up to
    ``max_pause`` seconds, and repeats.
    """

    def __init__(
        self,
        width: float = 2000.0,
        height: float = 2000.0,
        v_min: float = 0.5,
        v_max: float = 2.0,
        max_pause: float = 60.0,
        seed: int = 0,
    ) -> None:
        if v_min <= 0 or v_max < v_min:
            raise ValueError("need 0 < v_min <= v_max")
        self.width = width
        self.height = height
        self.v_min = v_min
        self.v_max = v_max
        self.max_pause = max_pause
        self._rng = random.Random(seed)

    def trajectory(self, duration: float, tick: float = 1.0) -> List[Waypoint]:
        """Sample the walk every ``tick`` seconds for ``duration`` seconds."""
        rng = self._rng
        x = rng.uniform(0, self.width)
        y = rng.uniform(0, self.height)
        samples: List[Waypoint] = []
        t = 0.0
        while t < duration:
            # Choose next leg.
            dest_x = rng.uniform(0, self.width)
            dest_y = rng.uniform(0, self.height)
            speed = rng.uniform(self.v_min, self.v_max)
            pause = rng.uniform(0, self.max_pause)
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
