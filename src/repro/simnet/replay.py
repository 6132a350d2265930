"""Trace-driven link replay.

Real access networks don't follow tidy stochastic processes — the paper
repeatedly leans on *measured* behaviour ("abrupt changes of several
orders of magnitude").  :class:`TraceReplayLink` replays a recorded
``(time, rate_bps)`` trace onto a link, and :func:`commute_trace`
synthesizes the canonical stress case: an LTE link through a bus
commute — stops (good signal), drives (fading), a tunnel (outage).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.simnet.engine import Simulator
from repro.simnet.link import Link

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.node import Node

RatePoint = Tuple[float, float]


class TraceReplayLink(Link):
    """A link whose rate follows a recorded trace.

    ``trace`` is a list of ``(time, rate_bps)`` breakpoints, sorted by
    time; the rate holds between breakpoints and the trace loops with
    period ``loop_at`` (default: the last breakpoint's time) so long
    simulations keep replaying the recording.  A rate of 0 models an
    outage: the link serializes at a tiny floor rate so queued packets
    survive until coverage returns (they drain when the rate recovers).
    """

    OUTAGE_FLOOR_BPS = 100.0

    #: The outage hold decides at dequeue time whether to start: service
    #: stays event-driven (see :mod:`repro.simnet.link`).
    _PLANS = False

    def __init__(
        self,
        sim: Simulator,
        src: "Node",
        dst: "Node",
        trace: Sequence[RatePoint],
        loop_at: Optional[float] = None,
        **kwargs,
    ) -> None:
        if not trace:
            raise ValueError("trace must not be empty")
        times = [t for t, _ in trace]
        if times != sorted(times):
            raise ValueError("trace must be time-sorted")
        if any(r < 0 for _, r in trace):
            raise ValueError("rates must be non-negative")
        self.trace = list(trace)
        self.loop_at = loop_at if loop_at is not None else max(times[-1], 1e-9)
        first_rate = self._rate_at(0.0)
        super().__init__(sim, src, dst, rate_bps=max(first_rate, self.OUTAGE_FLOOR_BPS),
                         **kwargs)
        self.rate_history: List[RatePoint] = [(0.0, self.rate_bps)]
        self._schedule_next_change()

    # ------------------------------------------------------------------
    def _rate_at(self, now: float) -> float:
        t = now % self.loop_at
        idx = bisect_right([p for p, _ in self.trace], t) - 1
        idx = max(idx, 0)
        return self.trace[idx][1]

    def _next_change_delay(self, now: float) -> float:
        t = now % self.loop_at
        times = [p for p, _ in self.trace]
        idx = bisect_right(times, t)
        if idx < len(times):
            return times[idx] - t
        return self.loop_at - t  # wrap to the loop start

    def _schedule_next_change(self) -> None:
        delay = max(self._next_change_delay(self.sim.now), 1e-6)
        self.sim.schedule(delay, self._apply_change)

    def _apply_change(self) -> None:
        rate = self._rate_at(self.sim.now)
        self.rate_bps = max(rate, self.OUTAGE_FLOOR_BPS)
        self.rate_history.append((self.sim.now, self.rate_bps))
        # Coverage returned: restart service on whatever queued up.
        if not self.in_outage and not self._busy:
            self._start_transmission()
        self._schedule_next_change()

    def _start_transmission(self) -> None:
        # During an outage nothing serializes — packets wait in the
        # queue; a transmission started at the floor rate would occupy
        # the link long past recovery.
        if self.in_outage:
            self._busy = False
            return
        super()._start_transmission()

    @property
    def in_outage(self) -> bool:
        return self._rate_at(self.sim.now) <= 0.0


#: The commute trace's rate with good signal at a stop, in bit/s.
COMMUTE_GOOD_BPS = 15e6

#: The commute trace's degraded rate while driving, in bit/s.
COMMUTE_DRIVING_BPS = 4e6

#: Seconds of total outage in the commute trace's tunnel.
COMMUTE_TUNNEL_SECONDS = 8.0

#: Seconds of each stop and driving segment of the commute trace.
COMMUTE_SEGMENT_SECONDS = 20.0


def commute_trace() -> List[RatePoint]:
    """A synthetic bus-commute LTE trace: stop → drive → tunnel → drive.

    One loop: good signal at a stop, degraded while moving, a total
    outage in a tunnel, then recovery — the pattern that makes naive
    congestion control oscillate and motivates MARTP's delay-based
    budget plus graceful degradation.
    """
    t0 = 0.0
    t1 = t0 + COMMUTE_SEGMENT_SECONDS      # stop (good)
    t2 = t1 + COMMUTE_SEGMENT_SECONDS      # driving (degraded)
    t3 = t2 + COMMUTE_TUNNEL_SECONDS       # tunnel (outage)
    t4 = t3 + COMMUTE_SEGMENT_SECONDS      # driving again
    return [
        (t0, COMMUTE_GOOD_BPS),
        (t1, COMMUTE_DRIVING_BPS),
        (t2, 0.0),
        (t3, COMMUTE_DRIVING_BPS),
        (t4, COMMUTE_GOOD_BPS),
    ]
