"""Resilience primitives: liveness detection, backoff, circuit breaking.

Section VI-B asks that an MAR application "function with degraded
performance even if no network connectivity is available".  The
building blocks here turn that guideline into mechanism:

- :class:`RttEstimator` (from :mod:`repro.transport.base`) — smoothed
  RTT + variance, the basis for *RTT-adaptive* liveness timeouts (a 6 ms
  edge path and a 90 ms cloud path must not share a fixed timer);
- :class:`HeartbeatMonitor` — periodic pings against one server with a
  healthy → suspect → failed miss counter; once failed it keeps
  probing on a decorrelated-jitter backoff schedule so a restarted
  server is re-detected without synchronized probe storms;
- :class:`DecorrelatedBackoff` — exponential backoff with decorrelated
  jitter (`sleep = min(cap, uniform(base, 3·prev))`), drawing from a
  simulator child RNG so runs stay deterministic;
- :class:`CircuitBreaker` — closed → open → half-open guard around the
  offload service as a whole: when every path is dead the executor
  trips to local-only degraded mode and periodically lets one probe
  frame through to test recovery;
- :class:`ResilienceMetrics` — raw event collection (mode transitions,
  detection delays, outage episodes, per-mode frame counts) that
  aggregates into a :class:`~repro.core.metrics.ResilienceReport`.

Everything takes the simulator clock explicitly; nothing here reads
wall time, so fault scenarios remain bit-reproducible.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.metrics import ResilienceReport
from repro.simnet.engine import Event, Simulator
from repro.transport.base import RttEstimator


class DecorrelatedBackoff:
    """Exponential backoff with decorrelated jitter.

    Each call to :meth:`next` returns a delay in ``[base, cap]`` drawn
    as ``min(cap, uniform(base, 3·previous))`` — the schedule spreads
    retries instead of synchronizing them, while still growing
    geometrically in expectation.
    """

    def __init__(self, rng: random.Random, base: float = 0.1,
                 cap: float = 5.0) -> None:
        if base <= 0 or cap < base:
            raise ValueError("need 0 < base <= cap")
        self.rng = rng
        self.base = base
        self.cap = cap
        self._prev = base

    @classmethod
    def from_tag(cls, seed: int, tag: str, base: float,
                 cap: float) -> "DecorrelatedBackoff":
        """A backoff whose jitter stream is a pure function of
        ``(seed, tag)`` — the same derivation scheme as
        :meth:`Simulator.child_rng`, for users outside a simulator
        (e.g. the fleet campaign runner's retry schedule)."""
        return cls(random.Random(f"{seed}:{tag}"), base=base, cap=cap)

    def next(self) -> float:
        self._prev = min(self.cap, self.rng.uniform(self.base, self._prev * 3))
        return self._prev

    def reset(self) -> None:
        self._prev = self.base


class Liveness(enum.Enum):
    """Heartbeat verdict on one server/path."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    FAILED = "failed"


#: Seconds between two heartbeat pings to one server.
HEARTBEAT_INTERVAL = 0.25

#: Consecutive unanswered heartbeats that declare a server failed.
MISS_THRESHOLD = 3

#: Factor a half-open circuit breaker's failed probe grows the cooldown by.
COOLDOWN_FACTOR = 2.0


class HeartbeatMonitor:
    """Ping-based liveness detection for one server.

    A ping is sent every ``HEARTBEAT_INTERVAL`` seconds; each ping gets
    an RTT-adaptive deadline (``rtt.timeout()``).  Unanswered pings bump
    a miss counter: one miss makes the server *suspect*,
    ``MISS_THRESHOLD`` consecutive misses declare it *failed*.  A failed server keeps
    being probed, but on the backoff schedule instead of every
    interval; any pong snaps the state back to healthy and resets the
    backoff.

    ``send_ping(target, token)`` must transmit a ping whose pong can be
    routed back to :meth:`on_pong` with the same token (the executor
    uses the send timestamp as token since the server echoes it).
    """

    def __init__(
        self,
        sim: Simulator,
        target: str,
        send_ping: Callable[[str, float], None],
        on_state_change: Optional[Callable[[str, Liveness, Liveness], None]] = None,
    ) -> None:
        self.sim = sim
        self.target = target
        self.send_ping = send_ping
        self.backoff = DecorrelatedBackoff(
            sim.child_rng(f"heartbeat:{target}"), base=HEARTBEAT_INTERVAL,
            cap=20 * HEARTBEAT_INTERVAL
        )
        self.on_state_change = on_state_change
        self.rtt = RttEstimator()
        self.state = Liveness.HEALTHY
        self.misses = 0
        self.last_contact: Optional[float] = None
        #: time from last successful contact to each FAILED declaration
        self.detection_delays: List[float] = []
        self._outstanding: Dict[float, float] = {}
        self._check_events: Dict[float, "Event"] = {}
        self._started_at: Optional[float] = None
        self._stopped = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._started_at = self.sim.now
        self._tick()

    def stop(self) -> None:
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        token = self.sim.now
        self._outstanding[token] = token
        self.send_ping(self.target, token)
        # Keep a handle on the deadline so an answered ping cancels its
        # check instead of leaving a dead timer to fire as a no-op.
        self._check_events[token] = self.sim.schedule(self.rtt.timeout(), self._check, token)
        delay = (
            HEARTBEAT_INTERVAL if self.state is not Liveness.FAILED
            else self.backoff.next()
        )
        self.sim.schedule(delay, self._tick)

    def _check(self, token: float) -> None:
        self._check_events.pop(token, None)
        if self._outstanding.pop(token, None) is None:
            return
        self.misses += 1
        if self.misses >= MISS_THRESHOLD:
            self._transition(Liveness.FAILED)
        else:
            self._transition(Liveness.SUSPECT)

    def on_pong(self, token: float) -> None:
        sent = self._outstanding.pop(token, None)
        if sent is None:
            return
        check = self._check_events.pop(token, None)
        if check is not None:
            check.cancel()
        self.rtt.sample(self.sim.now - sent)
        self.misses = 0
        self.last_contact = self.sim.now
        self.backoff.reset()
        self._transition(Liveness.HEALTHY)

    def _transition(self, new: Liveness) -> None:
        if new is self.state:
            return
        old = self.state
        self.state = new
        if new is Liveness.FAILED:
            anchor = self.last_contact if self.last_contact is not None else self._started_at
            self.detection_delays.append(self.sim.now - (anchor or 0.0))
        if self.on_state_change is not None:
            self.on_state_change(self.target, old, new)


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Classic three-state circuit breaker on the simulator clock.

    ``record_failure`` counts consecutive failures; at
    ``failure_threshold`` the breaker *opens* (requests denied).  After
    ``cooldown`` seconds :meth:`allow_request` lets exactly one probe
    through (*half-open*); a success closes the breaker, a failure
    re-opens it with the cooldown grown by ``COOLDOWN_FACTOR`` (capped)
    so a persistently dead service is probed ever more lazily.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        failure_threshold: int = 3,
        cooldown: float = 1.0,
        cooldown_cap: float = 30.0,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.base_cooldown = cooldown
        self.cooldown_cap = cooldown_cap
        self.state = BreakerState.CLOSED
        self.failures = 0
        self.trips = 0
        self._cooldown = cooldown
        self._opened_at: Optional[float] = None

    # ------------------------------------------------------------------
    def record_failure(self) -> None:
        self.failures += 1
        if self.state is BreakerState.HALF_OPEN:
            # The probe failed: back off harder.
            self._cooldown = min(self.cooldown_cap, self._cooldown * COOLDOWN_FACTOR)
            self._open()
        elif self.state is BreakerState.CLOSED and self.failures >= self.failure_threshold:
            self._open()

    def record_success(self) -> None:
        self.failures = 0
        self._cooldown = self.base_cooldown
        self.state = BreakerState.CLOSED
        self._opened_at = None

    def trip(self) -> None:
        """Force the breaker open (e.g. no failover target left)."""
        if self.state is not BreakerState.OPEN:
            self._open()

    def _open(self) -> None:
        self.state = BreakerState.OPEN
        self.trips += 1
        self._opened_at = self.clock()

    def allow_request(self) -> bool:
        """May a normal (or probe) request proceed right now?"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            assert self._opened_at is not None
            if self.clock() - self._opened_at >= self._cooldown:
                self.state = BreakerState.HALF_OPEN
                return True
            return False
        # HALF_OPEN: one probe is already in flight.
        return False

    @property
    def cooldown_remaining(self) -> float:
        if self.state is not BreakerState.OPEN or self._opened_at is None:
            return 0.0
        return max(0.0, self._cooldown - (self.clock() - self._opened_at))


class ServiceMode(enum.Enum):
    """The executor-level state machine (docs/PROTOCOL.md §8.3)."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    FAILED_OVER = "failed-over"
    DEGRADED_LOCAL = "degraded-local"
    PROBING = "probing"


@dataclass
class ResilienceMetrics:
    """Raw resilience events of one session, aggregated on demand.

    An *outage* runs from the moment the offload service is declared
    unavailable (active server failed, or breaker tripped) to the next
    successfully offloaded frame; its length is the time-to-recovery.
    """

    mode_timeline: List[Tuple[float, ServiceMode]] = field(default_factory=list)
    detection_delays: List[float] = field(default_factory=list)
    outages: List[Tuple[float, float]] = field(default_factory=list)
    failovers: int = 0
    breaker_trips: int = 0
    frames_offloaded: int = 0
    frames_degraded: int = 0
    frames_dropped: int = 0
    #: frames the *strategy* planned as local (not a degradation)
    frames_local_by_design: int = 0
    _outage_started: Optional[float] = None

    # ------------------------------------------------------------------
    def record_mode(self, now: float, mode: ServiceMode) -> None:
        if self.mode_timeline and self.mode_timeline[-1][1] is mode:
            return
        self.mode_timeline.append((now, mode))

    def outage_begin(self, now: float) -> None:
        if self._outage_started is None:
            self._outage_started = now

    def outage_end(self, now: float) -> None:
        if self._outage_started is not None:
            self.outages.append((self._outage_started, now))
            self._outage_started = None

    def close(self, now: float) -> None:
        """End-of-session: a still-open outage ends at the cutoff."""
        self.outage_end(now)

    # ------------------------------------------------------------------
    def mode_durations(self, duration: float) -> Dict[ServiceMode, float]:
        """Seconds spent in each mode over ``[0, duration]``."""
        out: Dict[ServiceMode, float] = {m: 0.0 for m in ServiceMode}
        if not self.mode_timeline:
            return out
        for (t0, mode), (t1, _) in zip(self.mode_timeline, self.mode_timeline[1:]):
            out[mode] += min(t1, duration) - min(t0, duration)
        last_t, last_mode = self.mode_timeline[-1]
        if duration > last_t:
            out[last_mode] += duration - last_t
        return out

    def report(self, duration: float) -> ResilienceReport:
        durations = self.mode_durations(duration)
        degraded_time = durations[ServiceMode.DEGRADED_LOCAL]
        total_frames = (self.frames_offloaded + self.frames_degraded
                        + self.frames_local_by_design + self.frames_dropped)
        recoveries = [end - start for start, end in self.outages]
        return ResilienceReport(
            duration=duration,
            detection_delays=list(self.detection_delays),
            recovery_times=recoveries,
            failovers=self.failovers,
            breaker_trips=self.breaker_trips,
            frames_offloaded=self.frames_offloaded,
            frames_degraded=self.frames_degraded,
            frames_dropped=self.frames_dropped,
            offload_available_time=max(0.0, duration - degraded_time),
            degraded_time=degraded_time,
            frames_total=total_frames,
        )
