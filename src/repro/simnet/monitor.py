"""Periodic instrumentation: queue occupancy and link utilization.

Benchmarks mostly measure end-to-end observables; when a result needs
explaining ("where did the latency come from?"), these monitors sample
the inside of the network on a fixed tick into a
:class:`~repro.obs.registry.MetricsRegistry`, putting queue depth and
link utilization on the same mergeable export path as every other
metric:

- :class:`QueueMonitor` — a queue's depth in packets (histogram) and
  bytes (gauge) — the direct view of bufferbloat.
- :class:`LinkMonitor` — a link's per-interval utilization (histogram)
  and throughput (gauge), from its cumulative counters.

Both monitors stop ticking at ``horizon``, a known scenario end:
without it a monitor would keep the event heap non-empty forever, so
``sim.run()`` with no ``until`` would never drain.
"""

from __future__ import annotations

from repro.simnet.engine import Simulator
from repro.simnet.link import Link
from repro.simnet.queues import QueueDiscipline


class QueueMonitor:
    """Samples a queue's occupancy every ``interval`` seconds.

    Each tick feeds ``queue.<name>.packets`` (histogram) and
    ``queue.<name>.bytes`` (gauge) of ``registry``; the last tick at or
    before sim time ``horizon`` is the final one — the monitor then
    stops rescheduling and lets the heap drain.
    """

    def __init__(self, sim: Simulator, queue: QueueDiscipline, *,
                 horizon: float, registry, interval: float = 0.05,
                 name: str = "queue") -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.queue = queue
        self.interval = interval
        self.horizon = horizon
        self._hist = registry.histogram(f"queue.{name}.packets",
                                        0.0, 256.0, 256)
        self._gauge = registry.gauge(f"queue.{name}.bytes")
        sim.schedule(0.0, self._tick)

    def _tick(self) -> None:
        self._hist.observe(float(len(self.queue)))
        self._gauge.set(float(self.queue.backlog_bytes))
        if self.sim.now + self.interval > self.horizon:
            return
        self.sim.schedule(self.interval, self._tick)


class LinkMonitor:
    """Derives per-interval throughput/utilization from a link's counters.

    Takes the same ``horizon``/``registry`` bounds as
    :class:`QueueMonitor`; ticks feed ``link.<name>.utilization``
    (histogram) and ``link.<name>.throughput_bps`` (gauge).
    """

    def __init__(self, sim: Simulator, link: Link, *, horizon: float,
                 registry, interval: float = 0.5) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.link = link
        self.interval = interval
        self.horizon = horizon
        self._last_bytes = link.bytes_sent
        self._hist = registry.histogram(f"link.{link.name}.utilization",
                                        0.0, 1.0, 100)
        self._gauge = registry.gauge(f"link.{link.name}.throughput_bps")
        sim.schedule(interval, self._tick)

    def _tick(self) -> None:
        delta = self.link.bytes_sent - self._last_bytes
        self._last_bytes = self.link.bytes_sent
        bps = delta * 8 / self.interval
        utilization = min(1.0, bps / self.link.rate_bps) if self.link.rate_bps else 0.0
        self._hist.observe(utilization)
        self._gauge.set(bps)
        if self.sim.now + self.interval > self.horizon:
            return
        self.sim.schedule(self.interval, self._tick)
