"""Measurement helpers: per-flow statistics.

:class:`FlowStats` accumulates receive-side samples (one per packet) and
derives the quantities the paper's figures plot: throughput over time,
one-way delay percentiles, jitter.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.simnet.packet import Packet


@dataclass
class _Sample:
    time: float
    size: int
    delay: float
    flow: str


class FlowStats:
    """Receive-side per-flow accounting."""

    def __init__(self) -> None:
        self.samples: List[_Sample] = []
        self.packets_total = 0
        self._time_index: List[float] = []

    def record(self, packet: Packet, now: float) -> None:
        self.samples.append(_Sample(now, packet.size, packet.age(now), packet.flow))
        self._time_index.append(now)
        self.packets_total += 1

    # ------------------------------------------------------------------
    def _times(self) -> List[float]:
        return self._time_index

    def bytes_between(self, t0: float, t1: float, flow: Optional[str] = None) -> int:
        lo = bisect_left(self._times(), t0)
        hi = bisect_right(self._times(), t1)
        window = self.samples[lo:hi]
        if flow is not None:
            window = [s for s in window if s.flow == flow]
        return sum(s.size for s in window)

    def throughput_bps(self, t0: float, t1: float, flow: Optional[str] = None) -> float:
        """Average goodput in bits/s over the half-open window ``(t0, t1]``."""
        if t1 <= t0:
            return 0.0
        return self.bytes_between(t0, t1, flow) * 8 / (t1 - t0)

    def throughput_timeseries(
        self, bin_size: float, until: Optional[float] = None, flow: Optional[str] = None
    ) -> List[Tuple[float, float]]:
        """(bin_start, bits/s) pairs covering the observation window."""
        if not self.samples:
            return []
        end = until if until is not None else self.samples[-1].time
        series = []
        t = 0.0
        while t < end:
            series.append((t, self.throughput_bps(t, t + bin_size, flow)))
            t += bin_size
        return series

    def delays(self, flow: Optional[str] = None) -> List[float]:
        return [s.delay for s in self.samples if flow is None or s.flow == flow]

    def delay_percentile(self, q: float, flow: Optional[str] = None) -> float:
        """q-th percentile (0-100) of one-way delay; 0.0 if no samples."""
        # Imported here: repro.analysis imports this module.
        from repro.analysis.stats import percentile

        data = self.delays(flow)
        return percentile(data, q) if data else 0.0

    def mean_delay(self, flow: Optional[str] = None) -> float:
        data = self.delays(flow)
        return math.fsum(data) / len(data) if data else 0.0

    def jitter(self, flow: Optional[str] = None) -> float:
        """Mean absolute delta between consecutive delay samples (RFC 3550 flavour)."""
        data = self.delays(flow)
        if len(data) < 2:
            return 0.0
        deltas = [abs(b - a) for a, b in zip(data, data[1:])]
        return math.fsum(deltas) / len(deltas)
