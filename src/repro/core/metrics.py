"""QoS/QoE metrics (the quantities the paper's figures report).

- :class:`ClassReport` — per-stream delivery accounting (in-time ratio,
  goodput, recovery counts).
- :class:`QoeReport` — session-level aggregation with an MOS-like
  score: MAR experience degrades with missed frame deadlines, stalls
  of critical data, and quality reduction of the video stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, TYPE_CHECKING

from repro.analysis.stats import mean, percentile
from repro.core.traffic import Priority, TrafficClass

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.protocol import MartpReceiver, MartpSender


@dataclass
class ClassReport:
    """Delivery report of one stream."""

    name: str
    traffic_class: TrafficClass
    priority: Priority
    sent: int
    dropped_at_sender: int
    received: int
    in_time: int
    recovered: int
    mean_latency: float
    p95_latency: float
    #: Declared full-quality rate; 0 when unknown.
    nominal_rate_bps: float = 0.0
    #: Rate actually delivered to the receiver; 0 when unknown.
    achieved_rate_bps: float = 0.0

    @property
    def delivery_ratio(self) -> float:
        offered = self.sent + self.dropped_at_sender
        return self.received / offered if offered else 1.0

    @property
    def in_time_ratio(self) -> float:
        return self.in_time / self.received if self.received else 0.0

    @property
    def shed_ratio(self) -> float:
        offered = self.sent + self.dropped_at_sender
        return self.dropped_at_sender / offered if offered else 0.0

    @property
    def fulfillment(self) -> float:
        """How much of the stream's *need* was served: the worse of
        delivery ratio and achieved/nominal rate.  A stream starved at
        the source scores low here even with perfect delivery of what
        little it offered."""
        ratio = self.delivery_ratio
        if self.nominal_rate_bps > 0 and self.achieved_rate_bps > 0:
            ratio = min(ratio, self.achieved_rate_bps / self.nominal_rate_bps)
        return min(1.0, ratio)


def class_report(sender: "MartpSender", receiver: "MartpReceiver",
                 stream_id: int, duration: float = 0.0) -> ClassReport:
    """Join sender and receiver accounting for one stream."""
    tx = sender.stream_stats(stream_id)
    rx = receiver.stream_stats(stream_id)
    achieved = rx.bytes * 8 / duration if duration > 0 else 0.0
    return ClassReport(
        name=tx.spec.name,
        traffic_class=tx.spec.traffic_class,
        priority=tx.spec.priority,
        # Distinct data messages only: next_seq counts first
        # transmissions, excluding retransmits and FEC parity, so the
        # delivery ratio is not diluted by redundancy overhead.
        sent=tx.next_seq,
        dropped_at_sender=tx.dropped,
        received=rx.received,
        in_time=rx.in_time,
        recovered=rx.recovered,
        mean_latency=mean(rx.latencies),
        p95_latency=percentile(rx.latencies, 95.0),
        nominal_rate_bps=tx.spec.nominal_rate_bps,
        achieved_rate_bps=achieved,
    )


@dataclass
class QoeReport:
    """Session-level quality of experience."""

    per_class: Dict[int, ClassReport]
    video_quality_timeline: List[float] = field(default_factory=list)
    duration: float = 0.0

    @property
    def critical_intact(self) -> bool:
        """Did every critical-class message arrive (the Figure 4 claim)?"""
        return all(
            r.delivery_ratio >= 0.999
            for r in self.per_class.values()
            if r.traffic_class is TrafficClass.CRITICAL
        )

    @property
    def mean_video_quality(self) -> float:
        tl = self.video_quality_timeline
        return mean(tl) if tl else 1.0


@dataclass
class ResilienceReport:
    """Failure-handling summary of one session (Section VI-B).

    Produced by :meth:`repro.core.resilience.ResilienceMetrics.report`;
    quantifies how the session behaved *around* failures: how fast they
    were detected, how long recovery took, and how service time and
    frames split between offloaded, degraded-local and dropped.
    """

    duration: float
    detection_delays: List[float] = field(default_factory=list)
    recovery_times: List[float] = field(default_factory=list)
    failovers: int = 0
    breaker_trips: int = 0
    frames_offloaded: int = 0
    frames_degraded: int = 0
    frames_dropped: int = 0
    offload_available_time: float = 0.0
    degraded_time: float = 0.0
    frames_total: int = 0

    @property
    def mean_detection_time(self) -> float:
        """Mean delay from last good contact to failure declaration."""
        return mean(self.detection_delays)

    @property
    def mttr(self) -> float:
        """Mean time from failure declaration to restored offloading."""
        return mean(self.recovery_times)

    @property
    def availability(self) -> float:
        """Fraction of the session with the offload service available."""
        if self.duration <= 0:
            return 0.0
        return min(1.0, self.offload_available_time / self.duration)

    @property
    def degraded_fraction(self) -> float:
        """Fraction of completed frames served in degraded-local mode."""
        done = self.frames_offloaded + self.frames_degraded
        return self.frames_degraded / done if done else 0.0


#: Weight of a missed deadline on a highest-priority interactive class in
#: :func:`mos_score` (the heaviest non-critical penalty).
DEADLINE_WEIGHT = 3.0


def mos_score(report: QoeReport) -> float:
    """A 1–5 mean-opinion-score-like aggregate.

    Starts at 5 and subtracts for: missed deadlines on interactive
    classes (heaviest), critical-data loss (catastrophic), and reduced
    video quality (gentler — graceful degradation is the point).
    """
    score = 5.0
    for r in report.per_class.values():
        if r.traffic_class is TrafficClass.CRITICAL:
            # Both losing critical data and starving it are catastrophic.
            score -= 4.0 * (1.0 - r.fulfillment)
        elif r.priority is Priority.HIGHEST:
            score -= DEADLINE_WEIGHT * (1.0 - r.in_time_ratio) * 0.5
        else:
            score -= (1.0 - r.in_time_ratio) * 0.25
    score -= (1.0 - report.mean_video_quality) * 1.0
    return max(1.0, min(5.0, score))
