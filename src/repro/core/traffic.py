"""Traffic classes and priorities (Section VI-A).

The paper defines three baseline traffic classes:

1. *Full best effort* — latency beats reliability; new data supersedes
   loss recovery (most uplink sensor data).
2. *Best effort with loss recovery* — latency-sensitive but worth
   recovering (video reference frames).
3. *Critical* — reliable in-order delivery beats latency (connection
   metadata).

and four priorities governing degradation under congestion:

1. *Highest* — never discarded nor delayed;
2. *Medium 1* — may be delayed, never discarded;
3. *Medium 2* — may be discarded, never delayed;
4. *Lowest* — first to go entirely.

:data:`MAR_BASELINE_STREAMS` instantiates the worked example of
Figure 4: connection metadata (critical/highest), sensor data (full
best effort/medium-1), video reference frames (loss recovery/highest),
video interframes (full best effort/lowest).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import List


class TrafficClass(enum.Enum):
    """Reliability semantics of a stream (Section VI-A)."""

    FULL_BEST_EFFORT = "full-best-effort"
    LOSS_RECOVERY = "best-effort-loss-recovery"
    CRITICAL = "critical"

    @property
    def retransmits(self) -> bool:
        return self is not TrafficClass.FULL_BEST_EFFORT

    @property
    def ordered(self) -> bool:
        return self is TrafficClass.CRITICAL


class Priority(enum.IntEnum):
    """Degradation order; lower value = more important."""

    HIGHEST = 0
    MEDIUM_NO_DISCARD = 1   # "Medium priority 1": delay OK, discard never
    MEDIUM_NO_DELAY = 2     # "Medium priority 2": discard OK, delay never
    LOWEST = 3

    @property
    def may_discard(self) -> bool:
        return self in (Priority.MEDIUM_NO_DELAY, Priority.LOWEST)

    @property
    def may_delay(self) -> bool:
        return self in (Priority.MEDIUM_NO_DISCARD, Priority.LOWEST)


@dataclass(frozen=True)
class StreamSpec:
    """Declaration of one application stream.

    ``nominal_rate_bps`` is what the stream offers at full quality;
    ``min_rate_bps`` is the floor below which the stream is useless
    (the degradation controller never allocates between 0 and the
    floor — it either drops the stream or gives it at least the floor);
    ``adjustable`` marks streams whose rate the application can scale
    continuously (video quality, sensor sampling), the "adjustable
    variables" of Figure 4.
    """

    stream_id: int
    name: str
    traffic_class: TrafficClass
    priority: Priority
    nominal_rate_bps: float
    min_rate_bps: float = 0.0
    message_bytes: int = 1200
    adjustable: bool = False
    deadline: float = 0.075
    fec: bool = False
    fec_group: int = 8

    def __post_init__(self) -> None:
        if self.min_rate_bps > self.nominal_rate_bps:
            raise ValueError("min_rate_bps cannot exceed nominal_rate_bps")


class Message:
    """One application data unit submitted to MARTP."""

    # One is built per submitted message, so construction is a single
    # hand-written frame and the fields are slot-backed (as
    # :class:`~repro.simnet.packet.Packet`; ``dataclass(slots=True)``
    # needs 3.10 and the package declares 3.9).
    __slots__ = ("stream_id", "seq", "size", "created_at", "deadline",
                 "is_retransmit", "fec_parity")

    def __init__(
        self,
        stream_id: int,
        seq: int,
        size: int,
        created_at: float,
        deadline: float,
        is_retransmit: bool = False,
        fec_parity: bool = False,
    ) -> None:
        self.stream_id = stream_id
        self.seq = seq
        self.size = size
        self.created_at = created_at
        self.deadline = deadline
        self.is_retransmit = is_retransmit
        self.fec_parity = fec_parity

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return _fields(self) == _fields(other)
        return NotImplemented

    # Field-wise equality on a mutable object: unhashable, as before.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Message(stream_id={self.stream_id!r}, seq={self.seq!r}, "
            f"size={self.size!r}, created_at={self.created_at!r}, "
            f"deadline={self.deadline!r}, is_retransmit={self.is_retransmit!r}, "
            f"fec_parity={self.fec_parity!r})"
        )

    def expired(self, now: float) -> bool:
        return now > self.created_at + self.deadline


_fields = attrgetter(*Message.__slots__)


#: Figure 4's stream rates, in bit/s: connection metadata, sensor data
#: and video reference frames.
METADATA_BPS = 16_000.0
SENSOR_BPS = 40_000.0
REF_FRAME_BPS = 1.2e6

#: Deadline of the sensor and video streams, in seconds.
STREAM_DEADLINE = 0.075


def mar_baseline_streams(video_nominal_bps: float = 8e6) -> List[StreamSpec]:
    """The four-stream worked example of Section VI-B / Figure 4."""
    return [
        StreamSpec(
            stream_id=0,
            name="connection-metadata",
            traffic_class=TrafficClass.CRITICAL,
            priority=Priority.HIGHEST,
            nominal_rate_bps=METADATA_BPS,
            min_rate_bps=METADATA_BPS,
            message_bytes=200,
            deadline=1.0,
        ),
        StreamSpec(
            stream_id=1,
            name="sensor-data",
            traffic_class=TrafficClass.FULL_BEST_EFFORT,
            priority=Priority.MEDIUM_NO_DISCARD,
            nominal_rate_bps=SENSOR_BPS,
            min_rate_bps=SENSOR_BPS * 0.1,
            message_bytes=120,
            adjustable=True,
            deadline=STREAM_DEADLINE,
        ),
        StreamSpec(
            stream_id=2,
            name="video-reference-frames",
            traffic_class=TrafficClass.LOSS_RECOVERY,
            priority=Priority.HIGHEST,
            nominal_rate_bps=REF_FRAME_BPS,
            min_rate_bps=REF_FRAME_BPS * 0.3,
            message_bytes=1200,
            deadline=STREAM_DEADLINE,
            fec=True,
        ),
        StreamSpec(
            stream_id=3,
            name="video-interframes",
            traffic_class=TrafficClass.FULL_BEST_EFFORT,
            priority=Priority.LOWEST,
            nominal_rate_bps=video_nominal_bps,
            min_rate_bps=0.0,
            message_bytes=1200,
            adjustable=True,
            deadline=STREAM_DEADLINE,
        ),
    ]


#: Default instantiation of the Figure 4 stream set.
MAR_BASELINE_STREAMS: List[StreamSpec] = mar_baseline_streams()
