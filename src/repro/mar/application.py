"""The MAR application model of Section III.

An application ``a`` is characterized by (paper notation in brackets):

- ``fps`` — frame generation rate [f(a)];
- ``megacycles_per_frame`` — per-frame processing requirement [p(a)];
- ``db_requests_per_s`` — external database access rate [d(a)];
- ``object_bytes`` — virtual-object size fetched per request [o(a)];
- ``deadline`` — in-time execution constraint [δa].

Plus the I/O sizes the network actually carries: compressed frame
upload bytes, extracted-feature bytes, and result/metadata bytes.

:data:`APP_ARCHETYPES` instantiates the four usage classes of Figure 1
(orientation, virtual memorial, gaming, art) with resource envelopes
consistent with the paper's discussion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class MarApplication:
    """One MAR application's resource profile."""

    name: str
    description: str
    fps: float                      # f(a)
    megacycles_per_frame: float     # p(a)
    db_requests_per_s: float        # d(a)
    object_bytes: int               # o(a)
    deadline: float                 # δa (seconds, per frame, end-to-end)
    frame_upload_bytes: int         # compressed camera frame on the uplink
    feature_upload_bytes: int       # extracted-feature alternative payload
    result_bytes: int               # downlink result/meta-data per frame
    sensor_rate_bps: float = 20_000.0
    resolution: Tuple[int, int] = (640, 480)
    interactive: bool = True

    @property
    def frame_budget(self) -> float:
        """Inter-frame time 1/f(a) — the paper's minimum-rate reading of δa."""
        return 1.0 / self.fps

    @property
    def uplink_bps(self) -> float:
        """Offered uplink load under full-frame offloading."""
        return self.frame_upload_bytes * 8 * self.fps + self.sensor_rate_bps

    @property
    def downlink_bps(self) -> float:
        return self.result_bytes * 8 * self.fps


#: The four usage classes of Figure 1.
APP_ARCHETYPES: Dict[str, MarApplication] = {
    "orientation": MarApplication(
        name="orientation",
        description="POI overlay while walking (Yelp Monocle-like): light "
        "vision, heavy database access, relaxed deadline",
        fps=15.0,
        megacycles_per_frame=120.0,
        db_requests_per_s=2.0,
        object_bytes=24_000,
        deadline=0.100,
        frame_upload_bytes=18_000,
        feature_upload_bytes=4_000,
        result_bytes=2_000,
        resolution=(640, 480),
    ),
    "memorial": MarApplication(
        name="memorial",
        description="geo-anchored virtual memorial (Frontera de los "
        "Muertos-like): static 3-D content, moderate alignment accuracy",
        fps=20.0,
        megacycles_per_frame=220.0,
        db_requests_per_s=0.5,
        object_bytes=250_000,
        deadline=0.075,
        frame_upload_bytes=25_000,
        feature_upload_bytes=6_000,
        result_bytes=4_000,
        resolution=(960, 540),
    ),
    "gaming": MarApplication(
        name="gaming",
        description="interactive AR game (pulzAR-like): tight deadline, "
        "continuous tracking, frequent state sync",
        fps=30.0,
        megacycles_per_frame=400.0,
        db_requests_per_s=5.0,
        object_bytes=60_000,
        deadline=0.050,
        frame_upload_bytes=32_000,
        feature_upload_bytes=8_000,
        result_bytes=6_000,
        resolution=(1280, 720),
    ),
    "art": MarApplication(
        name="art",
        description="AR art display (Yunuene-like): rich visual overlays, "
        "quality over latency",
        fps=24.0,
        megacycles_per_frame=300.0,
        db_requests_per_s=1.0,
        object_bytes=1_000_000,
        deadline=0.100,
        frame_upload_bytes=40_000,
        feature_upload_bytes=7_000,
        result_bytes=12_000,
        resolution=(1280, 720),
    ),
}
