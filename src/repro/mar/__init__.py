"""MAR application and offloading models (Section III of the paper).

- :mod:`~repro.mar.devices` — the device ecosystem of Table I.
- :mod:`~repro.mar.application` — the MAR application model: frame rate
  f(a), per-frame processing p(a), database access rate d(a), virtual
  object size o(a), and deadline δa.
- :mod:`~repro.mar.video` — bandwidth estimates of Section III-B (raw
  retina rate, uncompressed 4K, compressed ladder) and a GOP-structured
  video source.
- :mod:`~repro.mar.compute` — the execution-delay equations P_local,
  P_local+externalDB and P_offloading.
- :mod:`~repro.mar.offload` — offloading strategies (local, full
  offload, CloudRidAR feature split, Glimpse tracking split) and a
  simnet-driven executor measuring real per-frame latency.
- :mod:`~repro.mar.cache` — virtual-object cache/prefetch (the x
  parameter).
"""

from repro.mar.devices import Device, CLOUD, DESKTOP, LAPTOP, SMART_GLASSES, SMARTPHONE, TABLET, all_devices
from repro.mar.application import MarApplication, APP_ARCHETYPES
from repro.mar.video import (
    VideoSource,
    compressed_bitrate,
    raw_retina_rate_bps,
    camera_fov_rate_bps,
    uncompressed_bitrate,
)
from repro.mar.compute import (
    ExecutionBudget,
    local_delay,
    local_with_db_delay,
    offloading_delay,
    feasible_locally,
)
from repro.mar.offload import (
    OffloadStrategy,
    FramePlan,
    LocalOnly,
    FullOffload,
    FeatureOffload,
    TrackingOffload,
    OffloadExecutor,
    ResilientOffloadExecutor,
    SessionResult,
)
from repro.mar.cache import ObjectCache
from repro.mar.dataplan import DataPlan, TYPICAL_PLANS, cheapest_plan, monthly_cost_of_usage
from repro.mar.prefetch import GridWorld, MarkovPredictor, PrefetchingCache

__all__ = [
    "Device",
    "SMART_GLASSES",
    "SMARTPHONE",
    "TABLET",
    "LAPTOP",
    "DESKTOP",
    "CLOUD",
    "all_devices",
    "MarApplication",
    "APP_ARCHETYPES",
    "VideoSource",
    "raw_retina_rate_bps",
    "camera_fov_rate_bps",
    "uncompressed_bitrate",
    "compressed_bitrate",
    "ExecutionBudget",
    "local_delay",
    "local_with_db_delay",
    "offloading_delay",
    "feasible_locally",
    "OffloadStrategy",
    "FramePlan",
    "LocalOnly",
    "FullOffload",
    "FeatureOffload",
    "TrackingOffload",
    "OffloadExecutor",
    "ResilientOffloadExecutor",
    "SessionResult",
    "ObjectCache",
    "DataPlan",
    "TYPICAL_PLANS",
    "cheapest_plan",
    "monthly_cost_of_usage",
    "GridWorld",
    "MarkovPredictor",
    "PrefetchingCache",
]
