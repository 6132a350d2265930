"""repro.fleet — sharded multi-process campaign runner.

Turns the deterministic single-scenario engine into a campaign
machine: declare a :class:`Campaign` (scenario × parameter grid × seed
range), run it with :func:`run_campaign` across a process pool (or the
byte-identical serial fallback), and get back O(1)-sized mergeable
:class:`Aggregate` statistics per grid point.  Results are cached on
disk (:class:`ResultCache`) keyed by a content hash of the spec, so
re-running a sweep only executes missing shards.

See ``docs/FLEET.md`` for the spec format, the seed-derivation and
cache-key contracts, and how to replay a quarantined shard.
"""

from repro.fleet.aggregate import (
    Aggregate,
    FixedBinHistogram,
    OrderedReducer,
    StreamingMoments,
)
from repro.fleet.campaign import (
    Campaign,
    ShardSpec,
    get_scenario,
    register_scenario,
    shard_seed,
)
from repro.fleet.cache import ResultCache
from repro.fleet.flight import (
    FlightRecorder,
    collect_flight_dump,
    flight_summary,
    read_flight_dump,
)
from repro.fleet.scenarios import demo_campaigns
from repro.fleet.telemetry import (
    TelemetryCollector,
    worker_timeline_events,
    worker_timeline_json,
    write_campaign_telemetry,
)
from repro.fleet.workers import (
    FaultInjection,
    FleetResult,
    ShardOutcome,
    plan_batches,
    run_campaign,
    run_shard,
    usable_cpus,
)

__all__ = [
    "Aggregate",
    "Campaign",
    "FaultInjection",
    "FixedBinHistogram",
    "FleetResult",
    "FlightRecorder",
    "OrderedReducer",
    "ResultCache",
    "ShardOutcome",
    "ShardSpec",
    "StreamingMoments",
    "TelemetryCollector",
    "collect_flight_dump",
    "demo_campaigns",
    "flight_summary",
    "get_scenario",
    "plan_batches",
    "read_flight_dump",
    "register_scenario",
    "run_campaign",
    "run_shard",
    "shard_seed",
    "usable_cpus",
    "worker_timeline_events",
    "worker_timeline_json",
    "write_campaign_telemetry",
]
