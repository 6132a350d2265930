"""Unified observability: span tracing, event logs, metrics, exporters.

The paper's argument is a latency *decomposition* — where do the
milliseconds of a MAR frame go (capture, uplink, server CV, downlink,
render)?  ``repro.obs`` makes that decomposition a first-class,
deterministic artifact, and is the one home of the sim-clock records,
their instruments and their serializers:

- :mod:`repro.obs.spans` — a sim-clock-driven :class:`Tracer` with
  nested :class:`Span` objects and the :class:`FrameTrace` convention
  (one trace id per AR frame, threaded client → network → server →
  back), decomposed by the module-level ``breakdown(root)``; and the
  bounded :class:`EventLog` of MARTP protocol events.
- :mod:`repro.obs.registry` — typed Counter/Gauge/Histogram instruments
  in a per-``Simulator`` :class:`MetricsRegistry` whose histograms and
  gauges reuse the mergeable :mod:`repro.analysis.stats` primitives, so
  fleet shards fold their registries into aggregates byte-identically.
- :mod:`repro.obs.export` — Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``; the same builders render the fleet's
  worker timelines), the only qlog serializer, and a plain-dict
  span-count snapshot for the ``repro obs`` summary.
- :mod:`repro.obs.instrument` — hooks that attach the tracer to the
  offload frame pipeline and an event log to a MARTP sender, periodic
  queue/link samplers, and collectors that snapshot link/queue/MARTP
  counters into a registry without touching any hot path when disabled.
- :mod:`repro.obs.runner` — ready-made observed scenarios behind
  ``python -m repro obs``.

Everything draws time from ``sim.now`` — traces and metrics are a pure
function of ``(scenario, seed)``, and the observed scenarios run under
the wall-clock and global-random guards of ``docs/DETERMINISM.md``.
See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.export import (
    chrome_trace_events,
    chrome_trace_json,
    qlog_lines,
    reconcile_frame_spans,
    snapshot,
    validate_chrome_trace,
)
from repro.obs.instrument import (
    FrameObserver,
    LinkMonitor,
    QueueMonitor,
    attach_frame_observer,
    collect_links,
    collect_martp,
    instrument_sender,
    path_costs,
)
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.runner import OBS_SCENARIOS, ObsRun, run_obs_scenario
from repro.obs.spans import EventLog, FrameTrace, Span, Tracer

__all__ = [
    "Counter",
    "EventLog",
    "FrameObserver",
    "FrameTrace",
    "Gauge",
    "Histogram",
    "LinkMonitor",
    "MetricsRegistry",
    "OBS_SCENARIOS",
    "ObsRun",
    "QueueMonitor",
    "Span",
    "Tracer",
    "attach_frame_observer",
    "chrome_trace_events",
    "chrome_trace_json",
    "collect_links",
    "collect_martp",
    "instrument_sender",
    "path_costs",
    "qlog_lines",
    "run_obs_scenario",
    "snapshot",
    "reconcile_frame_spans",
    "validate_chrome_trace",
]
