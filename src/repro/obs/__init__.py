"""Unified observability: span tracing, metrics, standard exporters.

The paper's argument is a latency *decomposition* — where do the
milliseconds of a MAR frame go (capture, uplink, server CV, downlink,
render)?  ``repro.obs`` makes that decomposition a first-class,
deterministic artifact instead of five ad-hoc mechanisms:

- :mod:`repro.obs.spans` — a sim-clock-driven :class:`Tracer` with
  nested :class:`Span` objects and the :class:`FrameTrace` convention
  (one trace id per AR frame, threaded client → network → server →
  back), queryable as ``trace.breakdown()``.
- :mod:`repro.obs.registry` — typed Counter/Gauge/Histogram instruments
  in a per-``Simulator`` :class:`MetricsRegistry` whose histograms and
  gauges reuse the mergeable :mod:`repro.analysis.stats` primitives, so
  fleet shards can merge registries byte-identically.
- :mod:`repro.obs.export` — Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``), qlog-style JSON lines unified with
  :mod:`repro.core.qlog` categories, and plain-dict snapshots for
  :mod:`repro.analysis.report`.
- :mod:`repro.obs.instrument` — hooks that attach the tracer to the
  offload frame pipeline and collect link/queue/MARTP counters into a
  registry without touching any hot path when disabled.
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
    attach_frame_observer,
    collect_links,
    collect_martp,
    path_costs,
)
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.runner import OBS_SCENARIOS, ObsRun, run_obs_scenario
from repro.obs.spans import FrameTrace, Span, Tracer

__all__ = [
    "Counter",
    "FrameObserver",
    "FrameTrace",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OBS_SCENARIOS",
    "ObsRun",
    "Span",
    "Tracer",
    "attach_frame_observer",
    "chrome_trace_events",
    "chrome_trace_json",
    "collect_links",
    "collect_martp",
    "path_costs",
    "qlog_lines",
    "run_obs_scenario",
    "snapshot",
    "reconcile_frame_spans",
    "validate_chrome_trace",
]
