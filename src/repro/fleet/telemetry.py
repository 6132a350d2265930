"""Fleet telemetry bus: structured wall-clock events for campaign runs.

The fleet's determinism contract deliberately keeps wall-clock time out
of every result artifact — which also made the runtime unobservable: a
slow shard, an idle worker, a ballooning reducer buffer all vanished
into one ``elapsed`` float.  This module is the other half of the
bargain: a **telemetry side-channel** that rides the existing result
wire (worker batches return their events next to their shard results),
aggregates in the driver, and never touches an aggregate byte.

Event stream
------------
Every event is a small dict with an ``ev`` kind and wall-clock offsets
(seconds since the collector's epoch; workers share the epoch because
``time.monotonic`` is CLOCK_MONOTONIC — system-wide — under the fork
start method the pool prefers).  Worker-side kinds:

- ``shard`` — one shard attempt: tag, attempt, ``t0``/``t1``, ok flag.
- ``batch`` — one dispatched batch: span, shard count, worker RSS
  high-water mark (``ru_maxrss``).

Driver-side kinds: ``cache_pass`` (span + hit/miss counts),
``dispatch``/``batch_done`` (pool saturation), ``merge`` (the
:class:`~repro.fleet.aggregate.OrderedReducer` buffer depth after each
offered result), ``retry``, ``timeout``, ``pool_break`` and
``quarantine``.

Artifacts
---------
:meth:`TelemetryCollector.finalize` folds the stream into the canonical
``campaign_telemetry.json`` document (schema in ``docs/FLEET.md``), and
:func:`worker_timeline_json` renders the same document as a Chrome
trace-event timeline — one process per worker pid, one ``"X"`` slice
per shard — validated by the same
:func:`repro.obs.export.validate_chrome_trace` the obs exporters use
(fleet → obs is the permitted import direction; see
``repro.fleet.aggregate``).  The timeline's events and every document's
canonical JSON come from the trace-event builders of
:mod:`repro.obs.export`, imported where an artifact is rendered, so a
campaign run without telemetry never loads the obs package.

None of this participates in the determinism boundary: telemetry is
collected beside the result path, and enabling it changes no aggregate
byte — pinned by ``tests/test_fleet_telemetry.py``; its cost is a
Python-frame budget in ``tests/test_hot_path_budget.py``.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import time
from typing import Any, Dict, List

from repro.analysis.stats import CANONICAL_JSON

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None

#: Bump when the campaign_telemetry.json document shape changes.
TELEMETRY_SCHEMA = 2

#: Retained-event cap: bounds document size on huge campaigns.  Summary
#: sections are computed from *all* events; only the raw ``events`` list
#: is truncated, and ``events_dropped`` says by how much.
EVENT_CAP = 20000


def rss_kib() -> int:
    """This process's peak RSS in KiB (0 where unavailable)."""
    if resource is None:  # pragma: no cover - non-POSIX
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class TelemetryCollector:
    """Driver-side event sink for one campaign run.

    Create one, pass it to :func:`repro.fleet.workers.run_campaign`
    (``telemetry=collector``); the finished
    :class:`~repro.fleet.workers.FleetResult` then carries the
    finalized document in ``result.telemetry``.
    """

    def __init__(self) -> None:
        self.epoch = time.monotonic()
        self.events: List[dict] = []
        self.dropped = 0

    def now(self) -> float:
        """Seconds since this collector's epoch (the shared time base)."""
        return time.monotonic() - self.epoch

    def record(self, event: dict) -> None:
        if len(self.events) >= EVENT_CAP:
            self.dropped += 1
            return
        self.events.append(event)

    def absorb(self, worker_events: List[dict]) -> None:
        """Take a batch's worker-side events off the result wire."""
        for event in worker_events:
            self.record(event)

    # ------------------------------------------------------------------
    def finalize(self, campaign, scenario, result,
                 flight_dir=None) -> dict:
        """Fold the event stream into the canonical telemetry document."""
        shard_events = [e for e in self.events if e.get("ev") == "shard"]
        batch_events = [e for e in self.events if e.get("ev") == "batch"]

        workers: Dict[str, Dict[str, Any]] = {}
        for e in shard_events:
            w = workers.setdefault(str(e.get("pid", 0)), {
                "shards": 0, "ok": 0, "err": 0, "busy_s": 0.0,
                "batches": 0, "max_rss_kib": 0})
            w["shards"] += 1
            w["ok" if e.get("ok") else "err"] += 1
            w["busy_s"] += max(0.0, e.get("t1", 0.0) - e.get("t0", 0.0))
        for e in batch_events:
            w = workers.setdefault(str(e.get("pid", 0)), {
                "shards": 0, "ok": 0, "err": 0, "busy_s": 0.0,
                "batches": 0, "max_rss_kib": 0})
            w["batches"] += 1
            w["max_rss_kib"] = max(w["max_rss_kib"],
                                   int(e.get("rss_kib", 0)))
        for w in workers.values():
            w["busy_s"] = round(w["busy_s"], 6)

        costs: Dict[str, float] = {}
        if scenario is not None:
            for spec in campaign.shards():
                costs[spec.tag] = scenario.shard_cost(spec.param_dict())
        slowest = sorted(
            ({"tag": e["tag"], "pid": e.get("pid", 0),
              "attempt": e.get("attempt", 0),
              "wall_s": round(max(0.0, e["t1"] - e["t0"]), 6),
              "cost": costs.get(e["tag"], 1.0),
              "wall_per_cost": round(
                  max(0.0, e["t1"] - e["t0"])
                  / max(costs.get(e["tag"], 1.0), 1e-9), 6)}
             for e in shard_events if e.get("ok")),
            key=lambda row: -row["wall_per_cost"])[:8]

        counters = {"retries": 0, "timeouts": 0, "pool_breaks": 0,
                    "quarantines": 0}
        for e in self.events:
            kind = e.get("ev")
            if kind == "retry":
                counters["retries"] += 1
            elif kind == "timeout":
                counters["timeouts"] += 1
            elif kind == "pool_break":
                counters["pool_breaks"] += 1
            elif kind == "quarantine":
                counters["quarantines"] += 1

        doc = {
            "schema": TELEMETRY_SCHEMA,
            "campaign": {
                "name": campaign.name,
                "scenario": campaign.scenario,
                "fingerprint16": campaign.fingerprint()[:16],
                "spec": campaign.spec_dict(),
                "shards": len(result.outcomes),
                "cost_total": round(math.fsum(costs.values()), 6),
            },
            "run": {
                "driver_pid": os.getpid(),
                "workers": result.workers,
                "start_method": result.start_method,
                "elapsed_s": round(result.elapsed, 6),
                "batches": result.n_batches,
                "max_buffered": result.max_buffered,
            },
            "cache": {"hits": result.cache_hits,
                      "misses": result.cache_misses},
            "shards": {
                "ok": result.completed,
                "quarantined": len(result.quarantined),
                **counters,
            },
            "workers": dict(sorted(workers.items())),
            "slowest": slowest,
            "events": self.events,
            "events_dropped": self.dropped,
        }
        if flight_dir is not None:
            from repro.fleet.flight import flight_summary

            doc["flight"] = {"dir": str(flight_dir),
                             **flight_summary(flight_dir)}
        return doc


# ----------------------------------------------------------------------
# Chrome trace-event export of worker timelines
# ----------------------------------------------------------------------
def worker_timeline_events(doc: dict) -> List[dict]:
    """``traceEvents`` for a finalized telemetry document.

    One Perfetto process per worker pid (named ``worker <pid>``, the
    driver is ``fleet driver``); shard attempts are ``"X"`` complete
    slices on tid 0, batches on tid 1, and driver bookkeeping events
    (cache pass, dispatch, retries, quarantines) are instant events on
    the driver track.
    """
    from repro.obs.export import _us, complete_event, metadata_event

    driver_pid = int(doc.get("run", {}).get("driver_pid", 0))
    events = [metadata_event("process_name", driver_pid, 0, "fleet driver")]
    for pid_str in sorted(doc.get("workers", {})):
        pid = int(pid_str)
        if pid == driver_pid:
            continue
        events.append(metadata_event("process_name", pid, 0, f"worker {pid}"))
    for e in doc.get("events", []):
        kind = e.get("ev")
        pid = int(e.get("pid", driver_pid))
        t0, t1 = e.get("t0", 0.0), e.get("t1", 0.0)
        if kind == "shard":
            events.append(complete_event(
                e.get("tag", "?"), "shard", pid, 0, t0, t1,
                {"attempt": e.get("attempt", 0), "ok": bool(e.get("ok"))}))
        elif kind == "batch":
            events.append(complete_event(
                f"batch[{e.get('n', 0)}]", "batch", pid, 1, t0, t1,
                {"shards": e.get("n", 0), "rss_kib": e.get("rss_kib", 0)}))
        elif kind == "cache_pass":
            events.append(complete_event(
                "cache_pass", "driver", driver_pid, 0, t0, t1,
                {"hits": e.get("hits", 0), "misses": e.get("misses", 0)}))
        else:
            args = {k: v for k, v in sorted(e.items())
                    if k not in ("ev", "t", "pid")}
            events.append({
                "args": args, "cat": "driver", "name": str(kind),
                "ph": "i", "pid": driver_pid, "s": "p", "tid": 0,
                "ts": max(0, _us(e.get("t", 0.0))),
            })
    return events


def worker_timeline_json(doc: dict) -> str:
    """Canonical Chrome-trace JSON of the worker timelines."""
    from repro.obs.export import trace_document_json

    return trace_document_json(worker_timeline_events(doc))


def write_campaign_telemetry(path, doc: dict) -> pathlib.Path:
    """Write the canonical ``campaign_telemetry.json`` document."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, **CANONICAL_JSON) + "\n")
    return path


__all__ = [
    "EVENT_CAP",
    "TELEMETRY_SCHEMA",
    "TelemetryCollector",
    "rss_kib",
    "worker_timeline_events",
    "worker_timeline_json",
    "write_campaign_telemetry",
]
