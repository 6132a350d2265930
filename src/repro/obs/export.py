"""Exporters: Chrome trace events, qlog JSON lines, report snapshots.

Three consumers, three formats, one deterministic source of truth:

- :func:`chrome_trace_json` — the Chrome trace-event format (JSON
  object with a ``traceEvents`` array of ``"ph": "X"`` complete
  events), loadable in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.  Each frame's ``trace_id`` becomes the ``tid``,
  so concurrently in-flight frames render as separate named tracks.
- :func:`qlog_lines` — JSON lines in the qlog event schema
  (``time``/``category``/``name``/``data``, sorted keys), so span
  completions, the MARTP protocol events of an
  :class:`~repro.obs.spans.EventLog` and a metrics snapshot interleave
  into one chronological stream.
- :func:`snapshot` — the tracer's span counts as a plain dict, for the
  ``repro obs`` summary line.

The trace-event builders (:func:`metadata_event`,
:func:`complete_event`, :func:`trace_document_json`) also render the
fleet's wall-clock worker timelines
(:func:`repro.fleet.telemetry.worker_timeline_json`).

Timestamps in the Chrome export are integer microseconds.  Durations
are differences of *rounded endpoints*, not rounded differences: for
the contiguous stage children of a :class:`~repro.obs.spans.FrameTrace`
the rounding then telescopes, and child durations sum exactly to the
root's — the ±1 µs reconciliation guarantee.

All serialization is canonical (sorted keys, fixed separators): same
``(scenario, seed)`` → byte-identical artifacts.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.analysis.stats import CANONICAL_JSON
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import EventLog, Tracer


def _us(t: float) -> int:
    """Seconds → integer microseconds (the Chrome trace unit)."""
    return int(round(t * 1e6))


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------
def metadata_event(kind: str, pid: int, tid: int, label: str) -> dict:
    """A ``"M"`` event naming a track: ``kind`` is ``"process_name"``
    or ``"thread_name"``."""
    return {"args": {"name": label}, "cat": "__metadata", "name": kind,
            "ph": "M", "pid": pid, "tid": tid, "ts": 0}


def complete_event(name: str, cat: str, pid: int, tid: int, t0: float,
                   t1: float, args: dict) -> dict:
    """An ``"X"`` slice from ``t0`` to ``t1`` seconds.

    The duration is the difference of the *rounded* endpoints, so
    contiguous slices telescope; both are clamped at 0, which a
    sim-clock span (``0 <= t0 <= t1``) never needs.
    """
    ts = _us(t0)
    return {"args": args, "cat": cat, "dur": max(0, _us(t1) - ts),
            "name": name, "ph": "X", "pid": pid, "tid": tid,
            "ts": max(0, ts)}


def trace_document_json(events: List[dict]) -> str:
    """The canonical Chrome-trace document around ``events``."""
    return json.dumps({"displayTimeUnit": "ms", "traceEvents": events},
                      **CANONICAL_JSON)


#: The Chrome trace's one process: its ``pid`` and its name.
TRACE_PID = 1
TRACE_PROCESS_NAME = "repro"

#: Largest gap, in exported µs, between a frame's duration and the sum
#: of its stages that :func:`reconcile_frame_spans` accepts.
RECONCILE_TOLERANCE_US = 1


def chrome_trace_events(tracer: Tracer) -> List[dict]:
    """Build the ``traceEvents`` list (metadata + complete events)."""
    pid = TRACE_PID
    events = [metadata_event("process_name", pid, 0, TRACE_PROCESS_NAME)]
    named_tids = set()
    for span in tracer.spans:
        if span.parent_id is None and span.trace_id not in named_tids:
            named_tids.add(span.trace_id)
            label = f"frame {span.attrs['frame']}" if "frame" in span.attrs \
                else f"trace {span.trace_id}"
            events.append(metadata_event("thread_name", pid,
                                         span.trace_id, label))
    for span in tracer.spans:
        if not span.finished:
            continue
        args: Dict[str, Any] = dict(sorted(span.attrs.items()))
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append(complete_event(span.name, span.cat, pid,
                                     span.trace_id, span.start, span.end,
                                     args))
    return events


def chrome_trace_json(tracer: Tracer) -> str:
    """Canonical Chrome-trace JSON (Perfetto-loadable), byte-stable."""
    return trace_document_json(chrome_trace_events(tracer))


def validate_chrome_trace(doc: Any) -> List[str]:
    """Minimal schema check; returns a list of problems (empty = valid).

    Checks the invariants Perfetto's importer actually depends on:
    a ``traceEvents`` array of objects, every event carrying string
    ``name``/``ph`` and integer ``pid``/``tid``/``ts``, and every
    complete (``"X"``) event a non-negative integer ``dur``.
    """
    problems: List[str] = []
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            return [f"not JSON: {exc}"]
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["top level must be an object with a 'traceEvents' array"]
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be an array"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        for key, kind in (("name", str), ("ph", str)):
            if not isinstance(ev.get(key), kind):
                problems.append(f"event {i}: missing/invalid {key!r}")
        for key in ("pid", "tid", "ts"):
            if not isinstance(ev.get(key), int):
                problems.append(f"event {i}: missing/invalid {key!r}")
        if ev.get("ph") == "X":
            dur = ev.get("dur")
            if not isinstance(dur, int) or dur < 0:
                problems.append(f"event {i}: 'X' event needs integer dur >= 0")
            if isinstance(ev.get("ts"), int) and ev["ts"] < 0:
                problems.append(f"event {i}: negative ts")
    return problems


def reconcile_frame_spans(tracer: Tracer) -> List[str]:
    """Check the stage-sum-equals-frame invariant; returns problems.

    For every finished frame root, the exported (integer-µs) durations
    of its stage children must sum to the root's duration within
    ``RECONCILE_TOLERANCE_US``.  Because :class:`~repro.obs.spans.FrameTrace`
    makes stages contiguous and :func:`chrome_trace_events` rounds
    endpoints (not differences), the telescoping sum is normally exact
    — a failure here means an instrumentation hook opened a gap or
    overlap in the frame timeline.
    """
    problems: List[str] = []
    roots = tracer.frame_roots()
    if not roots:
        return ["no completed frame traces"]
    for root in roots:
        root_dur = _us(root.end) - _us(root.start)
        child_sum = sum(_us(c.end) - _us(c.start)
                        for c in root.children if c.finished)
        if any(not c.finished for c in root.children):
            problems.append(
                f"frame {root.attrs.get('frame')}: unfinished child span")
            continue
        if abs(child_sum - root_dur) > RECONCILE_TOLERANCE_US:
            problems.append(
                f"frame {root.attrs.get('frame')}: stage sum {child_sum} µs "
                f"!= frame {root_dur} µs (±{RECONCILE_TOLERANCE_US} µs)")
    return problems


# ----------------------------------------------------------------------
# qlog-style JSON lines
# ----------------------------------------------------------------------
def qlog_lines(tracer: Optional[Tracer] = None,
               log: Optional[EventLog] = None,
               registry: Optional[MetricsRegistry] = None) -> str:
    """One chronological qlog-schema stream from all three sources.

    Span completions become ``category="frame"`` records at their end
    time, an :class:`~repro.obs.spans.EventLog`'s protocol records keep
    their categories and end with its ``meta``/``log-summary`` trailer,
    and a registry contributes one final ``category="metric"`` snapshot
    record.  Records sort stably by time, so the merged stream is
    deterministic.  This is the only qlog serializer.
    """
    records: List[dict] = []
    if tracer is not None:
        for span in tracer.spans:
            if not span.finished:
                continue
            data = dict(sorted(span.attrs.items()))
            data.update(trace_id=span.trace_id, span_id=span.span_id,
                        start=span.start, duration=span.duration)
            if span.parent_id is not None:
                data["parent_id"] = span.parent_id
            records.append({"time": span.end, "category": "frame",
                            "name": span.name, "data": data})
    last_time = max((r["time"] for r in records), default=0.0)
    if log is not None:
        records.extend(log.events)
        last_time = max([last_time, *(e["time"] for e in log.events)])
        records.append({"time": last_time, "category": "meta",
                        "name": "log-summary", "data": log.summary()})
    if registry is not None:
        records.append({"time": last_time, "category": "metric",
                        "name": "registry-snapshot",
                        "data": registry.to_dict()})
    records.sort(key=lambda r: r["time"])
    return "\n".join(json.dumps(r, sort_keys=True) for r in records)


# ----------------------------------------------------------------------
# Plain-dict snapshot for analysis/report
# ----------------------------------------------------------------------
def snapshot(tracer: Tracer) -> dict:
    """A report-friendly dict of the tracer's span counts: frame trees
    traced, spans in all, spans left unfinished."""
    return {
        "traced": len(tracer.frame_roots()),
        "spans": len(tracer.spans),
        "unfinished": sum(1 for s in tracer.spans if not s.finished),
    }
