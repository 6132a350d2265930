"""Sim-clock span tracing with a per-frame trace convention.

A :class:`Span` is a named interval of simulated time with key/value
attributes and nested children; a :class:`Tracer` hands them out with
deterministic ids and records every span in start order.  There is no
wall clock anywhere — ``start``/``end`` come from ``sim.now``, so the
full trace of a run is a pure function of ``(scenario, seed)`` and two
identical runs export byte-identical artifacts.

:class:`FrameTrace` is the convention that makes one AR frame a single
trace: a root ``frame`` span (whose ``trace_id`` doubles as the Chrome
trace ``tid``, giving each in-flight frame its own track in Perfetto)
with *contiguous* stage children — ``local`` compute, ``uplink``,
``server`` compute, ``downlink``, a zero-length ``render`` marker —
so the children's summed durations telescope exactly to the frame's
end-to-end latency.  :meth:`FrameTrace.breakdown` additionally splits
network stages into serialization / propagation / queueing using the
per-stage link-cost attributes the instrumentation attaches.

The other sim-clock record is the protocol event: an :class:`EventLog`
holds timestamped MARTP decisions (congestion, allocation, shedding,
recovery) as qlog records, bounded and with a drop count.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.simnet.engine import Simulator

#: Attribute keys the breakdown uses to split a network stage.
SERIALIZATION_ATTR = "serialization_s"
PROPAGATION_ATTR = "propagation_s"


class Span:
    """One named interval of sim time; a node in a frame's span tree."""

    __slots__ = ("name", "cat", "trace_id", "span_id", "parent_id",
                 "start", "end", "attrs", "children")

    def __init__(self, name: str, cat: str, trace_id: int, span_id: int,
                 parent_id: Optional[int], start: float,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.cat = cat
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}
        self.children: List["Span"] = []

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Seconds of sim time covered; 0.0 while unfinished."""
        return (self.end - self.start) if self.end is not None else 0.0

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"{self.duration * 1e3:.3f}ms" if self.finished else "open"
        return f"<Span {self.name} t{self.trace_id} {state}>"


class Tracer:
    """Hands out spans stamped with ``sim.now``; records start order.

    The tracer is *opt-in per call site*: instrumented code holds an
    ``Optional[Tracer]`` and guards every hook with ``if tracer is not
    None`` — the disabled path allocates nothing.
    """

    __slots__ = ("sim", "spans", "_next_span_id", "_next_trace_id")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: Every span ever started, in start order (deterministic).
        self.spans: List[Span] = []
        self._next_span_id = 1
        self._next_trace_id = 1

    # ------------------------------------------------------------------
    def new_trace_id(self) -> int:
        tid = self._next_trace_id
        self._next_trace_id += 1
        return tid

    def start_span(self, name: str, cat: str = "frame",
                   parent: Optional[Span] = None,
                   attrs_dict: Optional[Dict[str, Any]] = None,
                   **attrs: Any) -> Span:
        """Open a span at ``sim.now``.

        ``attrs_dict`` is the hot-path spelling: the span takes
        ownership of the dict without copying (don't reuse it).  The
        ``**attrs`` form is the convenient one for call sites off the
        per-event path.
        """
        trace_id = parent.trace_id if parent is not None \
            else self.new_trace_id()
        if attrs_dict is not None:
            if attrs:
                attrs_dict.update(attrs)
        elif attrs:
            attrs_dict = attrs   # fresh **kwargs dict; safe to own
        span = Span(name, cat, trace_id, self._next_span_id,
                    parent.span_id if parent is not None else None,
                    self.sim.now, attrs_dict)
        self._next_span_id += 1
        if parent is not None:
            parent.children.append(span)
        self.spans.append(span)
        return span

    def finish(self, span: Span, **attrs: Any) -> Span:
        """End ``span`` at ``sim.now`` (idempotent: first end wins)."""
        if attrs:
            span.attrs.update(attrs)
        if span.end is None:
            span.end = self.sim.now
        return span

    # ------------------------------------------------------------------
    def frame_roots(self) -> List[Span]:
        """Finished per-frame root spans, in start order."""
        return [s for s in self.spans
                if s.parent_id is None and s.name == "frame" and s.finished]

    def __len__(self) -> int:
        return len(self.spans)


class FrameTrace:
    """One AR frame's trace: a root span with contiguous stage children.

    ``begin(stage)`` ends the current stage (at ``sim.now``) and starts
    the next one at the same instant, so stages tile the frame interval
    without gaps or overlap; ``complete()`` ends the last stage, drops a
    zero-length ``render`` marker, and closes the root.  Because the
    stage boundaries are shared timestamps, the children's durations sum
    *exactly* to the root's duration — the reconciliation the exporter
    tests rely on (and which survives integer-microsecond rounding,
    since rounded boundary differences telescope).
    """

    __slots__ = ("tracer", "root", "current")

    def __init__(self, tracer: Tracer, frame_index: int, **attrs: Any) -> None:
        self.tracer = tracer
        self.root = tracer.start_span(
            "frame", cat="frame", frame=frame_index, **attrs)
        self.current: Optional[Span] = None

    # ------------------------------------------------------------------
    def begin(self, stage: str,
              attrs_dict: Optional[Dict[str, Any]] = None,
              **attrs: Any) -> Span:
        """Close the current stage and open ``stage`` at ``sim.now``.

        ``attrs_dict`` passes attributes without a copy (ownership
        transfers to the span), mirroring
        :meth:`Tracer.start_span`.
        """
        if self.current is not None:
            self.tracer.finish(self.current)
        self.current = self.tracer.start_span(
            stage, cat="frame", parent=self.root, attrs_dict=attrs_dict, **attrs)
        return self.current

    def mark(self, name: str, **attrs: Any) -> Span:
        """A zero-length child marker (e.g. ``render``) at ``sim.now``."""
        span = self.tracer.start_span(name, cat="frame",
                                      parent=self.root, **attrs)
        self.tracer.finish(span)
        return span

    def complete(self, outcome: str = "ok", **attrs: Any) -> Span:
        """End the open stage and the root span at ``sim.now``."""
        if self.current is not None:
            self.tracer.finish(self.current)
            self.current = None
        self.root.set(outcome=outcome, **attrs)
        return self.tracer.finish(self.root)


def breakdown(root: Span) -> Dict[str, Any]:
    """Decompose a frame root span into stages and critical-path buckets.

    Returns ``{"total", "stages": {name: seconds}, "critical_path":
    {"compute", "serialization", "propagation", "queueing",
    "render"}}``.  A stage carrying the serialization/propagation
    attributes (a network stage) contributes its analytic wire costs to
    those buckets and the remainder — time the bytes spent waiting
    rather than moving — to ``queueing``; every other stage counts as
    compute (``render`` markers are their own bucket).
    """
    stages: Dict[str, float] = {}
    path = {"compute": 0.0, "serialization": 0.0,
            "propagation": 0.0, "queueing": 0.0, "render": 0.0}
    for child in root.children:
        if not child.finished:
            continue
        dur = child.duration
        stages[child.name] = stages.get(child.name, 0.0) + dur
        if SERIALIZATION_ATTR in child.attrs:
            ser = min(dur, float(child.attrs[SERIALIZATION_ATTR]))
            prop = min(dur - ser, float(child.attrs.get(PROPAGATION_ATTR, 0.0)))
            path["serialization"] += ser
            path["propagation"] += prop
            path["queueing"] += max(0.0, dur - ser - prop)
        elif child.name == "render":
            path["render"] += dur
        else:
            path["compute"] += dur
    return {"total": root.duration, "stages": stages,
            "critical_path": path}


# ----------------------------------------------------------------------
# Protocol events
# ----------------------------------------------------------------------
#: The categories an :class:`EventLog` accepts.
CATEGORIES = (
    "congestion",      # budget changes, congestion events
    "allocation",      # degradation rounds
    "shedding",        # messages dropped at the sender
    "recovery",        # ARQ retransmissions / abandonments
    "path",            # multipath usability / RTT changes
    "frame",           # per-frame span completions (repro.obs tracing)
    "metric",          # registry snapshots (repro.obs exporters)
    "meta",            # about the log itself (summaries, drop counts)
)


#: Events an :class:`EventLog` keeps; later ones are only counted.
EVENT_LOG_CAP = 100_000


class EventLog:
    """A bounded, append-only log of timestamped protocol events.

    Each event is kept as the qlog record it exports as —
    ``{"time", "category", "name", "data"}`` — and
    :func:`repro.obs.export.qlog_lines` interleaves the records with
    span completions.  Past ``EVENT_LOG_CAP`` events one is counted in
    ``dropped`` instead of kept; :meth:`summary` (the export's
    ``meta``/``log-summary`` trailer) surfaces that, so a truncated log
    is visibly truncated.  :func:`repro.obs.instrument.instrument_sender`
    fills one from a MARTP sender.
    """

    __slots__ = ("events", "dropped")

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        self.dropped = 0

    def emit(self, time: float, category: str, name: str, **data: Any) -> None:
        if category not in CATEGORIES:
            raise ValueError(f"unknown category {category!r}")
        if len(self.events) >= EVENT_LOG_CAP:
            self.dropped += 1
            return
        self.events.append({"time": time, "category": category,
                            "name": name, "data": data})

    def summary(self) -> Dict[str, Any]:
        """Totals an operator needs before trusting the log.

        ``dropped > 0`` means the stream is *incomplete* — events past
        ``EVENT_LOG_CAP`` were discarded — which silent exports would
        otherwise hide.
        """
        by_category: Dict[str, int] = {}
        for event in self.events:
            category = event["category"]
            by_category[category] = by_category.get(category, 0) + 1
        return {
            "events": len(self.events),
            "dropped": self.dropped,
            "complete": self.dropped == 0,
            "by_category": dict(sorted(by_category.items())),
        }

    def __len__(self) -> int:
        return len(self.events)
