"""Tests for the span tracer and per-frame trace convention."""

from contextlib import contextmanager

import pytest

from repro.obs.export import chrome_trace_json
from repro.obs.spans import (
    PROPAGATION_ATTR,
    SERIALIZATION_ATTR,
    FrameTrace,
    Tracer,
    breakdown,
)
from repro.simnet.engine import Simulator


def advance(sim, dt):
    """Move the sim clock forward by scheduling an empty event."""
    sim.schedule(dt, lambda: None)
    sim.run()


@contextmanager
def open_span(tracer, name, **attrs):
    """Open a span for the body of a ``with`` block, finishing it on exit."""
    s = tracer.start_span(name, **attrs)
    try:
        yield s
    finally:
        tracer.finish(s)


class TestTracer:
    def test_span_times_come_from_sim_clock(self):
        sim = Simulator(seed=1)
        tracer = Tracer(sim)
        span = tracer.start_span("work")
        advance(sim, 0.25)
        tracer.finish(span)
        assert span.start == 0.0
        assert span.end == 0.25
        assert span.duration == pytest.approx(0.25)

    def test_nesting_links_parent_and_trace(self):
        sim = Simulator(seed=1)
        tracer = Tracer(sim)
        root = tracer.start_span("frame")
        child = tracer.start_span("uplink", parent=root)
        assert child.parent_id == root.span_id
        assert child.trace_id == root.trace_id
        assert child in root.children
        assert [s for s in tracer.spans if s.parent_id is None] == [root]

    def test_trace_ids_distinct_across_roots(self):
        tracer = Tracer(Simulator(seed=1))
        a = tracer.start_span("frame")
        b = tracer.start_span("frame")
        assert a.trace_id != b.trace_id

    def test_finish_is_idempotent(self):
        sim = Simulator(seed=1)
        tracer = Tracer(sim)
        span = tracer.start_span("work")
        advance(sim, 0.1)
        tracer.finish(span)
        advance(sim, 0.1)
        tracer.finish(span)          # second finish must not move the end
        assert span.end == pytest.approx(0.1)

    def test_context_manager_finishes(self):
        sim = Simulator(seed=1)
        tracer = Tracer(sim)
        with open_span(tracer, "work", kind="test") as s:
            advance(sim, 0.05)
        assert s.finished
        assert s.end == pytest.approx(0.05)
        assert s.attrs["kind"] == "test"

    def test_unfinished_span_has_no_duration(self):
        tracer = Tracer(Simulator(seed=1))
        span = tracer.start_span("open")
        assert not span.finished
        assert span.duration == 0.0

    def test_attrs_via_start_and_set(self):
        tracer = Tracer(Simulator(seed=1))
        span = tracer.start_span("work", nbytes=42).set(outcome="ok")
        assert span.attrs == {"nbytes": 42, "outcome": "ok"}

    def test_frame_roots_only_finished_frames(self):
        sim = Simulator(seed=1)
        tracer = Tracer(sim)
        done = FrameTrace(tracer, 0)
        done.begin("local")
        advance(sim, 0.01)
        done.complete()
        FrameTrace(tracer, 1)        # never completed
        tracer.start_span("other")   # not a frame
        roots = tracer.frame_roots()
        assert len(roots) == 1
        assert roots[0].attrs["frame"] == 0


class TestFrameTrace:
    def build(self):
        sim = Simulator(seed=2)
        tracer = Tracer(sim)
        trace = FrameTrace(tracer, 7)
        trace.begin("local")
        advance(sim, 0.030)
        trace.begin("uplink", **{SERIALIZATION_ATTR: 0.002,
                                 PROPAGATION_ATTR: 0.010})
        advance(sim, 0.018)
        trace.begin("server")
        advance(sim, 0.001)
        trace.begin("downlink", **{SERIALIZATION_ATTR: 0.001,
                                   PROPAGATION_ATTR: 0.010})
        advance(sim, 0.020)
        trace.mark("render")
        trace.complete(outcome="offloaded")
        return sim, trace

    def test_stages_are_contiguous(self):
        _, trace = self.build()
        children = [c for c in trace.root.children if c.duration > 0]
        for prev, nxt in zip(children, children[1:]):
            assert prev.end == nxt.start   # no gap, no overlap

    def test_children_sum_exactly_to_root(self):
        _, trace = self.build()
        total = sum(c.duration for c in trace.root.children)
        assert total == pytest.approx(trace.root.duration, abs=1e-12)

    def test_outcome_recorded_on_root(self):
        _, trace = self.build()
        assert trace.root.attrs["outcome"] == "offloaded"
        assert trace.root.finished

    def test_breakdown_buckets(self):
        _, trace = self.build()
        b = breakdown(trace.root)
        assert b["total"] == pytest.approx(0.069)
        assert b["stages"]["local"] == pytest.approx(0.030)
        assert b["stages"]["uplink"] == pytest.approx(0.018)
        path = b["critical_path"]
        # local + server are compute; uplink/downlink split into wire costs.
        assert path["compute"] == pytest.approx(0.031)
        assert path["serialization"] == pytest.approx(0.003)
        assert path["propagation"] == pytest.approx(0.020)
        assert path["queueing"] == pytest.approx(0.069 - 0.031 - 0.023)
        assert path["render"] == 0.0
        assert sum(path.values()) == pytest.approx(b["total"])

    def test_breakdown_clamps_overstated_wire_costs(self):
        sim = Simulator(seed=3)
        tracer = Tracer(sim)
        trace = FrameTrace(tracer, 0)
        # Analytic costs exceed the observed duration: must clamp, never
        # produce negative queueing.
        trace.begin("uplink", **{SERIALIZATION_ATTR: 1.0,
                                 PROPAGATION_ATTR: 1.0})
        advance(sim, 0.010)
        trace.complete()
        path = breakdown(trace.root)["critical_path"]
        assert path["serialization"] == pytest.approx(0.010)
        assert path["propagation"] == 0.0
        assert path["queueing"] == 0.0

    def test_double_run_identical_span_dicts(self):
        def run():
            _, trace = self.build()
            return chrome_trace_json(trace.tracer)

        assert run() == run()
