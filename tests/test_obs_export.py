"""Tests for the observability exporters.

The two CI-gated guarantees live here: exports are a byte-identical
function of ``(scenario, seed)``, and every frame's exported stage
durations reconcile with its end-to-end latency within ±1 µs.
"""

import json

import pytest

from repro.obs import (
    EventLog,
    chrome_trace_json,
    qlog_lines,
    reconcile_frame_spans,
    run_obs_scenario,
    snapshot,
    validate_chrome_trace,
)
from repro.obs.spans import FrameTrace, Tracer
from repro.simnet.engine import Simulator

FRAMES = 12


@pytest.fixture(scope="module")
def run():
    return run_obs_scenario("cell_offload", seed=11, frames=FRAMES)


class TestChromeTrace:
    def test_schema_valid(self, run):
        assert validate_chrome_trace(chrome_trace_json(run.tracer)) == []

    def test_complete_frame_span_trees(self, run):
        roots = run.tracer.frame_roots()
        assert len(roots) == FRAMES
        for root in roots:
            names = [c.name for c in root.children]
            assert names == ["local", "uplink", "server", "downlink",
                             "render"]
            assert all(c.finished for c in root.children)

    def test_stage_sums_reconcile_with_frame_latency(self, run):
        assert reconcile_frame_spans(run.tracer) == []

    def test_frame_tracks_are_separate_tids(self, run):
        doc = json.loads(chrome_trace_json(run.tracer))
        frame_events = [e for e in doc["traceEvents"]
                        if e.get("ph") == "X" and e["name"] == "frame"]
        assert len({e["tid"] for e in frame_events}) == FRAMES
        labels = {e["args"]["name"] for e in doc["traceEvents"]
                  if e.get("name") == "thread_name"}
        assert "frame 0" in labels

    def test_root_duration_matches_summary_latency(self, run):
        doc = json.loads(chrome_trace_json(run.tracer))
        durs = [e["dur"] for e in doc["traceEvents"]
                if e.get("ph") == "X" and e["name"] == "frame"]
        mean_us = sum(durs) / len(durs)
        assert mean_us == pytest.approx(run.summary["mean_latency"] * 1e6,
                                        abs=len(durs))

    def test_validator_flags_broken_events(self):
        bad = {"traceEvents": [
            {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": 0,
             "dur": -5},
            {"ph": "X", "pid": 1, "tid": 1, "ts": 1.5, "dur": 1},
        ]}
        problems = validate_chrome_trace(bad)
        assert any("dur" in p for p in problems)
        assert any("'name'" in p for p in problems)
        assert any("'ts'" in p for p in problems)
        assert validate_chrome_trace("not json{") != []
        assert validate_chrome_trace({"foo": 1}) != []

    def test_reconcile_flags_gapped_frames(self):
        sim = Simulator(seed=1)
        tracer = Tracer(sim)
        trace = FrameTrace(tracer, 0)
        stage = trace.begin("local")
        sim.schedule(0.010, lambda: tracer.finish(stage))
        sim.run()
        # Root closes 5 ms after its only child: a 5000 µs hole.
        sim.schedule(0.005, lambda: trace.complete())
        sim.run()
        problems = reconcile_frame_spans(tracer)
        assert len(problems) == 1
        assert "stage sum" in problems[0]

    def test_reconcile_reports_missing_traces(self):
        tracer = Tracer(Simulator(seed=1))
        assert reconcile_frame_spans(tracer) == ["no completed frame traces"]

    def test_empty_tracer_exports_valid_trace(self):
        tracer = Tracer(Simulator(seed=1))
        text = chrome_trace_json(tracer)
        assert validate_chrome_trace(text) == []
        events = json.loads(text)["traceEvents"]
        # nothing but process metadata: no spans were recorded
        assert all(e["ph"] == "M" for e in events)

    def test_single_span_frame_reconciles_and_validates(self):
        sim = Simulator(seed=1)
        tracer = Tracer(sim)
        trace = FrameTrace(tracer, 0)
        stage = trace.begin("local")
        sim.schedule(0.010, lambda: tracer.finish(stage))
        sim.schedule(0.010, lambda: trace.complete())
        sim.run()
        # One stage covering the whole frame: no gap to flag.
        assert reconcile_frame_spans(tracer) == []
        assert validate_chrome_trace(chrome_trace_json(tracer)) == []


class TestWorkerTimelineExport:
    """The fleet's worker-timeline export reuses this module's validator."""

    def doc(self):
        return {
            "run": {"driver_pid": 1000},
            "workers": {"1000": {"shards": 1}, "1001": {"shards": 1}},
            "events": [
                {"ev": "shard", "pid": 1001, "tag": "s=0", "attempt": 0,
                 "t0": 0.001, "t1": 0.004, "ok": True},
                {"ev": "batch", "pid": 1001, "t0": 0.001, "t1": 0.005,
                 "n": 2, "rss_kib": 1024},
                {"ev": "cache_pass", "t0": 0.0, "t1": 0.0005,
                 "hits": 0, "misses": 2},
                {"ev": "retry", "t": 0.006, "tag": "s=1", "attempt": 1},
            ],
        }

    def test_synthetic_timeline_validates(self):
        from repro.fleet.telemetry import worker_timeline_json

        assert validate_chrome_trace(worker_timeline_json(self.doc())) == []

    def test_empty_document_validates(self):
        from repro.fleet.telemetry import worker_timeline_json

        text = worker_timeline_json({})
        assert validate_chrome_trace(text) == []

    def test_slices_land_on_their_worker_pid(self):
        from repro.fleet.telemetry import worker_timeline_events

        events = worker_timeline_events(self.doc())
        shard = next(e for e in events if e.get("cat") == "shard")
        assert shard["pid"] == 1001
        assert shard["dur"] == 3000  # 3 ms in trace microseconds
        names = {e["args"]["name"] for e in events
                 if e.get("name") == "process_name"}
        assert names == {"fleet driver", "worker 1001"}


class TestDeterminism:
    def test_double_run_byte_identical_artifacts(self, run):
        again = run_obs_scenario("cell_offload", seed=11, frames=FRAMES)
        assert chrome_trace_json(again.tracer) == chrome_trace_json(run.tracer)
        assert again.registry.to_json() == run.registry.to_json()
        assert qlog_lines(tracer=again.tracer, registry=again.registry) == \
            qlog_lines(tracer=run.tracer, registry=run.registry)

    def test_workload_change_changes_artifact(self, run):
        other = run_obs_scenario("cell_offload", seed=11, frames=FRAMES + 1)
        assert other.registry.to_json() != run.registry.to_json()
        assert chrome_trace_json(other.tracer) != chrome_trace_json(run.tracer)


class TestQlogLines:
    def test_stream_is_chronological_and_parseable(self, run):
        log = EventLog()
        log.emit(0.001, "path", "tick")
        lines = qlog_lines(tracer=run.tracer, log=log,
                           registry=run.registry).splitlines()
        records = [json.loads(line) for line in lines]
        times = [r["time"] for r in records]
        assert times == sorted(times)
        categories = {r["category"] for r in records}
        assert {"frame", "path", "meta", "metric"} <= categories

    def test_metric_snapshot_is_last(self, run):
        lines = qlog_lines(tracer=run.tracer,
                           registry=run.registry).splitlines()
        last = json.loads(lines[-1])
        assert last["category"] == "metric"
        assert last["name"] == "registry-snapshot"
        assert "counters" in last["data"]

    def test_span_records_carry_ids(self, run):
        records = [json.loads(line) for line in
                   qlog_lines(tracer=run.tracer).splitlines()]
        uplinks = [r for r in records if r["name"] == "uplink"]
        assert uplinks
        for r in uplinks:
            assert {"trace_id", "span_id", "parent_id",
                    "start", "duration"} <= set(r["data"])


class TestSnapshot:
    def test_headline_structure(self, run):
        snap = snapshot(run.tracer)
        assert snap["traced"] == FRAMES
        assert snap["unfinished"] == 0
        assert run.registry.counters["frame.completed"].value == FRAMES
        lat = run.registry.histograms["frame.latency"]
        assert lat.moments.count == FRAMES
        p50, p95, p99 = (lat.bins.percentile(q) for q in (50, 95, 99))
        assert 0.0 < p50 <= p95 <= p99

    def test_breakdowns_cover_all_frames(self, run):
        assert len(run.breakdowns) == FRAMES
        for b in run.breakdowns:
            assert sum(b["critical_path"].values()) == \
                pytest.approx(b["total"], abs=1e-9)


class TestMartpScenario:
    def test_registry_covers_protocol_and_links(self):
        run = run_obs_scenario("martp_session", seed=5, frames=30)
        names = set(run.registry.counters)
        assert any(n.startswith("martp.stream.") for n in names)
        assert any(n.startswith("link.") for n in names)
        assert run.event_log is not None
        assert validate_chrome_trace(chrome_trace_json(run.tracer)) == []

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_obs_scenario("nope")
