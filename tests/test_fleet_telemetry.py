"""Fleet telemetry bus, worker timelines, and the crash flight recorder.

The CI-gated contract lives in ``TestByteIdentity``: arming every piece
of wall-clock instrumentation at once (telemetry bus + flight recorder)
must change **no byte** of any deterministic result artifact.  The rest
covers the telemetry document schema, the Chrome-trace worker timeline,
and the flight artifacts a dying worker leaves behind.
"""

import json

import pytest

from repro.analysis.report import fleet_report
from repro.fleet import (
    Campaign,
    FaultInjection,
    TelemetryCollector,
    demo_campaigns,
    get_scenario,
    run_campaign,
    worker_timeline_json,
    write_campaign_telemetry,
)
from repro.fleet.flight import (
    FlightRecorder,
    collect_flight_dump,
    flight_summary,
    handler_name,
    read_flight_dump,
)
from repro.fleet import flight as flight_module
from repro.fleet import telemetry as telemetry_module
from repro.fleet import workers as fleet_workers
from repro.fleet.telemetry import TELEMETRY_SCHEMA
from repro.obs import validate_chrome_trace
from repro.scale.shards import cell_contention_campaign



def tiny_campaign(seeds=2, name="tiny-telemetry"):
    return Campaign(name=name, scenario="table2_offload", seeds=seeds,
                    base_seed=3, grid={"rtt": [0.01, 0.05]},
                    params={"n_frames": 4})


def instrumented(campaign, tmp_path, workers=1, **kw):
    telemetry = TelemetryCollector()
    result = run_campaign(campaign, workers=workers, telemetry=telemetry,
                          flight_dir=tmp_path / "flight", **kw)
    return result


class TestByteIdentity:
    """Arming all wall-clock instrumentation changes no result byte."""

    def test_serial_run_identical_with_all_instrumentation(self, tmp_path):
        c = tiny_campaign(seeds=3)
        plain = run_campaign(c, workers=1)
        armed = instrumented(c, tmp_path, workers=1)
        assert armed.aggregate.to_json() == plain.aggregate.to_json()
        assert list(armed.per_point) == list(plain.per_point)
        for point in plain.per_point:
            assert (armed.per_point[point].to_json()
                    == plain.per_point[point].to_json())
        assert fleet_report(armed) == fleet_report(plain)

    def test_pooled_run_identical_with_all_instrumentation(self, tmp_path):
        c = tiny_campaign(seeds=3)
        plain = run_campaign(c, workers=1)
        armed = instrumented(c, tmp_path, workers=2, batch_size=2)
        assert armed.aggregate.to_json() == plain.aggregate.to_json()
        for point in plain.per_point:
            assert (armed.per_point[point].to_json()
                    == plain.per_point[point].to_json())

    def test_scale_campaign_identical_with_telemetry(self, tmp_path):
        c = cell_contention_campaign()
        c.seeds = 1
        plain = run_campaign(c, workers=1)
        armed = instrumented(c, tmp_path, workers=1)
        assert armed.aggregate.to_json() == plain.aggregate.to_json()

    def test_telemetry_doc_never_reaches_deterministic_surface(self, tmp_path):
        c = tiny_campaign()
        armed = instrumented(c, tmp_path)
        assert armed.telemetry is not None
        plain = run_campaign(c, workers=1)
        assert plain.telemetry is None
        assert fleet_report(armed) == fleet_report(plain)


class TestTelemetryDocument:
    @pytest.fixture(scope="class")
    def doc(self, tmp_path_factory):
        c = tiny_campaign(seeds=3)  # 6 shards
        result = instrumented(c, tmp_path_factory.mktemp("flight"))
        return result.telemetry

    def test_schema_and_campaign_header(self, doc):
        assert doc["schema"] == TELEMETRY_SCHEMA
        assert doc["campaign"]["name"] == "tiny-telemetry"
        assert doc["campaign"]["scenario"] == "table2_offload"
        assert doc["campaign"]["shards"] == 6
        assert len(doc["campaign"]["fingerprint16"]) == 16

    def test_worker_accounting_covers_every_shard(self, doc):
        workers = doc["workers"]
        assert workers  # at least the serial driver pid
        assert sum(w["shards"] for w in workers.values()) == 6
        assert sum(w["ok"] for w in workers.values()) == 6
        assert all(w["busy_s"] >= 0.0 for w in workers.values())

    def test_shard_events_on_the_wire(self, doc):
        shard_events = [e for e in doc["events"] if e["ev"] == "shard"]
        assert len(shard_events) == 6
        for e in shard_events:
            assert e["ok"] is True
            assert e["t1"] >= e["t0"] >= 0.0
        assert doc["events_dropped"] == 0

    def test_slowest_table_ranked_by_wall_per_cost(self, doc):
        ranks = [row["wall_per_cost"] for row in doc["slowest"]]
        assert ranks == sorted(ranks, reverse=True)
        assert all(row["wall_s"] >= 0.0 for row in doc["slowest"])

    def test_counters_clean_run(self, doc):
        assert doc["shards"] == {"ok": 6, "quarantined": 0, "retries": 0,
                                 "timeouts": 0, "pool_breaks": 0,
                                 "quarantines": 0}

    def test_flight_section_present_when_armed(self, doc):
        assert doc["flight"]["spills"] >= 1
        assert doc["flight"]["events"] > 0

    def test_event_cap_drops_but_counts(self, monkeypatch):
        monkeypatch.setattr(telemetry_module, "EVENT_CAP", 2)
        collector = TelemetryCollector()
        for i in range(5):
            collector.record({"ev": "retry", "t": float(i)})
        assert len(collector.events) == 2
        assert collector.dropped == 3

    def test_cost_total_sums_the_shard_cost_hints(self):
        catalog = demo_campaigns()
        for name, cost_total in (("smoke", 320.0), ("cell_contention", 46.08)):
            c = catalog[name]
            doc = run_campaign(c, workers=1,
                               telemetry=TelemetryCollector()).telemetry
            scenario = get_scenario(c.scenario)
            assert doc["campaign"]["cost_total"] == cost_total == round(sum(
                scenario.shard_cost(s.param_dict()) for s in c.shards()), 6)

    def test_written_document_is_canonical_json(self, doc, tmp_path):
        path = write_campaign_telemetry(
            tmp_path / "out" / "campaign_telemetry.json", doc)
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == json.loads(
            json.dumps(doc, sort_keys=True))


class TestWorkerTimeline:
    def test_timeline_is_valid_chrome_trace(self, tmp_path):
        result = instrumented(tiny_campaign(seeds=3), tmp_path)
        timeline = worker_timeline_json(result.telemetry)
        assert validate_chrome_trace(timeline) == []

    def test_timeline_has_one_slice_per_shard(self, tmp_path):
        result = instrumented(tiny_campaign(seeds=3), tmp_path)
        doc = json.loads(worker_timeline_json(result.telemetry))
        slices = [e for e in doc["traceEvents"]
                  if e.get("ph") == "X" and e.get("cat") == "shard"]
        assert len(slices) == 6
        tags = {e["name"] for e in slices}
        assert tags == {s.tag for s in tiny_campaign(seeds=3).shards()}

    def test_timeline_of_faulted_run_still_validates(self, tmp_path, monkeypatch, fast_backoff):
        monkeypatch.setattr(fleet_workers, "MAX_ATTEMPTS", 2)
        c = tiny_campaign()
        tag = c.shards()[1].tag
        telemetry = TelemetryCollector()
        result = run_campaign(
            c, workers=1, telemetry=telemetry,
            faults=FaultInjection(tags=(tag,), mode="raise"))
        assert result.quarantined == [tag]
        timeline = worker_timeline_json(result.telemetry)
        assert validate_chrome_trace(timeline) == []
        doc = json.loads(timeline)
        instants = {e["name"] for e in doc["traceEvents"]
                    if e.get("ph") == "i"}
        assert {"retry", "quarantine"} <= instants


class TestQuarantineRecords:
    def test_record_carries_scenario_attempts_and_traceback(
            self, tmp_path, monkeypatch, fast_backoff):
        monkeypatch.setattr(fleet_workers, "MAX_ATTEMPTS", 3)
        c = tiny_campaign()
        tag = c.shards()[2].tag
        result = run_campaign(
            c, workers=1, faults=FaultInjection(tags=(tag,), mode="raise"), flight_dir=tmp_path)
        outcome = next(o for o in result.outcomes if o.tag == tag)
        assert outcome.status == "quarantined"
        assert outcome.scenario == "table2_offload"
        assert outcome.attempts == 3
        assert len(outcome.errors) == 3
        assert "Traceback (most recent call last)" in outcome.errors[-1]
        assert outcome.error  # last error is still summarized

    def test_pooled_kill_leaves_quarantine_and_flight(self, tmp_path, monkeypatch, fast_backoff):
        monkeypatch.setattr(fleet_workers, "MAX_ATTEMPTS", 2)
        c = tiny_campaign(seeds=3)
        tag = c.shards()[2].tag
        result = run_campaign(
            c, workers=2, batch_size=2,
            faults=FaultInjection(tags=(tag,), mode="kill"), flight_dir=tmp_path)
        assert result.quarantined == [tag]
        outcome = next(o for o in result.outcomes if o.tag == tag)
        assert outcome.flight is not None
        doc = read_flight_dump(outcome.flight)
        assert doc is not None
        assert doc["tag"] == tag


class TestFlightRecorder:
    def test_crash_dump_written_on_raise(self, tmp_path, monkeypatch, fast_backoff):
        monkeypatch.setattr(fleet_workers, "MAX_ATTEMPTS", 2)
        c = tiny_campaign()
        tag = c.shards()[2].tag  # warm ring: two shards ran before it
        result = run_campaign(
            c, workers=1, faults=FaultInjection(tags=(tag,), mode="raise"), flight_dir=tmp_path)
        assert result.quarantined == [tag]
        outcome = next(o for o in result.outcomes if o.tag == tag)
        assert outcome.flight is not None
        doc = read_flight_dump(outcome.flight)
        assert doc["kind"] == "crash"
        assert doc["tag"] == tag
        assert "ShardError" in doc["error"]
        assert doc["ring"]  # rolled over from the healthy shards
        for row in doc["ring"]:
            assert set(row) == {"t", "seq", "fn"}

    def test_ring_rolls_across_shards_and_spills(self, tmp_path, monkeypatch):
        monkeypatch.setattr(flight_module, "RING_CAPACITY", 4)
        recorder = FlightRecorder(tmp_path, worker_id=7)

        class FakeEvent:
            def __init__(self, i):
                self.time = float(i)
                self.seq = i
                self.fn = tiny_campaign

        recorder.begin_shard("s/one", 0)
        for i in range(3):
            recorder.hook(FakeEvent(i))
        recorder.begin_shard("s/two", 0)
        doc = read_flight_dump(tmp_path / "worker-7.json")
        assert doc["tag"] == "s/two"
        assert [r["seq"] for r in doc["ring"]] == [0, 1, 2]
        for i in range(3, 9):  # overflow the 4-deep ring
            recorder.hook(FakeEvent(i))
        recorder.begin_shard("s/three", 1)
        doc = read_flight_dump(tmp_path / "worker-7.json")
        assert [r["seq"] for r in doc["ring"]] == [5, 6, 7, 8]
        assert doc["shards_seen"] == 3

    def test_collect_prefers_most_informative_artifact(self, tmp_path, monkeypatch):
        monkeypatch.setattr(flight_module, "RING_CAPACITY", 8)
        recorder = FlightRecorder(tmp_path, worker_id=1)

        class FakeEvent:
            time, seq, fn = 0.5, 1, tiny_campaign

        recorder.hook(FakeEvent())
        recorder.begin_shard("victim", 0)  # spill with 1 ring event
        empty = FlightRecorder(tmp_path, worker_id=2)
        empty.begin_shard("victim", 1)     # fresh retry worker, empty ring
        found = collect_flight_dump(tmp_path, "victim")
        assert found is not None
        assert found.name.startswith("quarantine-")
        assert len(read_flight_dump(found)["ring"]) == 1

    def test_collect_handles_missing_and_garbage(self, tmp_path):
        assert collect_flight_dump(tmp_path / "nope", "t") is None
        (tmp_path / "worker-9.json").write_text("{not json")
        assert collect_flight_dump(tmp_path, "t") is None
        assert read_flight_dump(tmp_path / "worker-9.json") is None
        summary = flight_summary(tmp_path)
        assert summary == {"spills": 0, "crashes": 0, "quarantine": 0,
                           "events": 0}

    def test_install_uninstall_is_identity_safe(self, tmp_path):
        from repro.simnet import engine

        first = FlightRecorder(tmp_path, worker_id=1)
        second = FlightRecorder(tmp_path, worker_id=2)
        first.install()
        second.install()
        first.uninstall()  # not the installed hook: must not clobber
        assert engine.default_trace_hook is second.hook
        second.uninstall()
        assert engine.default_trace_hook is None


class TestHandlerName:
    def test_plain_function(self):
        def handler():
            pass

        name = handler_name(handler)
        assert name.endswith("handler")
        assert name.startswith(__name__)

    def test_object_without_metadata(self):
        class Opaque:
            def __call__(self):
                pass

        obj = Opaque()  # instances expose neither __module__ nor __qualname__
        name = handler_name(obj)
        assert name == f"{Opaque.__module__}.{repr(obj)}"
