"""Tests for MARTP structured event logging and its qlog export."""

import json

import pytest

from repro.core.session import OffloadSession, ScenarioBuilder
from repro.obs import EventLog, instrument_sender, qlog_lines, spans


def of(log, category=None, name=None):
    """The records of ``log`` in ``category`` and/or called ``name``."""
    return [e for e in log.events
            if (category is None or e["category"] == category)
            and (name is None or e["name"] == name)]


class TestEventLog:
    def test_emit_and_filter(self):
        log = EventLog()
        log.emit(1.0, "congestion", "budget-decrease", path="wifi")
        log.emit(2.0, "allocation", "round", budget=1e6)
        assert len(log) == 2
        assert len(of(log, "congestion")) == 1
        assert of(log, name="round")[0]["data"]["budget"] == 1e6

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            EventLog().emit(0.0, "weird", "x")

    def test_cap_counts_drops(self, monkeypatch):
        monkeypatch.setattr(spans, "EVENT_LOG_CAP", 2)
        log = EventLog()
        for i in range(5):
            log.emit(float(i), "path", "tick")
        assert len(log) == 2
        assert log.dropped == 3

    def test_jsonl_round_trip(self):
        log = EventLog()
        log.emit(1.0, "recovery", "retransmit", stream="ref", seq=7)
        lines = qlog_lines(log=log).splitlines()
        parsed = json.loads(lines[0])
        assert parsed == log.events[0]
        assert parsed["data"]["seq"] == 7
        assert parsed["category"] == "recovery"

    def test_summary_counts_by_category(self):
        log = EventLog()
        log.emit(0.0, "path", "tick")
        log.emit(1.0, "path", "tick")
        log.emit(2.0, "shedding", "message-shed")
        s = log.summary()
        assert s["events"] == 3
        assert s["dropped"] == 0
        assert s["complete"] is True
        assert s["by_category"] == {"path": 2, "shedding": 1}

    def test_summary_surfaces_drops(self, monkeypatch):
        monkeypatch.setattr(spans, "EVENT_LOG_CAP", 1)
        log = EventLog()
        log.emit(0.0, "path", "tick")
        log.emit(1.0, "path", "tick")
        s = log.summary()
        assert s["dropped"] == 1
        assert s["complete"] is False

    def test_json_lines_trailer_carries_summary(self, monkeypatch):
        monkeypatch.setattr(spans, "EVENT_LOG_CAP", 2)
        log = EventLog()
        for t in (0.5, 1.5, 2.5):
            log.emit(t, "path", "tick")
        lines = qlog_lines(log=log).splitlines()
        assert len(lines) == 3          # two events + trailer
        trailer = json.loads(lines[-1])
        assert trailer["category"] == "meta"
        assert trailer["name"] == "log-summary"
        assert trailer["data"]["dropped"] == 1
        assert trailer["data"]["complete"] is False
        assert trailer["time"] == 1.5   # last kept event's time

    def test_json_lines_empty_log_still_has_trailer(self):
        trailer = json.loads(qlog_lines(log=EventLog()))
        assert trailer["name"] == "log-summary"
        assert trailer["data"]["events"] == 0


class TestInstrumentedSession:
    def run_session(self, up_bps, loss=0.0, duration=10.0):
        scenario = ScenarioBuilder(seed=77).single_path(
            rtt=0.030, up_bps=up_bps, loss=loss)
        session = OffloadSession(scenario)
        log = instrument_sender(session.sender)
        session.run(duration)
        return session, log

    def test_congested_session_logs_decreases_and_allocations(self):
        session, log = self.run_session(up_bps=2.5e6)
        assert len(of(log, "congestion", "budget-decrease")) > 0
        assert len(of(log, "allocation", "round")) > 10
        # Every decrease event carries a real reduction.
        for event in of(log, "congestion"):
            assert event["data"]["after"] < event["data"]["before"]

    def test_lossy_session_logs_retransmissions(self):
        session, log = self.run_session(up_bps=20e6, loss=0.04)
        retransmits = of(log, "recovery", "retransmit")
        assert retransmits
        # Only the retransmitting classes appear (never interframes or
        # sensor data, which are full best effort).
        streams = {e["data"]["stream"] for e in retransmits}
        assert streams <= {"video-reference-frames", "connection-metadata"}

    def test_clean_fat_session_logs_no_congestion(self):
        session, log = self.run_session(up_bps=40e6, duration=6.0)
        assert of(log, "congestion", "budget-decrease") == []

    def test_events_time_ordered(self):
        _, log = self.run_session(up_bps=2.5e6, duration=6.0)
        times = [e["time"] for e in log.events]
        assert times == sorted(times)


class TestOfferHook:
    """``instrument_sender`` hooks shedding by assigning ``sender._offer``
    on the instance, so ``submit`` has to keep looking ``_offer`` up
    there however flat the message path gets."""

    def shedding_sender(self):
        from repro.core.protocol import MartpReceiver, MartpSender
        from repro.core.session import MARTP_PORT
        from repro.core.traffic import Priority, StreamSpec, TrafficClass

        # MEDIUM_NO_DELAY: whatever the buckets cannot take is discarded.
        streams = [StreamSpec(
            stream_id=0, name="s0", traffic_class=TrafficClass.FULL_BEST_EFFORT,
            priority=Priority.MEDIUM_NO_DELAY, nominal_rate_bps=100_000,
            message_bytes=500, deadline=0.2)]
        scenario = ScenarioBuilder(seed=1).single_path(rtt=0.02, up_bps=10e6)
        MartpReceiver(scenario.net[scenario.server], MARTP_PORT, streams)
        sender = MartpSender(scenario.path_endpoints(), streams)
        sender.controllers["wifi"].budget_bps = 100_000
        sender.controllers["wifi"].max_bps = 100_000
        sender.allocation = sender.degradation.allocate(100_000)
        return scenario.sim, sender

    def test_every_shed_submit_is_logged_once(self):
        sim, sender = self.shedding_sender()
        log = instrument_sender(sender)
        sender.start()
        sim.run(until=0.1)                      # ten ticks of tokens
        results = [sender.submit(0, 500) for _ in range(100)]
        shed = of(log, "shedding", "message-shed")
        assert len(shed) == results.count(None) == sender.stream_stats(0).dropped
        assert 0 < len(shed) < 100
        assert all(e["data"] == {"stream": "s0", "size": 500} for e in shed)

    def test_rate_driven_submits_are_logged_too(self):
        sim, sender = self.shedding_sender()
        sender.allocation.rates_bps[0] = 0.0    # dropped by the allocator
        log = instrument_sender(sender)
        sender.start()
        sender.attach_rate_driver(0)
        sender.stream_stats(0).gen_credit_bits = 3 * 500 * 8
        sim.run(until=0.005)                    # the first tick only
        assert sender.stream_stats(0).dropped == 3
        assert len(of(log, "shedding", "message-shed")) == 3
