"""Tests for the resilience layer: RTT estimation, backoff, heartbeat
liveness, circuit breaking, and the resilient executor's failover.
"""

import random

import pytest

from repro.core.resilience import (
    BreakerState,
    CircuitBreaker,
    DecorrelatedBackoff,
    HeartbeatMonitor,
    Liveness,
    ResilienceMetrics,
    RttEstimator,
    ServiceMode,
)
from repro.core.session import ScenarioBuilder
from repro.mar.application import APP_ARCHETYPES
from repro.mar.devices import SMARTPHONE
from repro.mar.offload import FullOffload, ResilientOffloadExecutor
from repro.simnet.engine import Simulator
from repro.simnet.faults import FaultEvent, FaultInjector, FaultPlan
from repro.transport import base

APP = APP_ARCHETYPES["orientation"]


class TestRttEstimator:
    def test_initial_timeout_then_adapts(self):
        est = RttEstimator()
        assert est.timeout() == 0.2
        est.sample(0.01)
        # srtt=10ms, rttvar=5ms -> 30ms timer
        assert est.timeout() == pytest.approx(0.03)
        for _ in range(20):
            est.sample(0.01)
        assert est.timeout() < 0.03                # variance decays
        assert est.timeout() >= base.RTT_TIMEOUT_FLOOR

    def test_clamps(self, monkeypatch):
        monkeypatch.setattr(base, "RTT_TIMEOUT_FLOOR", 0.05)
        monkeypatch.setattr(base, "RTT_TIMEOUT_CAP", 0.5)
        est = RttEstimator()
        est.sample(1e-6)
        assert est.timeout() == 0.05
        est.sample(10.0)
        assert est.timeout() == 0.5

    def test_negative_sample_ignored(self):
        est = RttEstimator()
        est.sample(-1.0)
        assert est.samples == 0 and est.srtt is None


class TestDecorrelatedBackoff:
    def test_bounds_and_growth(self):
        rng = random.Random(1)
        bo = DecorrelatedBackoff(rng, base=0.1, cap=2.0)
        delays = [bo.next() for _ in range(50)]
        assert all(0.1 <= d <= 2.0 for d in delays)
        # Geometric growth in expectation: later delays dwarf the base.
        assert max(delays) > 0.5

    def test_reset(self):
        rng = random.Random(2)
        bo = DecorrelatedBackoff(rng, base=0.1, cap=5.0)
        for _ in range(10):
            bo.next()
        bo.reset()
        assert bo.next() <= 0.3                    # back near base

    def test_deterministic_given_rng(self):
        a = [DecorrelatedBackoff(random.Random(3), 0.1, 5.0).next() for _ in range(1)]
        b = [DecorrelatedBackoff(random.Random(3), 0.1, 5.0).next() for _ in range(1)]
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            DecorrelatedBackoff(random.Random(0), base=0.0)
        with pytest.raises(ValueError):
            DecorrelatedBackoff(random.Random(0), base=1.0, cap=0.5)


class TestCircuitBreaker:
    def clock(self):
        return self.now

    def test_closed_to_open_to_half_open_to_closed(self):
        self.now = 0.0
        br = CircuitBreaker(self.clock, failure_threshold=3, cooldown=1.0)
        assert br.allow_request()
        br.record_failure(); br.record_failure()
        assert br.state is BreakerState.CLOSED
        br.record_failure()
        assert br.state is BreakerState.OPEN
        assert not br.allow_request()              # cooldown not elapsed
        self.now = 1.0
        assert br.allow_request()                  # the half-open probe
        assert br.state is BreakerState.HALF_OPEN
        assert not br.allow_request()              # only one probe at a time
        br.record_success()
        assert br.state is BreakerState.CLOSED
        assert br.failures == 0

    def test_failed_probe_grows_cooldown(self):
        self.now = 0.0
        br = CircuitBreaker(self.clock, failure_threshold=1, cooldown=1.0,
                            cooldown_cap=3.0)
        br.record_failure()
        self.now = 1.0
        assert br.allow_request()
        br.record_failure()                        # probe failed
        assert br.state is BreakerState.OPEN
        self.now = 2.5
        assert not br.allow_request()              # cooldown now 2s from t=1
        self.now = 3.0
        assert br.allow_request()
        br.record_failure()
        # Cooldown capped at 3s.
        assert br.cooldown_remaining <= 3.0

    def test_trip_forces_open(self):
        self.now = 0.0
        br = CircuitBreaker(self.clock, failure_threshold=100)
        br.trip()
        assert br.state is BreakerState.OPEN
        assert br.trips == 1


class PongTarget:
    """Test double: answers pings after ``rtt`` unless dead."""

    def __init__(self, sim, monitor_ref, rtt=0.02):
        self.sim = sim
        self.monitor_ref = monitor_ref
        self.rtt = rtt
        self.dead = False
        self.pings = 0

    def send_ping(self, target, token):
        self.pings += 1
        if not self.dead:
            self.sim.schedule(self.rtt, lambda: self.monitor_ref[0].on_pong(token))


class TestHeartbeatMonitor:
    def make(self, sim, rtt=0.02):
        ref = []
        target = PongTarget(sim, ref, rtt=rtt)
        transitions = []
        monitor = HeartbeatMonitor(
            sim, "srv", target.send_ping,
            on_state_change=lambda t, o, n: transitions.append((sim.now, o, n)),
        )
        ref.append(monitor)
        return monitor, target, transitions

    def test_stays_healthy_with_pongs(self):
        sim = Simulator(seed=1)
        monitor, target, transitions = self.make(sim)
        monitor.start()
        sim.run(until=5.0)
        assert monitor.state is Liveness.HEALTHY
        assert transitions == []
        assert monitor.rtt.srtt == pytest.approx(0.02, rel=0.01)

    def test_detects_failure_within_threshold_intervals(self):
        sim = Simulator(seed=2)
        monitor, target, transitions = self.make(sim)
        monitor.start()
        sim.schedule(2.0, lambda: setattr(target, "dead", True))
        sim.run(until=5.0)
        assert monitor.state is Liveness.FAILED
        failed_at = [t for t, o, n in transitions if n is Liveness.FAILED][0]
        # suspect first, then failed
        states = [n for _, _, n in transitions]
        assert states[0] is Liveness.SUSPECT
        # Bounded detection: within miss_threshold intervals + one timeout.
        assert failed_at - 2.0 <= 3 * 0.25 + monitor.rtt.timeout() + 0.25
        assert monitor.detection_delays and monitor.detection_delays[0] < 1.5

    def test_failed_probing_backs_off_then_recovers(self):
        sim = Simulator(seed=3)
        monitor, target, transitions = self.make(sim)
        monitor.start()
        sim.schedule(2.0, lambda: setattr(target, "dead", True))
        sim.run(until=10.0)
        pings_during_outage = target.pings
        sim.run(until=20.0)
        # Backoff: probe rate while failed is well below 1/interval.
        assert target.pings - pings_during_outage < 10 / 0.25 * 0.5
        sim.schedule(0.0, lambda: setattr(target, "dead", False))
        sim.run(until=45.0)
        assert monitor.state is Liveness.HEALTHY
        assert any(n is Liveness.HEALTHY for _, _, n in transitions)

    def test_stop_silences_monitor(self):
        sim = Simulator(seed=4)
        monitor, target, _ = self.make(sim)
        monitor.start()
        sim.run(until=1.0)
        monitor.stop()
        sent = target.pings
        sim.run(until=5.0)
        assert target.pings == sent


class TestResilienceMetrics:
    def test_mode_durations_and_report(self):
        m = ResilienceMetrics()
        m.record_mode(0.0, ServiceMode.HEALTHY)
        m.record_mode(5.0, ServiceMode.DEGRADED_LOCAL)
        m.record_mode(8.0, ServiceMode.HEALTHY)
        m.outage_begin(5.0)
        m.outage_end(8.0)
        m.frames_offloaded = 90
        m.frames_degraded = 10
        report = m.report(duration=10.0)
        assert report.availability == pytest.approx(0.7)
        assert report.mttr == pytest.approx(3.0)
        assert report.degraded_fraction == pytest.approx(0.1)
        assert report.frames_dropped == 0

    def test_duplicate_mode_collapsed_and_open_outage_closed(self):
        m = ResilienceMetrics()
        m.record_mode(0.0, ServiceMode.HEALTHY)
        m.record_mode(1.0, ServiceMode.HEALTHY)
        assert len(m.mode_timeline) == 1
        m.outage_begin(2.0)
        m.outage_begin(3.0)                        # idempotent
        m.close(4.0)
        assert m.outages == [(2.0, 4.0)]


class TestResilientExecutor:
    def run_scenario(self, plan_fn=None, seed=11, duration=12.0, **kw):
        scenario = ScenarioBuilder(seed=seed).edge_failover()
        if plan_fn is not None:
            FaultInjector(scenario.net).apply(plan_fn(scenario))
        executor = ResilientOffloadExecutor(
            scenario.net, "client", scenario.all_servers, APP,
            FullOffload(), SMARTPHONE, **kw,
        )
        result = executor.run(n_frames=int(duration * APP.fps), settle=3.0)
        return scenario, executor, result

    def test_no_faults_everything_offloads(self):
        _, executor, result = self.run_scenario()
        report = executor.resilience_report()
        assert result.frames_completed == result.frames_sent
        assert report.frames_degraded == 0
        assert report.failovers == 0
        assert report.availability == pytest.approx(1.0)
        assert executor.mode is ServiceMode.HEALTHY

    def test_primary_crash_fails_over_to_backup(self):
        def plan(scenario):
            return FaultPlan().server_crash(4.0, None, [scenario.server])

        _, executor, result = self.run_scenario(plan_fn=plan)
        report = executor.resilience_report()
        assert report.failovers >= 1
        assert executor.active_server != executor.servers[0]
        # Offloading continued on the backup: far more offloaded than
        # degraded frames.
        assert report.frames_offloaded > report.frames_degraded
        assert result.frames_completed == result.frames_sent
        assert report.detection_delays
        # Detection bounded by miss_threshold heartbeats + timeout slack.
        assert report.mean_detection_time < 3 * 0.25 + 1.0

    def test_all_servers_dead_trips_to_local_only(self):
        def plan(scenario):
            return FaultPlan().server_crash(
                3.0, None, [scenario.server] + scenario.backup_servers
            )

        _, executor, result = self.run_scenario(plan_fn=plan)
        report = executor.resilience_report()
        assert executor.breaker.state is not BreakerState.CLOSED
        assert report.breaker_trips >= 1
        assert report.frames_degraded > 0
        # Local-only degraded mode still serves every frame: no stall.
        assert result.frames_completed == result.frames_sent
        assert ServiceMode.DEGRADED_LOCAL in [m for _, m in executor.metrics.mode_timeline]

    def test_recovery_closes_breaker_and_resumes_offload(self):
        def plan(scenario):
            return FaultPlan().server_crash(
                3.0, 4.0, [scenario.server] + scenario.backup_servers
            )

        _, executor, result = self.run_scenario(plan_fn=plan, duration=15.0)
        report = executor.resilience_report()
        assert report.breaker_trips >= 1
        assert executor.breaker.state is BreakerState.CLOSED
        # Frames offloaded after the restart at t=7.
        post = [t for t, _, mode in executor.frame_log if mode == "offloaded" and t > 7.5]
        assert post
        assert report.mttr > 0
        assert report.recovery_times and max(report.recovery_times) < 10.0

    def test_retry_recovers_single_lost_upload(self):
        # A short sharp loss burst eats some uploads; retries cover it.
        def plan(scenario):
            radio = [l for l in scenario.net.links if "client" in l.name]
            return FaultPlan([FaultEvent(
                kind="loss-burst", start=2.0, duration=0.5,
                links=tuple(l.name for l in radio), loss=0.9)])

        _, executor, result = self.run_scenario(plan_fn=plan)
        assert result.frames_completed == result.frames_sent
        # Nothing bad enough to fail over or trip.
        report = executor.resilience_report()
        assert report.breaker_trips == 0
