"""Tests for the three checked harnesses and the seeded-violation one."""

import json

from repro.check.choices import ScriptController
from repro.check.explorer import Budget, explore
from repro.check.harnesses import (
    DEFAULT_HARNESSES,
    HARNESSES,
    BreakerHarness,
    DegradationHarness,
    MptcpHandoverHarness,
    SeededViolationHarness,
)
from repro.check.invariants import replay_counterexample
from repro.simnet.faults import FaultPlan


def scripted_step(harness, world, picks):
    """Run one harness step with a fixed pick script."""
    world.chooser.controller = ScriptController(picks)
    harness.step(world)
    world.chooser.controller = None


class TestRegistry:
    def test_default_harnesses_exclude_selfcheck(self):
        assert "selfcheck" not in DEFAULT_HARNESSES
        assert set(DEFAULT_HARNESSES) <= set(HARNESSES)

    def test_every_invariant_label_points_at_protocol_docs(self):
        for name in DEFAULT_HARNESSES:
            docs = HARNESSES[name].invariant_docs
            assert docs, f"{name} documents no invariants"
            for label, pointer in docs.items():
                assert "PROTOCOL.md" in pointer, (name, label)


class TestBreakerHarness:
    def test_explores_clean(self):
        result = explore(BreakerHarness(), seed=0,
                         budget=Budget(max_states=300, max_depth=14,
                                       max_branch=48))
        assert result.ok
        # The quantized breaker graph is tiny; the budget exhausts it.
        assert result.states > 100
        assert result.unique_states > 10

    def test_default_run_outside_explorer_is_benign(self):
        harness = BreakerHarness()
        world = harness.make_world(seed=3)
        for _ in range(20):
            harness.step(world)      # no controller: engine-order picks
        assert harness.invariants(world) == []


class TestDegradationHarness:
    def test_explores_clean_on_small_budget(self):
        result = explore(DegradationHarness(), seed=0,
                         budget=Budget(max_states=60, max_depth=6))
        assert result.ok
        assert result.states == 60

    def test_fingerprint_stable_across_identical_worlds(self):
        harness = DegradationHarness()
        a, b = harness.make_world(0), harness.make_world(0)
        scripted_step(harness, a, [2, 2])
        scripted_step(harness, b, [2, 2])
        assert harness.fingerprint(a) == harness.fingerprint(b)


class TestMptcpHarness:
    def test_explores_clean_on_small_budget(self):
        result = explore(MptcpHandoverHarness(), seed=0,
                         budget=Budget(max_states=40, max_depth=4))
        assert result.ok

    def test_fault_actions_materialize_into_a_valid_plan(self):
        harness = MptcpHandoverHarness()
        world = harness.make_world(seed=0)
        scripted_step(harness, world, [3])   # wifi blackout
        scripted_step(harness, world, [4])   # lte blackout
        plan = harness.fault_plan(world)
        assert len(plan.events) == 2
        # The exported plan round-trips and passes validation, so the
        # counterexample artifact is replayable on its own.
        again = FaultPlan.from_dict(plan.to_dict())
        again.validate()
        assert [e.to_dict() for e in again.events] == \
            [e.to_dict() for e in plan.events]

    def test_finalize_declines_when_no_subflow_lives(self):
        harness = MptcpHandoverHarness()
        world = harness.make_world(seed=0)
        scripted_step(harness, world, [1])   # kill wifi
        scripted_step(harness, world, [2])   # kill lte
        assert harness.finalize(world) is None

    def test_finalize_drains_to_complete_delivery(self):
        harness = MptcpHandoverHarness()
        world = harness.make_world(seed=0)
        scripted_step(harness, world, [0])
        scripted_step(harness, world, [1])   # wifi dies mid-transfer
        assert harness.finalize(world) == []
        receiver = world.roots["receiver"]
        assert receiver.bytes_contiguous == world.roots["model"].total_bytes


class TestSeededViolation:
    def test_pipeline_catches_the_seeded_bug(self):
        harness = SeededViolationHarness()
        result = explore(harness, seed=0,
                         budget=Budget(max_states=500, max_depth=14,
                                       max_branch=48))
        assert not result.ok
        cex = result.violations[0]
        assert any("probe-budget" in v for v in cex.violations)

        replay = replay_counterexample(cex, SeededViolationHarness())
        assert replay.reproduced
        assert replay.state == cex.state
        assert replay.digest == cex.digest
        # The obs exports are valid and carry one span per step.
        chrome = replay.chrome_trace()
        step_spans = [e for e in chrome["traceEvents"]
                      if str(e.get("name", "")).startswith("step:")]
        assert len(step_spans) == len(cex.trace)
        qlog_records = [json.loads(line)
                        for line in replay.qlog().splitlines()]
        assert any(r["name"].startswith("check:") for r in qlog_records)

    def test_healthy_breaker_does_not_reproduce_the_counterexample(self):
        result = explore(SeededViolationHarness(), seed=0,
                         budget=Budget(max_states=500, max_depth=14,
                                       max_branch=48))
        cex = result.violations[0]
        cex_for_healthy = type(cex).from_dict(
            {**cex.to_dict(), "harness": "breaker"})
        replay = replay_counterexample(cex_for_healthy, BreakerHarness())
        assert not replay.reproduced

    def test_selfcheck_fails_under_pytest_too(self):
        # Guard against the seeded bug being "fixed": CI's pipeline
        # check is only meaningful while _LeakyBreaker actually leaks.
        harness = SeededViolationHarness()
        world = harness.make_world(seed=0)
        breaker = world.roots["breaker"]
        breaker.record_failure()
        breaker.record_failure()     # opens (threshold 2)
        world.sim.run(until=1.0)     # past the cooldown
        assert breaker.allow_request()   # half-open probe
        assert breaker.allow_request()   # BUG: second probe admitted
