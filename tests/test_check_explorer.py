"""Unit tests for repro.check: choice oracles, engine hooks, explorer DFS."""

import ast
import copy

import pytest

from repro.check.choices import (
    ChoiceError,
    Chooser,
    ReplayController,
    ReplayDivergence,
    ScriptController,
)
from repro.check.explorer import Budget, explore
from repro.check.harnesses import Harness, World
from repro.check.invariants import (
    Counterexample,
    replay_counterexample,
    state_digest,
)
from repro.simnet.engine import Simulator


# ======================================================================
# Engine hooks: checkpoint/restore, pending_ties, fire_event
# ======================================================================

class _Recorder:
    """Bound-method callbacks so deepcopy keeps them world-local."""

    def __init__(self, sim):
        self.sim = sim
        self.fired = []

    def note(self, label):
        self.fired.append((label, self.sim.now))

    def note_a(self):
        self.note("a")

    def note_b(self):
        self.note("b")

    def note_c(self):
        self.note("c")


class TestCheckpoint:
    def test_restore_yields_independent_world(self):
        sim = Simulator(seed=1)
        rec = _Recorder(sim)
        sim.schedule(1.0, rec.note_a)
        sim.schedule(2.0, rec.note_b)
        cp = sim.checkpoint(rec)

        sim.run(until=3.0)
        assert [l for l, _ in rec.fired] == ["a", "b"]

        sim2, rec2 = cp.restore()
        assert sim2.now == 0.0
        assert rec2.fired == []
        sim2.run(until=3.0)
        assert rec2.fired == [("a", 1.0), ("b", 2.0)]
        # The restored recorder reads its own simulator's clock, not the
        # original's (deepcopy kept the shared reference consistent).
        assert rec2.sim is sim2
        # The original world is untouched by the restored run.
        assert len(rec.fired) == 2

    def test_multiple_restores_are_independent(self):
        sim = Simulator(seed=1)
        rec = _Recorder(sim)
        sim.schedule(1.0, rec.note_a)
        cp = sim.checkpoint(rec)
        sim_a, rec_a = cp.restore()
        sim_b, rec_b = cp.restore()
        sim_a.run(until=2.0)
        assert rec_a.fired and not rec_b.fired


class TestTieExploration:
    def test_pending_ties_lists_same_deadline_events_by_seq(self):
        sim = Simulator(seed=1)
        rec = _Recorder(sim)
        e1 = sim.schedule(1.0, rec.note_a)
        e2 = sim.schedule(1.0, rec.note_b)
        sim.schedule(2.0, rec.note_c)
        ties = sim.pending_ties()
        assert ties == [e1, e2]
        assert [e.seq for e in ties] == sorted(e.seq for e in ties)

    def test_fire_event_runs_the_chosen_tie_first(self):
        sim = Simulator(seed=1)
        rec = _Recorder(sim)
        sim.schedule(1.0, rec.note_a)
        e2 = sim.schedule(1.0, rec.note_b)
        sim.fire_event(e2)
        assert rec.fired == [("b", 1.0)]
        assert sim.now == 1.0
        remaining = sim.pending_ties()
        assert len(remaining) == 1
        sim.fire_event(remaining[0])
        assert [l for l, _ in rec.fired] == ["b", "a"]

    def test_fire_event_rejects_non_pending(self):
        sim = Simulator(seed=1)
        rec = _Recorder(sim)
        event = sim.schedule(1.0, rec.note_a)
        sim.fire_event(event)
        with pytest.raises(ValueError):
            sim.fire_event(event)

    def test_empty_heap_has_no_ties(self):
        assert Simulator(seed=1).pending_ties() == []


# ======================================================================
# Choice oracles
# ======================================================================

class TestChooser:
    def test_defaults_to_engine_order(self):
        chooser = Chooser()
        assert chooser.choose("x", 4) == 0

    def test_arity_one_is_not_a_decision(self):
        chooser = Chooser()
        chooser.controller = ScriptController([3])
        assert chooser.choose("trivial", 1) == 0
        assert chooser.controller.log == []

    def test_deepcopy_drops_controller(self):
        chooser = Chooser()
        chooser.controller = ScriptController([1])
        clone = copy.deepcopy(chooser)
        assert clone.controller is None


class TestScriptController:
    def test_prefix_then_defaults_and_siblings(self):
        ctl = ScriptController([1])
        picked = [ctl.choose("a", 2), ctl.choose("b", 3), ctl.choose("c", 2)]
        assert picked == [1, 0, 0]
        assert ctl.picks == [1, 0, 0]
        # Siblings only branch at the defaulted tail positions.
        assert ctl.sibling_scripts() == [[1, 1], [1, 2], [1, 0, 1]]

    def test_out_of_range_pick_raises(self):
        ctl = ScriptController([5])
        with pytest.raises(ChoiceError):
            ctl.choose("a", 3)


class TestReplayController:
    def test_extra_decision_raises(self):
        ctl = ReplayController([1])
        ctl.choose("a", 2)
        assert ctl.exhausted
        with pytest.raises(ReplayDivergence):
            ctl.choose("b", 2)

    def test_arity_mismatch_raises(self):
        ctl = ReplayController([2])
        with pytest.raises(ReplayDivergence):
            ctl.choose("a", 2)

    def test_expected_log_mismatch_raises(self):
        ctl = ReplayController([1], expected_log=[("a", 3, 1)])
        with pytest.raises(ReplayDivergence):
            ctl.choose("b", 3)


# ======================================================================
# Explorer DFS over a transparent toy harness
# ======================================================================

class CounterHarness(Harness):
    """Add 0/1/2 per step; fingerprints merge equal running sums."""

    name = "counter"

    def __init__(self, bad_sum=10**9):
        self.bad_sum = bad_sum

    def make_world(self, seed):
        sim = Simulator(seed=seed)
        return World(sim=sim, chooser=Chooser(),
                     roots={"value": 0, "log": []})

    def step(self, world):
        pick = world.chooser.choose("counter.add", 3)
        world.roots["value"] += pick
        world.roots["log"].append(pick)
        world.sim.run(until=world.sim.now + 0.1)

    def invariants(self, world):
        if world.roots["value"] >= self.bad_sum:
            return [f"sum-bound: reached {world.roots['value']}"]
        return []

    def fingerprint(self, world):
        return (world.roots["value"], len(world.roots["log"]))


class TestExplore:
    def test_full_enumeration_with_merging(self):
        # Depth 2, arity 3: 3 + 9 = 12 edges; sums merge, so the unique
        # states are the root, 3 at depth 1, and 5 at depth 2.
        result = explore(CounterHarness(), seed=0,
                         budget=Budget(max_states=100, max_depth=2))
        assert result.ok
        assert result.states == 12
        assert result.unique_states == 9
        assert result.pruned_visited == 4
        assert result.depth_limit_hits == 5
        assert result.finalized_leaves == 0  # base finalize declines

    def test_max_states_stops_exploration(self):
        result = explore(CounterHarness(), seed=0,
                         budget=Budget(max_states=5, max_depth=4))
        assert result.states == 5

    def test_max_branch_truncation_is_counted(self):
        result = explore(CounterHarness(), seed=0,
                         budget=Budget(max_states=50, max_depth=2,
                                       max_branch=1))
        assert result.truncated_branches > 0

    def test_deterministic_given_seed_and_budget(self):
        budget = Budget(max_states=40, max_depth=3)
        a = explore(CounterHarness(), 7, budget).to_dict()
        b = explore(CounterHarness(), 7, budget).to_dict()
        assert a == b

    def test_violation_yields_replayable_counterexample(self):
        harness = CounterHarness(bad_sum=4)
        result = explore(harness, seed=0,
                         budget=Budget(max_states=500, max_depth=4))
        assert not result.ok
        cex = result.violations[0]
        assert cex.harness == "counter"
        assert sum(sum(step) for step in cex.trace) >= 4
        assert cex.digest == state_digest(ast.literal_eval(cex.state))

        replay = replay_counterexample(cex, CounterHarness(bad_sum=4))
        assert replay.reproduced
        assert replay.state == cex.state
        assert replay.digest == cex.digest
        # Every replayed step logged its decisions.
        assert len(replay.choice_log) == len(cex.trace)

    def test_counterexample_json_roundtrip(self):
        harness = CounterHarness(bad_sum=3)
        result = explore(harness, seed=0,
                         budget=Budget(max_states=200, max_depth=3))
        cex = result.violations[0]
        again = Counterexample.from_json(cex.to_json())
        assert again.to_dict() == cex.to_dict()

    def test_replay_rejects_wrong_harness(self):
        cex = Counterexample(harness="other", seed=0, trace=[],
                             violations=["x"], state="()", digest="0" * 64)
        with pytest.raises(ValueError):
            replay_counterexample(cex, CounterHarness())

    def test_tampered_trace_diverges(self):
        harness = CounterHarness(bad_sum=4)
        result = explore(harness, seed=0,
                         budget=Budget(max_states=500, max_depth=4))
        cex = result.violations[0]
        cex.trace[0] = []         # step will choose more than recorded
        with pytest.raises(ReplayDivergence):
            replay_counterexample(cex, CounterHarness(bad_sum=4))
