"""Unit tests for the discrete-event engine."""

import pytest

from repro.simnet import engine
from repro.simnet.engine import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(0.3, fired.append, "c")
    sim.schedule(0.1, fired.append, "a")
    sim.schedule(0.2, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_ties_break_in_scheduling_order():
    sim = Simulator()
    fired = []
    for tag in "abc":
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.now == 2.0
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_with_no_events():
    sim = Simulator()
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []


def test_cancel_via_simulator():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.cancel(event)
    sim.run()
    assert fired == []


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_pending_count_excludes_cancelled():
    sim = Simulator()
    e1 = sim.schedule(1.0, lambda: None)
    e2 = sim.schedule(2.0, lambda: None)
    e1.cancel()
    assert [e for _, _, e in sim._heap if not e.cancelled] == [e2]
    assert sim.run() == 1


def test_kwargs_passed_to_callback():
    sim = Simulator()
    seen = {}
    sim.schedule(0.1, lambda **kw: seen.update(kw), a=1, b=2)
    sim.run()
    assert seen == {"a": 1, "b": 2}


def test_determinism_same_seed():
    def run(seed):
        sim = Simulator(seed=seed)
        vals = []
        def draw():
            vals.append(sim.rng.random())
            if len(vals) < 5:
                sim.schedule(0.1, draw)
        sim.schedule(0.0, draw)
        sim.run()
        return vals

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_child_rng_independent_of_draw_order():
    sim1 = Simulator(seed=9)
    a1 = sim1.child_rng("a").random()
    sim2 = Simulator(seed=9)
    _ = sim2.child_rng("b").random()  # draw from another child first
    # Reusing tag "a" on a *fresh* Simulator is the point of this test.
    a2 = sim2.child_rng("a").random()
    assert a1 == a2


def test_child_rng_rejects_a_repeated_tag():
    sim = Simulator(seed=9)
    sim.child_rng("link:a->b")
    sim.child_rng("link:a->b#1")
    with pytest.raises(ValueError, match="link:a->b"):
        sim.child_rng("link:a->b")
    # The issued tags travel with a checkpoint: the restored world
    # refuses the repeat too, and the original is unaffected.
    restored, _ = sim.checkpoint().restore()
    with pytest.raises(ValueError):
        restored.child_rng("link:a->b#1")
    sim.child_rng("other")
    restored.child_rng("other")


# ----------------------------------------------------------------------
# Hot-path machinery: compaction, reschedule, clock rules
# ----------------------------------------------------------------------

def test_compaction_triggers_and_preserves_events(monkeypatch):
    monkeypatch.setattr(engine, "COMPACT_MIN", 8)
    sim = Simulator()
    keep = []
    survivors = [sim.schedule(10.0 + i, keep.append, i) for i in range(4)]
    doomed = [sim.schedule(1.0 + 0.001 * i, lambda: keep.append("bad"))
              for i in range(40)]
    for e in doomed:
        e.cancel()
    # Dead entries stay bounded by the trigger threshold instead of
    # accumulating all 40 cancellations.
    assert sim.heap_size - len(survivors) < 8
    sim.run()
    assert keep == [0, 1, 2, 3]


def test_no_compaction_below_min_threshold(monkeypatch):
    monkeypatch.setattr(engine, "COMPACT_RATIO", 0.0)
    sim = Simulator()
    for i in range(10):
        sim.schedule(1.0 + i, lambda: None).cancel()
    assert sim.heap_size == 10


def test_cancelled_counter_consistent_under_interleaving(monkeypatch):
    monkeypatch.setattr(engine, "COMPACT_MIN", 4)
    monkeypatch.setattr(engine, "COMPACT_RATIO", 0.25)
    sim = Simulator()

    def naive_cancelled(s):
        return sum(1 for _, _, e in s._heap if e.cancelled)

    events = []
    for i in range(30):
        events.append(sim.schedule(0.1 * (i + 1), lambda: None))
        if i % 3 == 0:
            events[i // 2].cancel()
        if i % 7 == 0:
            sim.run(until=sim.now + 0.15)
        assert sim._cancelled == naive_cancelled(sim)
    sim.run()
    assert sim._cancelled == 0 == naive_cancelled(sim) == sim.heap_size


def test_cancel_is_idempotent_for_counters():
    sim = Simulator()
    e = sim.schedule(1.0, lambda: None)
    e.cancel()
    e.cancel()
    assert sim._cancelled == 1 == sim.heap_size


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    e = sim.schedule(1.0, lambda: None)
    sim.run()
    assert e.fired
    e.cancel()
    assert not e.cancelled
    assert sim._cancelled == 0


def test_reschedule_later_fires_once_at_new_time():
    sim = Simulator()
    fired = []
    e = sim.schedule(1.0, lambda: fired.append(sim.now))
    e2 = sim.reschedule(e, 5.0)
    assert e2 is e  # deferred in place
    sim.run()
    assert fired == [5.0]
    assert sim.heap_size == 0


def test_reschedule_earlier_fires_at_new_time():
    sim = Simulator()
    fired = []
    e = sim.schedule(5.0, lambda: fired.append(sim.now))
    e2 = sim.reschedule(e, 1.0)
    sim.run()
    assert fired == [1.0]
    assert e2.fired


def test_reschedule_chain_never_fires_stale_deadline():
    sim = Simulator()
    fired = []
    e = sim.schedule(1.0, lambda: fired.append(sim.now))
    for delay in (2.0, 3.0, 0.5, 4.0):
        e = sim.reschedule(e, delay)
    sim.run()
    assert fired == [4.0]


def test_reschedule_matches_cancel_plus_push_tie_breaking():
    """A rescheduled timer must tie-break exactly as a cancel+push
    would: the new seq is allocated at reschedule time."""
    def run(use_reschedule):
        sim = Simulator()
        fired = []
        timer = sim.schedule(1.0, fired.append, "timer")
        if use_reschedule:
            sim.reschedule(timer, 3.0)
        else:
            timer.cancel()
            sim.schedule(3.0, fired.append, "timer")
        sim.schedule(3.0, fired.append, "rival")  # same deadline, later seq
        sim.run()
        return fired

    assert run(True) == run(False) == ["timer", "rival"]


def test_reschedule_after_fire_starts_fresh_timer():
    sim = Simulator()
    fired = []
    e = sim.schedule(1.0, fired.append, "x")
    sim.run()
    e2 = sim.reschedule(e, 1.0)
    assert e2 is not e
    sim.run()
    assert fired == ["x", "x"]


def test_reschedule_into_past_rejected():
    sim = Simulator()
    e = sim.schedule(5.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(until=3.0)
    with pytest.raises(ValueError):
        sim.reschedule_at(e, 1.0)


def test_run_clock_drain_advances_to_until():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_clock_until_exit_is_exact():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(20.0, lambda: None)
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_counts_zero_when_only_cancelled_events_popped():
    sim = Simulator()
    for i in range(5):
        sim.schedule(1.0 + i, lambda: None).cancel()
    assert sim.run() == 0
    assert sim.heap_size == 0


def test_kwargs_fast_path_stores_none():
    sim = Simulator()
    e = sim.schedule(1.0, lambda: None)
    assert e.kwargs is None
    e2 = sim.schedule(1.0, lambda **kw: None, a=1)
    assert e2.kwargs == {"a": 1}


def test_next_event_time_skips_cancelled():
    sim = Simulator()
    e1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_ties()[0].time == 1.0
    e1.cancel()
    assert sim.pending_ties()[0].time == 2.0


def test_trace_hook_sees_fired_events_only():
    sim = Simulator()
    log = []
    sim.trace_hook = lambda ev: log.append((ev.time, ev.fn.__name__))

    def cb():
        pass

    sim.schedule(1.0, cb)
    sim.schedule(2.0, cb).cancel()
    e = sim.schedule(3.0, cb)
    sim.reschedule(e, 4.0)
    sim.run()
    assert log == [(1.0, "cb"), (4.0, "cb")]


# ----------------------------------------------------------------------
# The observer slot: trace_hook alone decides inline vs observed dispatch
# ----------------------------------------------------------------------
class _Ring:
    """A checkpointable workload: bound-method handlers that re-arm
    themselves, with same-deadline ties and a kwargs event."""

    def __init__(self, sim, rounds=5):
        self.sim = sim
        self.rounds = rounds
        self.log = []
        self.seen = []
        for lane in range(3):
            sim.schedule(0.5, self.tick, lane, 0)
        sim.schedule(0.75, self.note, tag="kw")

    def tick(self, lane, n):
        self.log.append((self.sim.now, lane, n))
        if n + 1 < self.rounds:
            self.sim.schedule(0.5 + 0.25 * lane, self.tick, lane, n + 1)

    def note(self, tag=""):
        self.log.append((self.sim.now, tag))

    def observe(self, event):
        """A trace hook that deep-copies with the world it observes."""
        self.seen.append((event.time, event.seq, event.fn.__name__))


def _observed_ring(drive):
    sim = Simulator(seed=3)
    ring = _Ring(sim)
    sim.trace_hook = ring.observe
    drive(sim)
    assert sim.pending_ties() == []
    return ring.seen, ring.log, sim.events_fired


def _drive_fire_event(sim):
    while True:
        ties = sim.pending_ties()
        if not ties:
            return
        sim.fire_event(ties[0])


def test_run_step_and_fire_event_observe_identically():
    by_run = _observed_ring(lambda sim: sim.run())
    assert by_run[0] and by_run[2] == len(by_run[0])
    assert _observed_ring(_drive_fire_event) == by_run


def test_hook_assigned_inside_handler_sees_the_next_event():
    sim = Simulator()
    seen = []

    def attach():
        sim.trace_hook = lambda ev: seen.append(ev.fn.__name__)

    def later():
        pass

    def detach():
        sim.trace_hook = None

    sim.schedule(1.0, attach)
    sim.schedule(2.0, later)
    sim.schedule(3.0, detach)
    sim.schedule(4.0, later)
    sim.run()
    # Not the attaching event itself, every event after it, and nothing
    # after the detaching one.
    assert seen == ["later", "detach"]


def test_clearing_the_hook_returns_to_inline_dispatch():
    sim = Simulator()
    assert sim._observed is None
    sim.trace_hook = lambda ev: None
    assert sim._observed == sim._fire
    sim.trace_hook = None
    assert sim._observed is None and sim.trace_hook is None
    fired = []
    sim.schedule(1.0, fired.append, "plain")
    assert sim.run() == 1 and fired == ["plain"]


def test_default_trace_hook_seeds_the_observer_slot(monkeypatch):
    from repro.simnet import engine

    seen = []
    monkeypatch.setattr(engine, "default_trace_hook", seen.append)
    sim = Simulator()
    assert sim.trace_hook == seen.append
    event = sim.schedule(1.0, lambda: None)
    sim.run()
    assert seen == [event]


def test_handlers_see_current_clock_and_counters_when_unobserved():
    sim = Simulator()
    seen = []

    def probe():
        seen.append((sim.now, sim.events_fired))

    sim.schedule(1.0, probe)
    sim.schedule(2.0, probe)
    sim.run()
    assert seen == [(1.0, 1), (2.0, 2)]


def test_restored_checkpoint_observes_through_its_own_hook():
    sim = Simulator(seed=3)
    ring = _Ring(sim)
    sim.trace_hook = ring.observe
    sim.run(until=0.75)  # the three lanes' first ticks and the kwargs note
    before = list(ring.seen)
    assert len(before) == 4

    cp = sim.checkpoint(ring)
    sim2, ring2 = cp.restore()
    assert sim2.trace_hook.__self__ is ring2
    assert sim2._observed.__self__ is sim2
    fired = sim2.run()
    assert fired > 0
    assert ring.seen == before                    # the original is untouched
    assert ring2.seen[:4] == before and len(ring2.seen) == 4 + fired
    assert ring.log == ring2.log[:len(ring.log)] and len(ring2.log) > len(ring.log)

    # ...and the original world carries on into the original hook.
    assert sim.run() == fired
    assert ring.seen == ring2.seen
