"""A run is a pure function of ``(scenario, seed)``: checked on what runs.

Every registered fleet scenario runs one small shard (the shards of
``test_import_budget.SHARDS``) under three guards:

- no module-level ``random.*`` function is called while a scenario
  runs (:func:`global_random_raises`);
- the shards run forward, reversed, then forward again in one fresh
  interpreter, and reversed in another, give byte-equal aggregates, so
  no module state carries from one shard into the next (a memo filled
  by whichever shard ran first shows up as the second interpreter's
  difference);
- a checkpoint taken halfway through a scenario's first
  :meth:`Simulator.run` call, restored and run to the same horizon,
  fires the same events as the uninterrupted run.

The fourth guard is always on: :meth:`Simulator.child_rng` refuses a
tag its simulator has already issued (``tests/test_engine.py``).
"""

import contextlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fleet.campaign import get_scenario, scenario_names
from repro.simnet.engine import Simulator
from test_import_budget import SHARDS, SRC

SEED = 3


@contextlib.contextmanager
def global_random_raises():
    """Make every module-level ``random.*`` function raise.

    Scope it to scenario runs only: hypothesis draws from the global
    generator.
    """
    names = sorted(name for name, value in vars(random).items()
                   if isinstance(getattr(value, "__self__", None),
                                 random.Random))

    def refuse(name):
        def draw(*args, **kwargs):
            raise AssertionError(
                f"random.{name}() called while a scenario runs; "
                "draw from sim.child_rng(tag) instead")
        return draw

    saved = {name: getattr(random, name) for name in names}
    try:
        for name in names:
            setattr(random, name, refuse(name))
        yield
    finally:
        for name, fn in saved.items():
            setattr(random, name, fn)


def run_shards(names):
    return {name: get_scenario(name).fn(SEED, dict(SHARDS[name])).to_json()
            for name in names}


def test_the_global_random_guard_fires_and_lifts():
    draw = random.uniform
    with global_random_raises():
        for call in (random.random, lambda: random.uniform(0, 1),
                     lambda: random.choice([1, 2]), random.getstate):
            with pytest.raises(AssertionError, match="child_rng"):
                call()
        random.Random(1).random()      # seeded instances still work
    assert random.uniform is draw


RUN_ORDERS = """
import json, sys
from test_determinism_guards import global_random_raises, run_shards
with global_random_raises():
    print(json.dumps([run_shards(order) for order in json.loads(sys.argv[1])]))
"""


def run_orders_in_fresh_interpreter(*orders):
    """Run the shards in each order in turn, in one new interpreter."""
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, tests]))
    done = subprocess.run(
        [sys.executable, "-c", RUN_ORDERS, json.dumps(orders)], env=env,
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_shard_aggregates_do_not_depend_on_what_ran_before():
    forward = sorted(SHARDS)
    assert set(forward) <= set(scenario_names())
    backward = forward[::-1]
    first, reverse, again = run_orders_in_fresh_interpreter(
        forward, backward, forward)
    reverse_first, = run_orders_in_fresh_interpreter(backward)
    assert reverse == first
    assert again == first
    assert reverse_first == first


def signature(event):
    fn = event.fn
    return (event.time, event.seq,
            getattr(fn, "__qualname__", type(fn).__qualname__))


def first_run_events(name, monkeypatch, on_event):
    """Run one shard of ``name``; ``on_event(sim, until, index, event)``
    sees every event fired by its first :meth:`Simulator.run` call."""
    real_run = Simulator.run
    first = []

    def run(sim, until=None, max_events=None):
        if first:
            return real_run(sim, until, max_events)
        first.append(sim)
        count = itertools.count()
        previous = sim.trace_hook
        sim.trace_hook = lambda event: on_event(sim, until, next(count), event)
        try:
            return real_run(sim, until, max_events)
        finally:
            sim.trace_hook = previous

    with monkeypatch.context() as patch:
        patch.setattr(Simulator, "run", run)
        get_scenario(name).fn(SEED, dict(SHARDS[name]))
    assert first, f"{name} never called Simulator.run"


@pytest.mark.parametrize("name", sorted(SHARDS))
def test_checkpoint_mid_run_replays_the_rest(name, monkeypatch):
    reference = []
    first_run_events(name, monkeypatch,
                     lambda sim, until, i, event: reference.append(
                         signature(event)))
    assert len(reference) >= 10, reference
    middle = len(reference) // 2

    taken = {}

    def take(sim, until, index, event):
        # The hook runs as ``event`` fires: the clock and counters have
        # moved, its handler has not run yet.
        if index == middle:
            taken["checkpoint"] = sim.checkpoint(event)
            taken["until"] = until

    first_run_events(name, monkeypatch, take)
    sim, event = taken["checkpoint"].restore()
    tail = [signature(event)]
    sim.trace_hook = lambda fired: tail.append(signature(fired))
    event.fn(*event.args, **(event.kwargs or {}))
    sim.run(taken["until"])
    assert tail == reference[middle:]
