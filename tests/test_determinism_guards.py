"""A run is a pure function of ``(scenario, seed)``: checked on what runs.

Every registered fleet scenario runs one small shard (the shards of
``test_import_budget.SHARDS``) under these guards:

- no module-level ``random.*`` function is called while a scenario
  runs (:func:`global_random_raises`), no ``time`` clock is read
  (:func:`wall_clock_raises`), and no builtin ``sum()`` returns a float
  (:func:`float_sum_raises`); the observed scenarios and the bounded
  explorer run under all three guards too;
- the shards run forward, reversed, then forward again in one fresh
  interpreter under ``PYTHONHASHSEED=0``, and reversed in another under
  ``PYTHONHASHSEED=1``, give byte-equal aggregates whose digest is
  pinned, so no module state carries from one shard into the next (a
  memo filled by whichever shard ran first shows up as the second
  interpreter's difference), and no set order, ``hash()`` or ``id()``
  reaches a result;
- a checkpoint taken halfway through a scenario's first
  :meth:`Simulator.run` call that fires events, restored and run to the
  same horizon, fires the same events as the uninterrupted run; a fluid
  cell, which fires none, checkpointed part-way through its timeline
  ends with the uninterrupted run's samples.

One more guard is always on: :meth:`Simulator.child_rng` refuses a
tag its simulator has already issued (``tests/test_engine.py``).  What
no run shows is left to one AST walk over ``src/repro`` at the end of
this file (docs/DETERMINISM.md).
"""

import ast
import contextlib
import hashlib
import importlib
import itertools
import json
import os
import pkgutil
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.check import HARNESSES, Budget, explore
from repro.check.harnesses import DEFAULT_HARNESSES
from fleet_helpers import scenario_names
from repro.fleet.campaign import get_scenario
from repro.obs import OBS_SCENARIOS, run_obs_scenario
from repro.simnet.engine import Simulator
from test_import_budget import SHARDS, SRC

SEED = 3

#: sha256 of the five shard aggregates in ``sorted(SHARDS)`` order: one
#: value under every ``PYTHONHASHSEED``.
SHARDS_DIGEST = "f1f4950ec53c1082"

#: The ``time`` functions that read a clock.
WALL_CLOCKS = [name + suffix for name in ("time", "monotonic", "perf_counter",
                                          "process_time", "clock_gettime")
               for suffix in ("", "_ns") if hasattr(time, name + suffix)]


@contextlib.contextmanager
def refused(module, names, advice):
    """Make each ``module.<name>`` raise, and every attribute of a loaded
    ``repro`` module bound to one of them (``from time import monotonic``).
    """
    originals = {id(getattr(module, name)): name for name in names}
    holders = [module] + [held for name, held in sorted(sys.modules.items())
                          if name.split(".")[0] == "repro"]
    saved = [(holder, attr, value) for holder in holders
             for attr, value in list(vars(holder).items())
             if id(value) in originals
             and value is getattr(module, originals[id(value)])]

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{module.__name__}.{name}() called while "
                                 f"a scenario runs; {advice}")
        return call

    try:
        for holder, attr, value in saved:
            setattr(holder, attr, refuse(originals[id(value)]))
        yield
    finally:
        for holder, attr, value in saved:
            setattr(holder, attr, value)


def global_random_raises():
    """Make every module-level ``random.*`` function raise.

    Scope it to scenario runs only: hypothesis draws from the global
    generator.
    """
    return refused(random, [name for name, value in vars(random).items()
                            if isinstance(getattr(value, "__self__", None),
                                          random.Random)],
                   "draw from sim.child_rng(tag) instead")


def wall_clock_raises():
    """Make every ``time`` clock raise.

    Scope it to scenario runs only: the fleet driver and pytest read the
    clock on purpose.
    """
    return refused(time, WALL_CLOCKS, "simulated time is sim.now")


def load_repro():
    """Import every ``repro`` module: the guards cover only loaded ones."""
    for module in pkgutil.walk_packages([str(Path(SRC) / "repro")], "repro."):
        if module.name != "repro.__main__":     # it runs the CLI
            importlib.import_module(module.name)


@contextlib.contextmanager
def float_sum_raises():
    """Make the builtin ``sum()`` raise in every loaded ``repro`` module
    when it returns a float.

    CPython 3.12 made ``sum()`` of floats compensated, so such a sum
    prints different digits on different interpreters; ``math.fsum``
    (behind ``repro.analysis.stats``) is correctly rounded on all of
    them.  Integer sums pass.
    """
    def checked(*args, **kwargs):
        total = sum(*args, **kwargs)
        if isinstance(total, float):
            raise AssertionError("sum() of floats called while a scenario "
                                 "runs; use repro.analysis.stats or "
                                 "math.fsum")
        return total

    holders = [held for name, held in sorted(sys.modules.items())
               if name.split(".")[0] == "repro" and "sum" not in vars(held)]
    try:
        for holder in holders:
            holder.sum = checked
        yield
    finally:
        for holder in holders:
            del holder.sum


def run_shards(names):
    return {name: get_scenario(name).fn(SEED, dict(SHARDS[name])).to_json()
            for name in names}


def test_the_global_random_guard_fires_and_lifts(monkeypatch):
    from repro.simnet import link

    draw = random.uniform
    monkeypatch.setattr(link, "uniform", draw, raising=False)
    with global_random_raises():
        for call in (random.random, lambda: random.uniform(0, 1),
                     lambda: random.choice([1, 2]), random.getstate,
                     lambda: link.uniform(0, 1)):
            with pytest.raises(AssertionError, match="child_rng"):
                call()
        random.Random(1).random()      # seeded instances still work
    assert random.uniform is draw and link.uniform is draw


def test_the_wall_clock_guard_fires_and_lifts(monkeypatch):
    from repro.simnet import link

    clock = time.monotonic
    monkeypatch.setattr(link, "monotonic", clock, raising=False)
    with wall_clock_raises():
        for call in (time.time, time.monotonic, time.perf_counter_ns,
                     link.monotonic):
            with pytest.raises(AssertionError, match="sim.now"):
                call()
        time.sleep(0)                  # not a clock read
    assert time.monotonic is clock and link.monotonic is clock


def test_the_float_sum_guard_fires_and_lifts():
    from repro.simnet import trace

    with float_sum_raises():
        for call in (lambda: trace.sum([0.5, 0.25]),
                     lambda: trace.sum([1, 2], 0.0)):
            with pytest.raises(AssertionError, match="math.fsum"):
                call()
        assert trace.sum([1, 2, 3]) == 6        # integer sums pass
    assert "sum" not in vars(trace)


def test_observed_and_explored_runs_read_no_clock():
    load_repro()
    with global_random_raises(), wall_clock_raises(), float_sum_raises():
        for name in sorted(OBS_SCENARIOS):
            run_obs_scenario(name, seed=SEED, frames=5)
        for name in DEFAULT_HARNESSES:
            explore(HARNESSES[name](), SEED, Budget(max_states=40))


RUN_ORDERS = """
import json, sys
from test_determinism_guards import (float_sum_raises, global_random_raises,
                                     load_repro, run_shards,
                                     wall_clock_raises)
load_repro()
with global_random_raises(), wall_clock_raises(), float_sum_raises():
    print(json.dumps([run_shards(order) for order in json.loads(sys.argv[1])]))
"""


def run_orders_in_fresh_interpreter(hash_seed, *orders):
    """Run the shards in each order in turn, in one new interpreter."""
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, tests]),
               PYTHONHASHSEED=hash_seed)
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
        "0", forward, backward, forward)
    reverse_first, = run_orders_in_fresh_interpreter("1", backward)
    assert reverse == first
    assert again == first
    assert reverse_first == first
    joined = "".join(first[name] for name in forward)
    assert (hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]
            == SHARDS_DIGEST)


def signature(event):
    fn = event.fn
    return (event.time, event.seq,
            getattr(fn, "__qualname__", type(fn).__qualname__))


def first_run_events(name, monkeypatch, on_event):
    """Run one shard of ``name``; ``on_event(sim, until, index, event)``
    sees every event fired by its first :meth:`Simulator.run` call that
    fires any.  A call that fires none (the city shards' fluid cells
    schedule no event) sees nothing, so it is passed over."""
    real_run = Simulator.run
    first = []

    def run(sim, until=None):
        if first:
            return real_run(sim, until)
        count = itertools.count()
        previous = sim.trace_hook
        sim.trace_hook = lambda event: on_event(sim, until, next(count), event)
        try:
            fired = real_run(sim, until)
        finally:
            sim.trace_hook = previous
        if fired:
            first.append(sim)
        return fired

    with monkeypatch.context() as patch:
        patch.setattr(Simulator, "run", run)
        get_scenario(name).fn(SEED, dict(SHARDS[name]))
    assert first, f"{name} never fired an event in Simulator.run"


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


def test_checkpoint_mid_timeline_replays_the_rest_of_a_fluid_cell():
    """The fluid cell steps on reads of its timeline, not on events, so
    the test above never sees it: a cell checkpointed part-way through
    its timeline, restored and stepped to the horizon, must end with the
    samples and integrals of an uninterrupted run."""
    from repro.scale.population import CellProcess, CellSpec, run_cell

    spec = CellSpec(cell_id=4, profile="LTE", initial_users=120.0,
                    arrival_rate=6.0, mean_holding=30.0,
                    demand_up_bps=2e5, capacity_up_bps=4 * 7.94e6)
    whole = run_cell(spec, SEED, 60.0).timeline
    assert whole.blocked_user_seconds > 0.0

    sim = Simulator(seed=SEED)
    process = CellProcess(sim, spec)
    sim.run(until=25.0)
    assert 0 < len(process.timeline.samples) < len(whole.samples)
    sim, process = sim.checkpoint(process).restore()
    sim.run(until=60.0)
    resumed = process.timeline
    assert resumed.samples == whole.samples
    assert ((resumed.arrivals, resumed.user_seconds,
             resumed.blocked_user_seconds)
            == (whole.arrivals, whole.user_seconds,
                whole.blocked_user_seconds))


# ----------------------------------------------------------------------
# What no guard sees before it runs: one AST walk over src/repro
# ----------------------------------------------------------------------
#: The harness reads the clock on purpose.
HARNESS = ("cli.py", "fleet")

#: ``datetime.datetime`` is a C type: :func:`wall_clock_raises` cannot
#: replace these methods.
DATETIME_READS = frozenset({
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: numpy's seeded constructors.  Any other ``numpy.random`` function
#: draws from numpy's global stream; a constructor without a seed, like
#: ``random.Random()`` and any ``random.SystemRandom``, draws OS entropy.
#: Model and array code outside the guarded scenarios runs unguarded.
NUMPY_SEEDED = frozenset({
    "default_rng", "Generator", "SeedSequence", "PCG64", "PCG64DXSM",
    "Philox", "MT19937", "SFC64",
})

SIM_TIME_ATTRS = frozenset({"now", "sim_time"})
SIM_TIME_NAMES = SIM_TIME_ATTRS | {"t_now"}


def imported_names(tree):
    """Local name -> dotted origin, for every absolute import in ``tree``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                names[alias.asname or root] = (alias.name if alias.asname
                                               else root)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                names[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}")
    return names


def dotted(node, names):
    """The imported origin of a name or attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in names:
        return ".".join([names[node.id], *reversed(parts)])
    return None


def is_sim_time(node):
    if isinstance(node, ast.Attribute):
        return node.attr in SIM_TIME_ATTRS
    return isinstance(node, ast.Name) and node.id in SIM_TIME_NAMES


def call_hazard(node, names):
    called = dotted(node.func, names) or ""
    seeded = bool(node.args or node.keywords)
    if called in DATETIME_READS:
        return f"{called}() reads the wall clock"
    if (called == "random.SystemRandom"
            or called == "random.Random" and not seeded
            or called.startswith("numpy.random.")
            and (called.rsplit(".", 1)[1] not in NUMPY_SEEDED or not seeded)):
        return f"{called}() is not seeded"
    return None


def hazards(source):
    """``(line, hazard)`` for each hazard no runtime guard sees in one
    module: the ``random`` module used as a value (the global stream
    waiting for a caller that passes no RNG), a ``datetime`` clock read,
    an unseeded RNG, and ``==``/``!=`` on sim time (exact equality on
    accumulated floats turns into "never" the day a delay changes)."""
    tree = ast.parse(source)
    names = imported_names(tree)
    bases = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Name, ast.Attribute))
                and isinstance(node.ctx, ast.Load) and id(node) not in bases
                and dotted(node, names) in ("random", "numpy.random")):
            found.append((node.lineno, f"the {dotted(node, names)} module "
                          "used as a value is the global RNG"))
        elif isinstance(node, ast.Call) and call_hazard(node, names):
            found.append((node.lineno, call_hazard(node, names)))
        elif (isinstance(node, ast.Compare)
              and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
              and any(map(is_sim_time, [node.left, *node.comparators]))):
            found.append((node.lineno, "==/!= on sim time"))
    return sorted(found)


def test_no_hazard_a_guard_cannot_see():
    root = Path(SRC) / "repro"
    found = [f"{path.relative_to(root)}:{line}: {hazard}"
             for path in sorted(root.rglob("*.py"))
             if path.relative_to(root).parts[0] not in HARNESS
             for line, hazard in hazards(path.read_text(encoding="utf-8"))]
    assert found == []


#: One bad snippet the walk flags and its fix, per hazard.
BAD_AND_GOOD = {
    "random as a value": (
        "import random\ndef jitter(j, rng=None):\n"
        "    return (rng or random).uniform(0, j)\n",
        "import random\ndef jitter(j, rng=None):\n"
        "    return (rng or random.Random(7)).uniform(0, j)\n"),
    "datetime read": (
        "from datetime import datetime\nstamp = datetime.now()\n",
        "from datetime import datetime\nstamp = datetime(2017, 6, 5)\n"),
    "unseeded RNG": (
        "import random\nrng = random.SystemRandom(7)\n",
        "import random\nrng = random.Random(7)\n"),
    "unseeded numpy RNG": (
        "import numpy as np\nrng = np.random.default_rng()\n",
        "import numpy as np\nrng = np.random.default_rng(42)\n"),
    "sim time equality": (
        "def due(sim, t):\n    return sim.now == t\n",
        "def due(sim, t):\n    return sim.now >= t\n"),
}


@pytest.mark.parametrize("hazard", sorted(BAD_AND_GOOD))
def test_the_walk_flags_each_hazard_and_passes_its_fix(hazard):
    bad, good = BAD_AND_GOOD[hazard]
    assert len(hazards(bad)) == 1, hazards(bad)
    assert hazards(good) == []
