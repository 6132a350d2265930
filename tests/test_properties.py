"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.analysis.stats import percentile, summarize
from repro.core.degradation import DegradationController
from repro.core.reliability import FecDecoder, FecEncoder
from repro.core.traffic import Message, Priority, StreamSpec, TrafficClass
from repro.edge.placement import PlacementProblem, solve_greedy, solve_local_search
from repro.edge.topology import CityTopology
from repro.mar.cache import ObjectCache
from repro.simnet.engine import Simulator
from repro.simnet.packet import Packet
from repro.simnet.queues import DropTailQueue, FQCoDelQueue

# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=50))
def test_engine_fires_all_events_in_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(sim.now))
    sim.run()
    assert len(fired) == len(delays)
    assert fired == sorted(fired)


# ----------------------------------------------------------------------
# Queues
# ----------------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=50),
    st.lists(st.integers(min_value=1, max_value=1500), min_size=0, max_size=100),
)
def test_droptail_conservation(capacity, sizes):
    """accepted == dequeued + still-queued, and drops accounted."""
    q = DropTailQueue(capacity=capacity)
    accepted = sum(1 for s in sizes if q.enqueue(Packet(src="a", dst="b", size=s), 0.0))
    assert accepted + q.drops == len(sizes)
    dequeued = 0
    while q.dequeue(0.0) is not None:
        dequeued += 1
    assert dequeued == accepted
    assert q.backlog_bytes == 0


@given(st.lists(st.tuples(st.sampled_from("abcd"), st.integers(1, 1500)), max_size=120))
def test_fqcodel_conservation(items):
    q = FQCoDelQueue()
    for flow, size in items:
        q.enqueue(Packet(src="a", dst="b", size=size, flow=flow), 0.0)
    out = 0
    while q.dequeue(0.0) is not None:
        out += 1
    assert out + q.drops == len(items)
    assert len(q) == 0


# ----------------------------------------------------------------------
# Degradation controller
# ----------------------------------------------------------------------

priorities = st.sampled_from(list(Priority))


@st.composite
def stream_sets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    streams = []
    for i in range(n):
        nominal = draw(st.floats(min_value=1e3, max_value=1e7))
        # Floors are either absent or meaningful (denormal floats like
        # 5e-324 are not realistic rate declarations).
        floor = draw(st.one_of(st.just(0.0),
                               st.floats(min_value=1.0, max_value=nominal)))
        streams.append(
            StreamSpec(
                stream_id=i,
                name=f"s{i}",
                traffic_class=TrafficClass.FULL_BEST_EFFORT,
                priority=draw(priorities),
                nominal_rate_bps=nominal,
                min_rate_bps=floor,
            )
        )
    return streams


@given(stream_sets(), st.floats(min_value=0.0, max_value=1e8))
def test_allocation_invariants(streams, budget):
    ctl = DegradationController(streams)
    alloc = ctl.allocate(budget)
    for spec in streams:
        rate = alloc.rate(spec.stream_id)
        # Never exceed nominal.
        assert rate <= spec.nominal_rate_bps + 1e-6
        # Either dropped (0) or at least the floor.
        assert rate == 0.0 or rate >= min(spec.min_rate_bps, spec.nominal_rate_bps) - 1e-6
        # Non-discardable streams are never dropped below their floor.
        if not spec.priority.may_discard:
            assert rate >= spec.min_rate_bps - 1e-6
    # Without overcommit, the budget is respected.
    if not alloc.overcommitted:
        assert math.fsum(alloc.rates_bps.values()) <= budget + 1e-6


@given(stream_sets(), st.floats(min_value=0.0, max_value=1e8),
       st.floats(min_value=0.0, max_value=1e8))
def test_allocation_monotone_in_budget(streams, b1, b2):
    """A larger budget never shrinks the total allocation nor the
    top-priority stream's share.

    (Per-stream monotonicity does NOT hold in general: a larger budget
    can fund a higher-priority stream's floor, legitimately displacing
    a lower-priority stream that the smaller budget happened to feed.)
    """
    lo, hi = min(b1, b2), max(b1, b2)
    ctl = DegradationController(streams)
    a_lo = ctl.allocate(lo)
    a_hi = ctl.allocate(hi)
    assert math.fsum(a_hi.rates_bps.values()) >= math.fsum(a_lo.rates_bps.values()) - 1e-6


@given(stream_sets(), st.floats(min_value=0.0, max_value=1e8))
def test_allocation_strict_priority_dominance(streams, budget):
    """If any stream receives budget, every stream at a strictly more
    important priority level is either dropped (unfundable floor) or
    fully satisfied — lower levels never take from higher ones."""
    ctl = DegradationController(streams)
    alloc = ctl.allocate(budget)
    if alloc.overcommitted:
        # Budget below the guaranteed floors: non-discardable streams
        # keep their floors regardless of level; dominance is suspended.
        return
    for b in streams:
        if alloc.rate(b.stream_id) <= 1e-6:
            continue
        for a in streams:
            if a.priority < b.priority and a.stream_id not in alloc.dropped:
                assert alloc.rate(a.stream_id) >= a.nominal_rate_bps * (1 - 1e-9) - 1e-6


# ----------------------------------------------------------------------
# FEC
# ----------------------------------------------------------------------


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=60),
    st.data(),
)
def test_fec_recovers_any_single_loss_per_group(group_size, n_messages, data):
    enc = FecEncoder(group_size=group_size)
    dec = FecDecoder(group_size=group_size)
    n_groups = n_messages // group_size
    lost = set()
    for g in range(n_groups):
        if data.draw(st.booleans(), label=f"lose_in_group_{g}"):
            lost.add(g * group_size + data.draw(
                st.integers(0, group_size - 1), label=f"victim_{g}"))
    parity_idx = 0
    for i in range(n_messages):
        parity = enc.push(
            Message(stream_id=0, seq=i, size=100, created_at=0.0, deadline=1.0)
        )
        if i not in lost:
            dec.on_data(i)
        if parity is not None:
            dec.on_parity(parity_idx)
            parity_idx += 1
    assert set(dec.recovered) == lost


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------


@given(st.lists(st.tuples(st.sampled_from("abcdefgh"), st.integers(1, 500)), max_size=200),
       st.integers(min_value=100, max_value=2000))
def test_cache_never_exceeds_capacity(requests, capacity):
    cache = ObjectCache(capacity_bytes=capacity)
    resident = {}  # a hit keeps the size the object was admitted with
    for key, size in requests:
        if key not in cache:
            resident[key] = size
        cache.request(key, size)
        assert sum(s for k, s in resident.items() if k in cache) <= capacity
    assert cache.hits + cache.misses == len(requests)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1))
def test_percentile_within_range(data):
    p50 = percentile(data, 50)
    assert min(data) <= p50 <= max(data)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1))
def test_summary_consistency(data):
    s = summarize(data)
    assert s.minimum <= s.p5 <= s.p50 <= s.p95 <= s.maximum
    # The mean may sit 1 ulp outside [min, max] from summation rounding.
    slack = 4 * max(abs(s.minimum), abs(s.maximum)) * 2.3e-16
    assert s.minimum - slack <= s.mean <= s.maximum + slack


# ----------------------------------------------------------------------
# Edge placement
# ----------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_placement_cover_and_local_search_dominance(seed):
    topo = CityTopology.random_city(n_users=40, n_sites=12, seed=seed)
    problem = PlacementProblem(topo)
    greedy = solve_greedy(problem)
    if not greedy.feasible:
        return  # infeasible instances have no cover to check
    assert problem.is_cover(greedy.chosen)
    ls = solve_local_search(problem)
    assert ls.feasible
    assert problem.is_cover(ls.chosen)
    assert ls.n_datacenters <= greedy.n_datacenters
