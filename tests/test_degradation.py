"""Unit tests for the degradation (allocation) controller."""

import math

import pytest

from repro.core.degradation import DegradationController
from repro.core.traffic import Priority, StreamSpec, TrafficClass, mar_baseline_streams


def total_bps(alloc):
    return math.fsum(alloc.rates_bps.values())


def spec(sid, priority, nominal, floor=0.0, name=None):
    return StreamSpec(
        stream_id=sid,
        name=name or f"s{sid}",
        traffic_class=TrafficClass.FULL_BEST_EFFORT,
        priority=priority,
        nominal_rate_bps=nominal,
        min_rate_bps=floor,
    )


def test_abundant_budget_gives_everyone_nominal():
    ctl = DegradationController(mar_baseline_streams())
    total_nominal = sum(s.nominal_rate_bps for s in ctl.streams)
    alloc = ctl.allocate(total_nominal * 2)
    for s in ctl.streams:
        assert alloc.rate(s.stream_id) == pytest.approx(s.nominal_rate_bps)
        assert alloc.quality[s.stream_id] == pytest.approx(1.0)
    assert alloc.dropped == []


def test_moderate_congestion_sheds_lowest_priority_first():
    streams = mar_baseline_streams(video_nominal_bps=8e6)
    ctl = DegradationController(streams)
    # Enough for everything except full interframe quality.
    alloc = ctl.allocate(4e6)
    assert alloc.quality[0] == pytest.approx(1.0)      # metadata intact
    assert alloc.quality[2] == pytest.approx(1.0)      # ref frames intact
    assert alloc.quality[3] < 0.5                      # interframes degraded


def test_severe_congestion_drops_droppables_keeps_guarantees():
    streams = mar_baseline_streams(video_nominal_bps=8e6)
    ctl = DegradationController(streams)
    meta = streams[0]
    # Budget below even metadata+sensors floors.
    alloc = ctl.allocate(meta.min_rate_bps * 1.5)
    assert alloc.rate(0) == pytest.approx(meta.min_rate_bps)  # metadata kept
    assert 3 in alloc.dropped                                  # interframes gone


def test_guaranteed_floor_never_dropped_even_overcommitted():
    streams = [
        spec(0, Priority.HIGHEST, 1e6, floor=1e6),
        spec(1, Priority.MEDIUM_NO_DISCARD, 1e6, floor=5e5),
    ]
    ctl = DegradationController(streams)
    alloc = ctl.allocate(1e5)  # far below both floors
    assert alloc.rate(0) == 1e6
    assert alloc.rate(1) == 5e5
    assert alloc.overcommitted


def test_priority_order_of_topup():
    streams = [
        spec(0, Priority.HIGHEST, 2e6),
        spec(1, Priority.LOWEST, 2e6),
    ]
    ctl = DegradationController(streams)
    alloc = ctl.allocate(3e6)
    assert alloc.rate(0) == pytest.approx(2e6)
    assert alloc.rate(1) == pytest.approx(1e6)


def test_droppable_floor_unfundable_is_dropped():
    streams = [
        spec(0, Priority.HIGHEST, 1e6, floor=1e6),
        spec(1, Priority.LOWEST, 1e6, floor=5e5),
    ]
    ctl = DegradationController(streams)
    alloc = ctl.allocate(1.2e6)
    assert alloc.rate(0) == 1e6
    # Floor of 5e5 cannot be funded with 2e5 left -> dropped entirely...
    # remaining 2e5 then tops up nothing else.
    assert 1 in alloc.dropped
    assert alloc.rate(1) == 0.0


def test_quality_fraction():
    streams = [spec(0, Priority.HIGHEST, 4e6)]
    ctl = DegradationController(streams)
    alloc = ctl.allocate(1e6)
    assert alloc.quality[0] == pytest.approx(0.25)


def test_total_never_exceeds_budget_without_guarantees():
    streams = [
        spec(0, Priority.HIGHEST, 3e6),
        spec(1, Priority.MEDIUM_NO_DELAY, 3e6),
        spec(2, Priority.LOWEST, 3e6),
    ]
    ctl = DegradationController(streams)
    for budget in (1e5, 1e6, 5e6, 2e7):
        alloc = ctl.allocate(budget)
        assert total_bps(alloc) <= budget + 1e-6


def test_duplicate_ids_rejected():
    streams = [spec(0, Priority.HIGHEST, 1.0), spec(0, Priority.LOWEST, 1.0)]
    with pytest.raises(ValueError):
        DegradationController(streams)


def test_guaranteed_floor_helper():
    streams = mar_baseline_streams()
    ctl = DegradationController(streams)
    expected = streams[0].min_rate_bps + streams[1].min_rate_bps + streams[2].min_rate_bps
    assert ctl.guaranteed_floor_bps() == pytest.approx(expected)


def test_history_recorded():
    ctl = DegradationController(mar_baseline_streams())
    ctl.allocate(1e6, now=1.0)
    ctl.allocate(2e6, now=2.0)
    assert len(ctl.history) == 2
    assert ctl.history[0][0] == 1.0


def test_spec_lookup():
    ctl = DegradationController(mar_baseline_streams())
    assert ctl.spec(2).name == "video-reference-frames"
    with pytest.raises(KeyError):
        ctl.spec(99)


# ======================================================================
# Exact float-threshold boundaries (repro.check satellite coverage).
#
# The allocator compares the remaining budget against floors and
# demands with plain float arithmetic; these tests pin its behaviour
# *at* the thresholds, one ulp below, and one ulp above.  All rates are
# binary-representable so == assertions are exact, and math.nextafter
# generates true one-ulp neighbours rather than arbitrary epsilons.
# ======================================================================


def _boundary_streams():
    return [
        spec(0, Priority.HIGHEST, 1_000_000.0, floor=250_000.0),
        spec(1, Priority.MEDIUM_NO_DISCARD, 2_000_000.0, floor=500_000.0),
        spec(2, Priority.LOWEST, 1_000_000.0, floor=125_000.0),
    ]


def test_priority_major_at_the_sum_of_floors_boundary():
    # Allocation is strictly priority-major: at budget == sum of all
    # floors the HIGHEST level still tops up toward nominal before any
    # budget reaches the next level, so the MEDIUM_NO_DISCARD floor is
    # kept only via the overcommit guarantee and the droppable starves.
    ctl = DegradationController(_boundary_streams())
    floors = 250_000.0 + 500_000.0 + 125_000.0
    alloc = ctl.allocate(floors)
    assert alloc.rate(0) == floors - 500_000.0 - 125_000.0 + 625_000.0
    assert alloc.rate(1) == 500_000.0
    assert alloc.dropped == [2]
    assert alloc.overcommitted


def test_same_level_floors_funded_exactly_at_boundary():
    streams = [
        spec(0, Priority.MEDIUM_NO_DISCARD, 1_000_000.0, floor=250_000.0),
        spec(1, Priority.MEDIUM_NO_DISCARD, 2_000_000.0, floor=500_000.0),
    ]
    ctl = DegradationController(streams)
    alloc = ctl.allocate(750_000.0)
    assert alloc.rate(0) == 250_000.0
    assert alloc.rate(1) == 500_000.0
    assert alloc.dropped == []
    assert not alloc.overcommitted


def test_one_ulp_below_same_level_floors_overcommits_the_guarantee():
    streams = [
        spec(0, Priority.MEDIUM_NO_DISCARD, 1_000_000.0, floor=250_000.0),
        spec(1, Priority.MEDIUM_NO_DISCARD, 2_000_000.0, floor=500_000.0),
    ]
    ctl = DegradationController(streams)
    alloc = ctl.allocate(math.nextafter(750_000.0, 0.0))
    # One ulp of shortfall: the second guarantee no longer fits, but a
    # non-discardable floor is funded anyway and the round is flagged.
    assert alloc.rate(0) == 250_000.0
    assert alloc.rate(1) == 500_000.0
    assert alloc.overcommitted


def test_one_ulp_below_same_level_floors_drops_the_droppable():
    streams = [
        spec(0, Priority.LOWEST, 1_000_000.0, floor=250_000.0),
        spec(1, Priority.LOWEST, 1_000_000.0, floor=125_000.0),
    ]
    ctl = DegradationController(streams)
    alloc = ctl.allocate(math.nextafter(375_000.0, 0.0))
    # Floors are funded in stream-id order; the ulp shortfall lands on
    # stream 1, which is droppable and therefore dropped outright.
    assert alloc.dropped == [1]
    assert alloc.rate(1) == 0.0
    assert alloc.rate(0) >= 250_000.0
    assert not alloc.overcommitted


def test_budget_one_ulp_below_a_guaranteed_floor_overcommits():
    ctl = DegradationController([
        spec(0, Priority.HIGHEST, 1_000_000.0, floor=250_000.0),
    ])
    alloc = ctl.allocate(math.nextafter(250_000.0, 0.0))
    # The guarantee is kept anyway — the paper's "unaltered at all
    # cost" — and the round is flagged, not silently scaled.
    assert alloc.rate(0) == 250_000.0
    assert alloc.overcommitted


def test_budget_exactly_sum_of_nominals_restores_full_quality():
    ctl = DegradationController(_boundary_streams())
    nominal = 4_000_000.0
    # A congested round first: re-promotion must not depend on history.
    congested = ctl.allocate(500_000.0)
    assert any(q < 1.0 for q in congested.quality.values())
    alloc = ctl.allocate(nominal)
    assert alloc.quality == {0: 1.0, 1: 1.0, 2: 1.0}
    assert total_bps(alloc) == nominal


def test_budget_one_ulp_below_nominals_degrades_only_the_lowest():
    ctl = DegradationController(_boundary_streams())
    alloc = ctl.allocate(math.nextafter(4_000_000.0, 0.0))
    # The shortfall is strictly below one bit of budget, but quality
    # must still reflect it — and only on the lowest priority level.
    assert alloc.quality[0] == 1.0
    assert alloc.quality[1] == 1.0
    assert alloc.quality[2] < 1.0


def test_budget_one_ulp_above_nominals_changes_nothing():
    ctl = DegradationController(_boundary_streams())
    alloc = ctl.allocate(math.nextafter(4_000_000.0, math.inf))
    assert alloc.quality == {0: 1.0, 1: 1.0, 2: 1.0}
    assert total_bps(alloc) == 4_000_000.0


def test_proportional_topup_splits_exactly_at_the_boundary():
    # Two streams share one priority level; the budget covers floors
    # plus exactly half the total remaining demand.  The water-fill
    # must split that half proportionally to demand, exactly.
    streams = [
        spec(0, Priority.MEDIUM_NO_DISCARD, 1_000_000.0, floor=500_000.0),
        spec(1, Priority.MEDIUM_NO_DISCARD, 2_000_000.0, floor=1_000_000.0),
    ]
    ctl = DegradationController(streams)
    # Demands above floors: 500k and 1000k; half the total is 750k.
    alloc = ctl.allocate(1_500_000.0 + 750_000.0)
    assert alloc.rate(0) == 500_000.0 + 250_000.0
    assert alloc.rate(1) == 1_000_000.0 + 500_000.0
    assert total_bps(alloc) == 2_250_000.0


def test_leftover_at_the_waterfill_epsilon_terminates():
    # A leftover budget exactly at the loop's 1e-9 cutoff must neither
    # spin nor grant phantom rate.
    streams = [spec(0, Priority.HIGHEST, 1_000_000.0, floor=0.0)]
    ctl = DegradationController(streams)
    alloc = ctl.allocate(1_000_000.0 + 1e-9)
    assert alloc.rate(0) == 1_000_000.0
    assert alloc.quality[0] == 1.0
