"""Tests for mobility and the coverage/handover model (Section IV-A4)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wireless import handover, mobility
from repro.wireless.handover import AccessPoint, ConnectivityTrace, CoverageMap
from repro.wireless.mobility import RandomWaypoint, Waypoint


def step_speeds(trajectory):
    """Speed (m/s) between consecutive samples of a trajectory."""
    return [math.hypot(b.x - a.x, b.y - a.y) / (b.t - a.t) if b.t > a.t else 0.0
            for a, b in zip(trajectory, trajectory[1:])]


class TestRandomWaypoint:
    def test_trajectory_covers_duration(self):
        traj = RandomWaypoint(seed=1).trajectory(600)
        assert len(traj) >= 590
        assert traj[0].t == 0.0

    def test_positions_stay_in_area(self, monkeypatch):
        monkeypatch.setattr(mobility, "AREA_WIDTH", 100.0)
        monkeypatch.setattr(mobility, "AREA_HEIGHT", 100.0)
        model = RandomWaypoint(seed=2)
        traj = model.trajectory(600)
        assert all(0 <= p.x <= 100 and 0 <= p.y <= 100 for p in traj)

    def test_speeds_bounded(self, monkeypatch):
        monkeypatch.setattr(mobility, "V_MIN", 1.0)
        monkeypatch.setattr(mobility, "MAX_PAUSE", 0.0)
        model = RandomWaypoint(seed=3)
        traj = model.trajectory(300)
        speeds = step_speeds(traj)
        moving = [s for s in speeds if s > 0.01]
        assert moving
        assert max(moving) <= 2.5  # tick quantization tolerance

    def test_pauses_produce_zero_speed(self, monkeypatch):
        monkeypatch.setattr(mobility, "MAX_PAUSE", 100.0)
        model = RandomWaypoint(seed=4)
        traj = model.trajectory(600)
        speeds = step_speeds(traj)
        assert any(s == 0.0 for s in speeds)

    def test_deterministic_per_seed(self):
        t1 = RandomWaypoint(seed=5).trajectory(100)
        t2 = RandomWaypoint(seed=5).trajectory(100)
        assert t1 == t2


class TestAccessPoint:
    def test_covers(self):
        ap = AccessPoint("a", 0, 0, radius=10)
        assert ap.covers(Waypoint(0, 5, 5))
        assert not ap.covers(Waypoint(0, 20, 0))


class TestCoverageMap:
    def walk(self):
        cm = CoverageMap.urban(seed=1)
        traj = RandomWaypoint(seed=1).trajectory(1800)
        return cm.connectivity(traj)

    def test_in_range_fraction_near_total(self):
        trace = self.walk()
        assert trace.wifi_in_range_fraction > 0.93

    def test_usable_fraction_much_lower_than_in_range(self):
        # The Wi2Me result: radio coverage != usable internet.
        trace = self.walk()
        assert trace.wifi_usable_fraction < trace.wifi_in_range_fraction - 0.2

    def test_cellular_fraction_high(self):
        trace = self.walk()
        assert trace.cellular_fraction > 0.9

    def test_any_connectivity_beats_wifi_alone(self):
        trace = self.walk()
        assert trace.any_connectivity_fraction > trace.wifi_usable_fraction

    def test_handovers_happen(self):
        trace = self.walk()
        assert trace.handover_count() > 5

    def test_closed_aps_never_usable(self):
        ap = AccessPoint("closed", 50, 50, radius=100, open=False)
        cm = CoverageMap([ap])
        traj = [Waypoint(float(t), 50, 50) for t in range(60)]
        trace = cm.connectivity(traj)
        assert trace.wifi_in_range_fraction == 1.0
        assert trace.wifi_usable_fraction == 0.0

    def test_association_delay_blocks_early_usability(self):
        ap = AccessPoint("open", 50, 50, radius=100)
        cm = CoverageMap([ap])
        traj = [Waypoint(float(t), 50, 50) for t in range(20)]
        trace = cm.connectivity(traj)
        usable_times = [t.t for t in trace.ticks if t.usable]
        assert min(usable_times) >= 8.0

    def test_handover_gap_adds_dead_time(self, monkeypatch):
        monkeypatch.setattr(handover, "ASSOC_TIME", 2.0)
        monkeypatch.setattr(handover, "HANDOVER_GAP", 5.0)
        ap1 = AccessPoint("x", 0, 0, radius=60)
        ap2 = AccessPoint("y", 100, 0, radius=60)
        cm = CoverageMap([ap1, ap2])
        # Walk from ap1 to ap2.
        traj = [Waypoint(float(t), t * 2.0, 0) for t in range(50)]
        trace = cm.connectivity(traj)
        assert trace.handover_count() == 1
        # After the switch there is a >= 7 s unusable window.
        switch_t = next(
            t.t for prev, t in zip(trace.ticks, trace.ticks[1:])
            if prev.ap != t.ap and prev.ap is not None
        )
        dead = [t for t in trace.ticks if switch_t <= t.t < switch_t + 7.0]
        assert all(not t.usable for t in dead)

    def test_empty_trace_fractions(self):
        trace = ConnectivityTrace()
        assert trace.wifi_usable_fraction == 0.0
        assert trace.handover_count() == 0


def scan_best_ap(aps, p):
    """``best_ap`` as a scan of every AP: the grid index's oracle."""
    covering = [ap for ap in aps if ap.covers(p)]
    if not covering:
        return None
    covering.sort(key=lambda ap: (not ap.open,
                                  math.hypot(p.x - ap.x, p.y - ap.y)))
    return covering[0]


coords = st.floats(-400.0, 400.0, allow_nan=False, allow_infinity=False)


@st.composite
def maps_and_points(draw):
    """A drawn map (APs share a few sites, so some are co-located and
    tie on the sort key) and points on and off the footprint edges."""
    sites = draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=5))
    aps = [AccessPoint(f"ap{i}", *draw(st.sampled_from(sites)),
                       radius=draw(st.one_of(st.just(0.0),
                                             st.floats(0.0, 250.0))),
                       open=draw(st.booleans()))
           for i in range(draw(st.integers(0, 24)))]
    points = [Waypoint(0.0, x, y)
              for x, y in draw(st.lists(st.tuples(coords, coords),
                                        max_size=8))]
    for ap in aps:
        r = ap.radius
        points += [Waypoint(0.0, ap.x, ap.y),
                   Waypoint(0.0, ap.x + r, ap.y), Waypoint(0.0, ap.x - r, ap.y),
                   Waypoint(0.0, ap.x, ap.y + r), Waypoint(0.0, ap.x, ap.y - r),
                   Waypoint(0.0, ap.x + r * 0.6, ap.y - r * 0.8)]
    # Midpoints are equidistant from two APs in different buckets.
    points += [Waypoint(0.0, (a.x + b.x) / 2, (a.y + b.y) / 2)
               for a, b in zip(aps, aps[1:])]
    return CoverageMap(aps), points


class TestBestApIndex:
    @settings(max_examples=100, deadline=None)
    @given(drawn=maps_and_points())
    def test_index_picks_what_a_full_scan_picks(self, drawn):
        cm, points = drawn
        for p in points:
            assert cm.best_ap(p) is scan_best_ap(cm.aps, p)

    def test_tie_across_buckets_goes_to_the_earlier_ap(self):
        east = AccessPoint("east", 60.0, 0.0, radius=100.0)
        west = AccessPoint("west", -60.0, 0.0, radius=100.0)
        cm = CoverageMap([east, west])
        assert cm.best_ap(Waypoint(0.0, 0.0, 0.0)) is east

    def test_empty_map(self):
        cm = CoverageMap([])
        assert cm.best_ap(Waypoint(0.0, 50.0, 50.0)) is None

    def test_urban_walk_matches_the_scan(self):
        cm = CoverageMap.urban(seed=3)
        walk = RandomWaypoint(seed=3).trajectory(600)
        assert [cm.best_ap(p) for p in walk] == [
            scan_best_ap(cm.aps, p) for p in walk]
