"""Fluid background population model: determinism, aggregation, merge."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleet_helpers import approx_equal_moments
from repro.fleet.aggregate import Aggregate, aggregate_from_registry
from repro.obs import MetricsRegistry
from repro.scale.population import (
    CONTENTION_RHO,
    PROFILE_NAMES,
    UTILIZATION_BINS,
    UTILIZATION_HI,
    CellProcess,
    CellSpec,
    CellTimeline,
    profile_by_name,
    run_cell,
)
from repro.scale.shards import CELL_PROFILE_MIX
from repro.simnet.engine import Simulator
from repro.wireless.profiles import (
    MAR_MAX_RTT,
    MAR_MIN_UPLINK_BPS,
    MIN_LOAD_SHARE,
    load_factors,
)


def make_spec(cell_id=0, load=0.8, profile="LTE", dt=0.5, **kwargs):
    p = profile_by_name(profile)
    capacity = p.up_mean * 4.0
    capacity_users = capacity / 2e5
    defaults = dict(
        cell_id=cell_id,
        profile=profile,
        initial_users=load * capacity_users,
        arrival_rate=load * capacity_users / 30.0,
        mean_holding=30.0,
        demand_up_bps=2e5,
        capacity_up_bps=capacity,
        dt=dt,
    )
    defaults.update(kwargs)
    return CellSpec(**defaults)


class TestCellSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_spec(dt=0.0)
        with pytest.raises(ValueError):
            make_spec(mean_holding=0.0)
        with pytest.raises(ValueError):
            make_spec(capacity_up_bps=0.0)

    def test_capacity_users(self):
        spec = make_spec()
        assert spec.capacity_users == pytest.approx(
            spec.capacity_up_bps / spec.demand_up_bps)

    def test_unknown_profile_raises(self):
        spec = make_spec(profile="LTE")
        object.__setattr__(spec, "profile", "nope")
        with pytest.raises(KeyError, match="known:.*LTE.*5G"):
            profile_by_name("nope")


class TestDeterminism:
    def test_same_seed_same_timeline(self):
        a = run_cell(make_spec(), seed=5, duration=60.0)
        b = run_cell(make_spec(), seed=5, duration=60.0)
        assert a.timeline.samples == b.timeline.samples
        assert a.aggregate().to_json() == b.aggregate().to_json()

    def test_different_seed_different_timeline(self):
        a = run_cell(make_spec(), seed=5, duration=60.0)
        b = run_cell(make_spec(), seed=6, duration=60.0)
        assert a.timeline.samples != b.timeline.samples

    def test_cells_independent_of_simulator_sharing(self):
        # A cell's draws come from child_rng(f"scale.cell.{id}"), so its
        # trajectory must not depend on which other cells share the sim.
        alone = run_cell(make_spec(cell_id=3), seed=9, duration=30.0)
        sim = Simulator(seed=9)
        p_other = CellProcess(sim, make_spec(cell_id=1))
        p_three = CellProcess(sim, make_spec(cell_id=3))
        sim.run(until=30.0)
        assert p_three.timeline.samples == alone.timeline.samples
        assert p_other.timeline.samples != p_three.timeline.samples


class TestTimeline:
    def test_accounting_integrals(self):
        process = run_cell(make_spec(load=1.3), seed=2, duration=120.0)
        tl = process.timeline
        assert tl.user_seconds > 0
        assert tl.arrivals > 0
        assert tl.distinct_users >= int(tl.spec.initial_users)
        assert 0.0 <= tl.service_fraction <= 1.0
        # overloaded cell must shed something
        assert tl.blocked_user_seconds > 0
        assert tl.service_fraction < 1.0

    def test_zero_load_cell_is_flat(self):
        spec = make_spec(load=0.0, burstiness=0.0, diurnal_amplitude=0.0)
        tl = run_cell(spec, seed=4, duration=30.0).timeline
        assert all(rho == 0.0 for _t, _n, rho in tl.samples)
        assert tl.service_fraction == 1.0

    def test_window_and_utilization_at(self):
        tl = run_cell(make_spec(), seed=7, duration=20.0).timeline
        t_mid, _n, rho_mid = tl.samples[len(tl.samples) // 2]
        assert tl.utilization_at(t_mid) == rho_mid
        window = tl.window(t_mid, t_mid + 5.0)
        assert window[0] == (t_mid, rho_mid)
        assert all(t_mid <= t < t_mid + 5.0 for t, _ in window)

    def test_mar_ready_fraction_bounds(self):
        quiet = run_cell(make_spec(profile="5G(KPI)", load=0.0,
                                   burstiness=0.0, diurnal_amplitude=0.0),
                         seed=1, duration=20.0)
        busy = run_cell(make_spec(profile="5G(KPI)", load=1.4),
                        seed=1, duration=20.0)
        assert quiet.timeline.mar_ready_fraction() == 1.0
        assert 0.0 <= busy.timeline.mar_ready_fraction() \
            <= quiet.timeline.mar_ready_fraction()


class TestAggregation:
    def test_aggregate_keys(self):
        agg = run_cell(make_spec(), seed=3, duration=60.0).aggregate()
        assert agg.counts["scale.cells"] == 1
        assert agg.counts["scale.users"] > 0
        assert agg.counts["obs.scale.cells"] == 1          # registry lift
        assert agg.counts["obs.scale.users"] == agg.counts["scale.users"]
        assert "scale.utilization" in agg.moments
        assert "obs.scale.utilization" in agg.histograms
        assert agg.moments["scale.utilization"].count == len(
            agg.histograms["obs.scale.utilization"].bins) \
            or agg.moments["scale.utilization"].count > 0

    def test_registry_feed_counts_match_timeline(self):
        process = run_cell(make_spec(load=1.2), seed=8, duration=60.0)
        counts = process.aggregate().counts
        tl = process.timeline
        assert counts["obs.scale.fluid_steps"] == len(tl.samples)
        assert counts["obs.scale.users"] == tl.distinct_users
        contended = counts["obs.scale.contended_samples"]
        overloaded = counts["obs.scale.overloaded_samples"]
        assert 0 <= overloaded <= contended <= len(tl.samples)

    @settings(max_examples=25, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2**16), min_size=2, max_size=6),
           order_seed=st.integers(0, 2**16))
    def test_cell_aggregates_merge_order_independently(self, seeds, order_seed):
        """The hypothesis property the hierarchical shard map relies on:
        merging per-cell fluid aggregates in any order gives identical
        counts/histograms and float-tolerant-identical moments."""
        aggs = [run_cell(make_spec(cell_id=i), seed=s, duration=20.0).aggregate()
                for i, s in enumerate(seeds)]

        forward = Aggregate()
        for a in aggs:
            forward.merge(a)
        shuffled = list(aggs)
        random.Random(order_seed).shuffle(shuffled)
        other = Aggregate()
        for a in shuffled:
            other.merge(a)

        assert forward.counts == other.counts
        assert forward.histograms.keys() == other.histograms.keys()
        for name in forward.histograms:
            assert forward.histograms[name].bins == other.histograms[name].bins
        assert forward.moments.keys() == other.moments.keys()
        for name in forward.moments:
            assert approx_equal_moments(forward.moments[name],
                                        other.moments[name])


# ----------------------------------------------------------------------
# Reference implementation: the three independent walks over the samples
# that CellTimeline.summarise() replaced.  The single pass must
# reproduce them exactly, not approximately.
# ----------------------------------------------------------------------
def reference_mar_ready_fraction(tl):
    if not tl.samples:
        return 0.0
    profile = profile_by_name(tl.spec.profile)
    ready = 0
    for _t, _n, rho in tl.samples:
        loaded = profile.under_load(rho)
        if (loaded.up_mean >= MAR_MIN_UPLINK_BPS
                and loaded.rtt <= MAR_MAX_RTT):
            ready += 1
    return ready / len(tl.samples)


def reference_registry(process):
    reg = MetricsRegistry()
    tl = process.timeline
    reg.counter("scale.cells").inc()
    reg.counter("scale.users").inc(tl.distinct_users)
    reg.counter("scale.fluid_steps").inc(len(tl.samples))
    users = reg.gauge("scale.active_users")
    util = reg.histogram("scale.utilization", UTILIZATION_HI,
                         UTILIZATION_BINS)
    contended = 0
    overloaded = 0
    for _t, n, rho in tl.samples:
        users.set(n)
        util.observe(rho)
        if rho > CONTENTION_RHO:
            contended += 1
        if rho > 1.0:
            overloaded += 1
    reg.counter("scale.contended_samples").inc(contended)
    reg.counter("scale.overloaded_samples").inc(overloaded)
    return reg


def reference_aggregate(process):
    profile = profile_by_name(process.spec.profile)
    tl = process.timeline
    agg = Aggregate()
    agg.count("scale.cells")
    agg.count("scale.users", tl.distinct_users)
    rho_moment = agg.moment("scale.utilization")
    users_moment = agg.moment("scale.active_users")
    share_moment = agg.moment("scale.per_user_up_bps")
    for _t, n, rho in tl.samples:
        rho_moment.add(rho)
        users_moment.add(n)
        share_moment.add(profile.up_mean * load_factors(rho).share)
    agg.moment("scale.service_fraction").add(tl.service_fraction)
    agg.moment("scale.mar_ready_fraction").add(
        reference_mar_ready_fraction(tl))
    agg.merge(aggregate_from_registry(reference_registry(process)))
    return agg


def assert_matches_reference(process):
    tl = process.timeline
    assert tl.mar_ready_fraction() == reference_mar_ready_fraction(tl)
    assert process.aggregate().to_json() == reference_aggregate(process).to_json()


def hand_built(profile, rhos):
    """A process whose timeline is exactly ``rhos``, never stepped."""
    spec = make_spec(profile=profile)
    process = CellProcess(Simulator(seed=0), spec)
    process.timeline = CellTimeline(
        spec=spec,
        samples=[(i * spec.dt, rho * spec.capacity_users, rho)
                 for i, rho in enumerate(rhos)],
        arrivals=3.0, user_seconds=50.0, blocked_user_seconds=5.0)
    return process


def ulp_neighbourhood(x, width=3):
    below = above = x
    out = [x]
    for _ in range(width):
        below = math.nextafter(below, -math.inf)
        above = math.nextafter(above, math.inf)
        out += [below, above]
    return out


class TestSinglePassMatchesThreePass:
    @pytest.mark.parametrize("profile", sorted(set(CELL_PROFILE_MIX)))
    @pytest.mark.parametrize("load", [0.0, 0.2, 0.8, 1.4, 2.0])
    def test_city_profiles(self, profile, load):
        assert_matches_reference(
            run_cell(make_spec(profile=profile, load=load), seed=11,
                     duration=120.0))

    @settings(max_examples=25, deadline=None)
    @given(profile=st.sampled_from(sorted(set(CELL_PROFILE_MIX))),
           load=st.floats(0.0, 2.0),
           dt=st.floats(0.1, 2.0),
           burstiness=st.floats(0.0, 0.6),
           seed=st.integers(0, 2**16))
    def test_drawn_cell_specs(self, profile, load, dt, burstiness, seed):
        spec = make_spec(profile=profile, load=load, dt=dt,
                         burstiness=burstiness)
        assert_matches_reference(run_cell(spec, seed=seed, duration=30.0))

    @pytest.mark.parametrize("profile", sorted(PROFILE_NAMES))
    def test_one_ulp_either_side_of_every_threshold(self, profile):
        p = profile_by_name(profile)
        # ρ at which the loaded uplink / RTT sits on its §III-B limit
        # (only inside (0, 1) for profiles that meet it unloaded), the
        # share floor (where ``share``'s max switches), 1.0 (where the
        # delay's min(ρ, 1) saturates), and the contended / overloaded /
        # histogram edges; ρ ≤ 0, -0.0 included, clamps to exactly 0.
        edges = [1.0 - MAR_MIN_UPLINK_BPS / p.up_mean,
                 1.0 - p.rtt / MAR_MAX_RTT,
                 1.0 - MIN_LOAD_SHARE, CONTENTION_RHO, 1.0, UTILIZATION_HI]
        rhos = [-0.0, -5e-324, -1e-12, 0.0, 2.5, 40.0]
        for edge in edges:
            if edge > 0.0:
                rhos += ulp_neighbourhood(edge)
        assert_matches_reference(hand_built(profile, rhos))

    @pytest.mark.parametrize("profile, bound_by", [
        ("5G(KPI)", "uplink"), ("LTE-Direct", "rtt")])
    def test_threshold_neighbourhood_flips_readiness(self, profile, bound_by):
        # The neighbourhood of the binding threshold must hold samples
        # on both sides of it, or the test above would not be probing
        # that half of the predicate at all.
        p = profile_by_name(profile)
        edge = {"uplink": 1.0 - MAR_MIN_UPLINK_BPS / p.up_mean,
                "rtt": 1.0 - p.rtt / MAR_MAX_RTT}[bound_by]
        process = hand_built(profile, ulp_neighbourhood(edge))
        ready = process.timeline.summarise().mar_ready
        assert 0 < ready < len(process.timeline.samples)
        assert_matches_reference(process)

    def test_empty_timeline(self):
        process = hand_built("LTE", [])
        assert process.timeline.mar_ready_fraction() == 0.0
        assert_matches_reference(process)
