"""Tier coupling: zero-background byte-identity, pressure, promotion."""

import hashlib

import pytest

from repro.fleet.campaign import get_scenario
from repro.scale.coupling import (
    BackgroundPressure,
    PromotionPolicy,
    has_pressure,
    plan_promotions,
    promote_user,
    run_pressured_session,
)
from repro.simnet.engine import Simulator
from repro.wireless.profiles import LTE, load_factors


def fingerprint(agg) -> str:
    return hashlib.sha256(agg.to_json().encode("utf-8")).hexdigest()


PARAMS = {"rtt": 0.036, "up_bps": 12e6, "loss": 0.0, "duration": 1.0}


class TestZeroBackgroundIdentity:
    """The hard acceptance gate: the foreground tier at zero background
    is the *same computation* as the event-level cell_offload scenario."""

    def test_no_samples_byte_identical(self):
        base = get_scenario("cell_offload").fn(4242, dict(PARAMS))
        fg = run_pressured_session(4242, dict(PARAMS))
        assert fingerprint(fg) == fingerprint(base)

    def test_all_zero_samples_byte_identical(self):
        base = get_scenario("cell_offload").fn(77, dict(PARAMS))
        fg = run_pressured_session(
            77, dict(PARAMS), samples=[(0.0, 0.0), (0.25, 0.0), (0.5, 0.0)])
        assert fingerprint(fg) == fingerprint(base)

    def test_zero_load_cell_timeline_byte_identical(self):
        # End to end: a real (zero-load) fluid cell's window drives the
        # foreground, and the result still matches cell_offload.
        from repro.scale.population import run_cell
        from tests.test_scale_population import make_spec

        spec = make_spec(load=0.0, burstiness=0.0, diurnal_amplitude=0.0)
        timeline = run_cell(spec, seed=3, duration=30.0).timeline
        samples = [(t, rho) for t, rho in timeline.window(0.0, 1.0)]
        assert not has_pressure(samples)
        base = get_scenario("cell_offload").fn(9, dict(PARAMS))
        fg = run_pressured_session(9, dict(PARAMS), samples=samples)
        assert fingerprint(fg) == fingerprint(base)

    def test_nonzero_pressure_changes_bytes(self):
        base = get_scenario("cell_offload").fn(4242, dict(PARAMS))
        pressed = run_pressured_session(4242, dict(PARAMS),
                                        samples=[(0.0, 0.9)])
        assert fingerprint(pressed) != fingerprint(base)

    def test_pressured_run_is_deterministic(self):
        samples = [(0.0, 0.3), (0.4, 1.1), (0.8, 0.2)]
        a = run_pressured_session(5, dict(PARAMS), samples=samples)
        b = run_pressured_session(5, dict(PARAMS), samples=samples)
        assert fingerprint(a) == fingerprint(b)


class TestBackgroundPressure:
    def build(self, samples, seed=1):
        from repro.fleet.scenarios import build_offload_session

        scenario, session = build_offload_session(seed, dict(PARAMS))
        driver = BackgroundPressure(scenario, samples)
        return scenario, session, driver

    def test_factors_applied_and_restored(self):
        scenario, _session, driver = self.build([(0.0, 0.5), (0.2, 0.0)])
        down, up = scenario.net.links[0], scenario.net.links[1]
        base_down, base_up = down.rate_bps, up.rate_bps
        scenario.sim.run(until=0.1)
        share = load_factors(0.5).share
        assert down.rate_bps == base_down * share
        assert up.rate_bps == base_up * share
        scenario.sim.run(until=0.3)
        # ρ=0 restores the base parameters bit-exactly (not compounded)
        assert down.rate_bps == base_down
        assert up.rate_bps == base_up
        assert driver.applied == [(0.0, 0.5), (0.2, 0.0)]

    def test_overload_adds_loss(self):
        scenario, _session, _driver = self.build([(0.0, 1.5)])
        down = scenario.net.links[0]
        base_loss = down.loss
        scenario.sim.run(until=0.05)
        assert down.loss > base_loss
        assert down.loss <= 1.0

    def test_requires_duplex_link(self):
        class FakeNet:
            links = []

        class FakeScenario:
            net = FakeNet()
            sim = None

        with pytest.raises(ValueError):
            BackgroundPressure(FakeScenario(), [(0.0, 0.5)])

    def test_has_pressure(self):
        assert not has_pressure([])
        assert not has_pressure([(0.0, 0.0), (1.0, 0.0)])
        assert has_pressure([(0.0, 0.0), (1.0, 0.001)])


class TestPromotionPlanning:
    def samples(self, rhos, dt=1.0):
        return [(i * dt, 0.0, rho) for i, rho in enumerate(rhos)]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            PromotionPolicy(enter_rho=0.5, exit_rho=0.5)
        with pytest.raises(ValueError):
            PromotionPolicy(min_dwell=-1.0)

    def test_no_contention_no_episodes(self):
        policy = PromotionPolicy(enter_rho=0.85, exit_rho=0.6, min_dwell=0.0)
        assert plan_promotions(self.samples([0.1, 0.5, 0.8]), policy) == []

    def test_hysteresis_episode(self):
        policy = PromotionPolicy(enter_rho=0.85, exit_rho=0.6, min_dwell=0.0)
        # crosses 0.85 at t=2, stays above exit through t=4, demotes at t=5
        eps = plan_promotions(
            self.samples([0.1, 0.5, 0.9, 1.2, 0.7, 0.5, 0.2]), policy)
        assert len(eps) == 1
        assert eps[0].start == 2.0 and eps[0].end == 5.0
        assert eps[0].peak_rho == 1.2

    def test_min_dwell_extends_episode(self):
        fast = PromotionPolicy(enter_rho=0.85, exit_rho=0.6, min_dwell=0.0)
        slow = PromotionPolicy(enter_rho=0.85, exit_rho=0.6, min_dwell=3.0)
        rhos = [0.9, 0.1, 0.1, 0.1, 0.1]
        assert plan_promotions(self.samples(rhos), fast)[0].end == 1.0
        assert plan_promotions(self.samples(rhos), slow)[0].end == 3.0

    def test_open_episode_closes_at_end(self):
        policy = PromotionPolicy(enter_rho=0.85, exit_rho=0.6, min_dwell=0.0)
        eps = plan_promotions(self.samples([0.2, 0.9, 1.0, 1.1]), policy)
        assert len(eps) == 1
        assert eps[0].end == 3.0

    def test_deterministic(self):
        policy = PromotionPolicy()
        s = self.samples([0.1, 0.9, 1.3, 0.4, 0.9, 0.2])
        assert plan_promotions(s, policy) == plan_promotions(s, policy)


class TestPromoteUser:
    def test_seed_is_pure_function_of_fluid_state(self):
        seed_a, agg_a = promote_user(Simulator(seed=11), 3, 0, 1.1, LTE,
                                     n_frames=5)
        seed_b, agg_b = promote_user(Simulator(seed=11), 3, 0, 1.1, LTE,
                                     n_frames=5)
        assert seed_a == seed_b
        assert agg_a.to_json() == agg_b.to_json()

    def test_distinct_tags_distinct_users(self):
        sim = Simulator(seed=11)
        seed_0, _ = promote_user(sim, 3, 0, 1.1, LTE, n_frames=3)
        seed_1, _ = promote_user(sim, 3, 1, 1.1, LTE, n_frames=3)
        seed_c, _ = promote_user(sim, 4, 0, 1.1, LTE, n_frames=3)
        assert len({seed_0, seed_1, seed_c}) == 3

    def test_demotion_folds_into_aggregate(self):
        _seed, agg = promote_user(Simulator(seed=2), 0, 0, 0.7, LTE,
                                  n_frames=8)
        assert agg.counts["scale.promoted_sessions"] == 1
        assert agg.counts["scale.promoted_frames"] >= 1
        assert "scale.promoted.frame_latency" in agg.moments
        assert 0.0 <= agg.moments["scale.promoted.deadline_hit_rate"].mean <= 1.0

    def test_overloaded_promotion_still_accounted(self):
        # At ρ=1.2 the residual share is tiny and frames may never
        # complete — the session must still count (degraded service,
        # not a crash).
        _seed, agg = promote_user(Simulator(seed=2), 0, 0, 1.2, LTE,
                                  n_frames=4)
        assert agg.counts["scale.promoted_sessions"] == 1
        assert agg.counts.get("scale.promoted_frames", 0) >= 0


class TestLoadHooks:
    def test_under_load_zero_is_bit_identical(self):
        assert LTE.under_load(0.0) == LTE

    def test_load_factors_identity_at_zero(self):
        f = load_factors(0.0)
        assert (f.share, f.delay_factor, f.extra_loss) == (1.0, 1.0, 0.0)

    def test_monotone_degradation(self):
        rhos = [0.0, 0.3, 0.6, 0.9, 1.2, 2.0]
        shares = [load_factors(r).share for r in rhos]
        delays = [load_factors(r).delay_factor for r in rhos]
        assert shares == sorted(shares, reverse=True)
        assert delays == sorted(delays)
        for r in rhos:
            loaded = LTE.under_load(r)
            assert loaded.up_mean <= LTE.up_mean
            assert loaded.rtt >= LTE.rtt
            assert 0.0 <= loaded.loss <= 1.0

    def test_share_floor(self):
        assert load_factors(50.0).share == pytest.approx(0.02)
        assert load_factors(50.0).extra_loss <= 0.5

    def test_serving_edge_rtt_deterministic_stripe(self):
        from repro.edge.assignment import EDGE_BACKHAUL_TIERS, serving_edge_rtt

        rtts = [serving_edge_rtt(i) for i in range(8)]
        assert rtts[:4] == rtts[4:]                      # striped
        assert set(rtts) <= set(EDGE_BACKHAUL_TIERS)
        with pytest.raises(ValueError):
            serving_edge_rtt(-1)

    def test_for_cell_promotion_entry_runs(self):
        from repro.mar.application import APP_ARCHETYPES
        from repro.mar.offload import FeatureOffload, OffloadExecutor

        executor = OffloadExecutor.for_cell(
            Simulator(seed=5), LTE, 0.9, cell_id=2,
            app=APP_ARCHETYPES["orientation"], strategy=FeatureOffload())
        result = executor.run(n_frames=5)
        assert result.frames_completed >= 1
        assert all(lat > 0 for lat in result.frame_latencies)
