"""Campaign expansion, seed derivation, fingerprints, replay."""

import pytest

from fleet_helpers import scenario_names
from repro.fleet import (
    Campaign,
    demo_campaigns,
    get_scenario,
    run_shard,
    shard_seed,
)
from repro.fleet.campaign import SCHEMA_VERSION, stable_hash
from repro.scale import CITY_BUDGETS


def small_campaign(**kw):
    defaults = dict(name="t", scenario="table2_offload", seeds=2, base_seed=5,
                    grid={"rtt": [0.01, 0.02]}, params={"n_frames": 3})
    defaults.update(kw)
    return Campaign(**defaults)


class TestSeedDerivation:
    def test_seed_is_pure_function_of_base_seed_and_tag(self):
        assert shard_seed(7, "rtt=0.01/s0001") == shard_seed(7, "rtt=0.01/s0001")
        assert shard_seed(7, "a") != shard_seed(8, "a")
        assert shard_seed(7, "a") != shard_seed(7, "b")

    def test_seed_fits_random_seed_and_json(self):
        s = shard_seed(0, "x")
        assert 0 <= s < 2 ** 63

    def test_growing_the_grid_preserves_existing_shards(self):
        """Adding grid points must not perturb existing shards' seeds."""
        before = {s.tag: s.seed for s in small_campaign().shards()}
        grown = small_campaign(grid={"rtt": [0.01, 0.02, 0.03]})
        after = {s.tag: s.seed for s in grown.shards()}
        for tag, seed in before.items():
            assert after[tag] == seed


class TestExpansion:
    def test_shard_order_deterministic_and_indexed(self):
        shards = small_campaign().shards()
        assert [s.index for s in shards] == list(range(4))
        assert shards == small_campaign().shards()

    def test_grid_key_insertion_order_irrelevant(self):
        a = Campaign(name="t", scenario="table2_offload", seeds=1,
                     grid={"a": [1], "b": [2, 3]})
        b = Campaign(name="t", scenario="table2_offload", seeds=1,
                     grid={"b": [2, 3], "a": [1]})
        assert [s.tag for s in a.shards()] == [s.tag for s in b.shards()]

    def test_point_label_and_params(self):
        spec = small_campaign().shards()[0]
        assert spec.point_label == "rtt=0.01"
        assert spec.param_dict() == {"rtt": 0.01, "n_frames": 3}

    def test_n_shards(self):
        assert small_campaign().n_shards == 4
        assert len(small_campaign().shards()) == 4

    def test_empty_grid_single_point(self):
        c = Campaign(name="t", scenario="table2_offload", seeds=3)
        assert [s.tag for s in c.shards()] == [
            "default/s0000", "default/s0001", "default/s0002"]

    def test_shard_by_tag(self):
        c = small_campaign()
        spec = c.shard_by_tag("rtt=0.02/s0001")
        assert spec.index == 3
        with pytest.raises(KeyError):
            c.shard_by_tag("nope")

    def test_grid_params_overlap_rejected(self):
        with pytest.raises(ValueError):
            Campaign(name="t", scenario="s", grid={"x": [1]}, params={"x": 2})

    def test_zero_seeds_rejected(self):
        with pytest.raises(ValueError):
            Campaign(name="t", scenario="s", seeds=0)


class TestFingerprint:
    def test_stable_across_calls(self):
        assert small_campaign().fingerprint() == small_campaign().fingerprint()

    def test_sensitive_to_spec(self):
        base = small_campaign().fingerprint()
        assert small_campaign(base_seed=6).fingerprint() != base
        assert small_campaign(seeds=3).fingerprint() != base
        assert small_campaign(params={"n_frames": 4}).fingerprint() != base

    def test_includes_schema_version(self, monkeypatch):
        base = small_campaign().fingerprint()
        monkeypatch.setattr("repro.fleet.campaign.SCHEMA_VERSION",
                            SCHEMA_VERSION + 1)
        assert small_campaign().fingerprint() != base

    def test_stable_hash_is_process_stable(self):
        # sha256, not the per-process-salted builtin hash
        assert stable_hash("x") == (
            "2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881")


class TestRegistry:
    def test_builtins_registered(self):
        names = scenario_names()
        for expected in ("cell_offload", "table2_offload", "wifi_anomaly_cell"):
            assert expected in names

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            get_scenario("no_such_scenario")

    def test_demo_campaigns_runnable_specs(self):
        for name, c in demo_campaigns().items():
            assert c.name == name
            get_scenario(c.scenario)  # registered
            if c.scenario == "city_coverage":
                # one shard per (cell, cohort member) of its budget tier
                budget = CITY_BUDGETS[c.params["budget"]]
                assert c.n_shards == budget.n_cells * budget.cohort
            else:
                assert c.n_shards >= 32


class TestReplay:
    def test_replayed_shard_matches_campaign_result(self):
        from repro.fleet import run_campaign

        c = small_campaign()
        result = run_campaign(c, workers=1)
        spec = c.shards()[2]
        # Re-derive just that shard in isolation: identical aggregate.
        replayed = run_shard(c, spec.tag)
        # The campaign merged all four shards; rerunning the campaign
        # minus nothing isn't comparable directly — instead check the
        # single-shard replay is deterministic and self-consistent.
        assert replayed.to_json() == run_shard(c, spec.tag).to_json()
        assert replayed.counts["sessions"] == 1
        assert result.aggregate.counts["sessions"] == 4
