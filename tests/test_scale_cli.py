"""Hierarchical city shard campaigns, run through `python -m repro fleet`."""

import hashlib

import pytest

from repro.cli import main
from repro.fleet import run_campaign, run_shard
from repro.scale.shards import (
    CITY_BUDGETS,
    cell_contention_campaign,
    city_cell_spec,
    city_coverage_campaign,
    city_users,
)


#: sha256 of the merged ``city_coverage_campaign("smoke")`` aggregate.
SMOKE_FINGERPRINT = "6ebe3fd8b0e1634846ede3660e5de0ecbb447b81ddd44d190e3cafb91bb0caaf"

#: The same for the ``small`` tier (128 shards), the one the CI
#: ``scale-smoke`` job runs on the pool and inline, and the population
#: it must reach.
SMALL_FINGERPRINT = "a78e584d1e1bf2faaefef1b91256f1e4abb9b59599efdb48bdbbaab0a5b7f1d0"
SMALL_MIN_USERS = 100_000


def aggregate_sha256(result):
    return hashlib.sha256(result.aggregate.to_json().encode()).hexdigest()


def small_city():
    # The smoke tier cut down further: 4 cells, still exercising the
    # full member-0 fluid/promotion path + the cohort path.
    campaign = city_coverage_campaign("smoke", city_seed=7)
    campaign.grid = {"cell": [0, 1, 2, 3], "member": [0]}
    return campaign


class TestCampaignShape:
    def test_budgets_are_tiered(self):
        assert CITY_BUDGETS["smoke"].n_cells < CITY_BUDGETS["small"].n_cells \
            < CITY_BUDGETS["metro"].n_cells

    def test_city_is_pure_function_of_seed(self):
        a = city_cell_spec(7, 5, CITY_BUDGETS["smoke"])
        b = city_cell_spec(7, 5, CITY_BUDGETS["smoke"])
        c = city_cell_spec(8, 5, CITY_BUDGETS["smoke"])
        assert a == b
        assert a != c

    def test_campaign_fingerprint_stable(self):
        assert (city_coverage_campaign("smoke").fingerprint()
                == city_coverage_campaign("smoke").fingerprint())
        assert (city_coverage_campaign("smoke").fingerprint()
                != city_coverage_campaign("small").fingerprint())

    def test_shards_cover_city_grid(self):
        campaign = city_coverage_campaign("metro")
        budget = CITY_BUDGETS["metro"]
        shards = campaign.shards()
        assert len(shards) == budget.n_cells * budget.cohort


class TestCampaignRuns:
    def test_city_campaign_double_run_fingerprint(self):
        campaign = small_city()
        a = run_campaign(campaign, workers=1)
        b = run_campaign(campaign, workers=1)
        assert aggregate_sha256(a) == aggregate_sha256(b)

    def test_smoke_city_fingerprint_pinned(self):
        # Computed on the commit before the fluid summary became one
        # pass: a speed-up of the scale layer must not move a byte of
        # the merged aggregate.  A deliberate model change re-pins this
        # together with SMALL_FINGERPRINT and the ungated ``metro``
        # reference value in docs/SCALE.md §5.
        result = run_campaign(city_coverage_campaign("smoke"), workers=1)
        assert aggregate_sha256(result) == SMOKE_FINGERPRINT

    def test_small_city_fingerprint_pinned_at_1e5_users(self):
        result = run_campaign(city_coverage_campaign("small"), workers=1)
        assert aggregate_sha256(result) == SMALL_FINGERPRINT
        assert city_users(result.aggregate) >= SMALL_MIN_USERS

    def test_city_campaign_counts_background_users(self):
        result = run_campaign(small_city(), workers=1)
        users = city_users(result.aggregate)
        assert users > 1000          # thousands of fluid users in 4 cells
        assert result.aggregate.counts["scale.cells"] == 4
        assert result.aggregate.counts["sessions"] >= 4   # cohort sessions
        assert "scale.utilization" in result.aggregate.moments
        assert "frame_latency" in result.aggregate.histograms

    def test_shard_replay_matches(self):
        campaign = small_city()
        tag = campaign.shards()[1].tag
        assert (run_shard(campaign, tag).to_json()
                == run_shard(campaign, tag).to_json())

    def test_cell_contention_sweep_degrades_with_load(self):
        campaign = cell_contention_campaign()
        campaign.seeds = 2
        result = run_campaign(campaign, workers=1)
        per_point = result.per_point
        rho = {label: agg.moments["scale.utilization"].mean
               for label, agg in per_point.items()}
        labels = sorted(rho, key=lambda k: rho[k])
        # utilization tracks the offered-load factor across the sweep
        assert rho[labels[-1]] > rho[labels[0]]
        # and the heaviest cell serves a smaller fraction of demand
        sf = {label: agg.moments["scale.service_fraction"].mean
              for label, agg in per_point.items()}
        assert sf[labels[-1]] < sf[labels[0]]


class TestScaleVerb:
    """The city campaigns are ``fleet`` campaigns; ``scale`` is gone."""

    @pytest.fixture
    def out_dir(self, tmp_path, monkeypatch):
        import repro.cli as cli

        monkeypatch.setattr(cli, "FLEET_RESULTS_DIR", tmp_path / "fleet")
        return tmp_path / "fleet"

    def test_fleet_runs_the_smoke_city_and_prints_its_fingerprint(
            self, out_dir, capsys):
        assert main(["fleet", "city_coverage-smoke", "-w", "1", "--no-cache",
                     "--quiet"]) == 0
        assert (f"fingerprint {SMOKE_FINGERPRINT[:16]}"
                in capsys.readouterr().err)
        assert (out_dir / "city_coverage-smoke.txt").exists()

    def test_list_includes_scale_campaigns(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for budget in CITY_BUDGETS:
            assert f"city_coverage-{budget}" in out
        assert "cell_contention" in out
