"""Fleet runner: serial/parallel equivalence, fault tolerance, cache."""

import errno
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.analysis.report import fleet_report
from repro.core.resilience import DecorrelatedBackoff
from repro.fleet import (
    Aggregate,
    Campaign,
    FaultInjection,
    ResultCache,
    get_scenario,
    plan_batches,
    register_scenario,
    run_campaign,
    run_shard,
    usable_cpus,
)
from repro.fleet import flight as flight_recorder
from repro.fleet import workers as fleet_workers
from repro.fleet.cache import MERGED_NAME
from repro.fleet.workers import MAX_BATCH, OVERSUBSCRIBE, _ShardState
from fleet_helpers import batch_cost_efficiency


def tiny_campaign(seeds=2, name="tiny"):
    return Campaign(name=name, scenario="table2_offload", seeds=seeds,
                    base_seed=3, grid={"rtt": [0.01, 0.05]},
                    params={"n_frames": 4})


class _WireText:
    """A shard result whose wire text is not an aggregate."""

    def __init__(self, text):
        self.text = text

    def to_json(self):
        return self.text


@register_scenario("fleet_test_probe")
def fleet_test_probe(seed, params):
    """Test probe: sleeps ``nap`` s; returns "[]" where ``n == bad``.

    Registered at import, so forked pool workers inherit it.
    """
    time.sleep(params.get("nap", 0.0))
    if params.get("n") is not None and params.get("n") == params.get("bad"):
        return _WireText("[]")
    agg = Aggregate()
    agg.count("sessions")
    agg.count("seed_mod", seed % 997)
    return agg


class TestDeterminism:
    def test_serial_and_pool_reports_byte_identical(self):
        c = tiny_campaign(seeds=3)  # 6 shards
        serial = run_campaign(c, workers=1)
        pooled = run_campaign(c, workers=2)
        assert serial.aggregate.to_json() == pooled.aggregate.to_json()
        assert list(serial.per_point) == list(pooled.per_point)
        for label in serial.per_point:
            assert (serial.per_point[label].to_json()
                    == pooled.per_point[label].to_json())
        assert fleet_report(serial) == fleet_report(pooled)

    def test_repeat_runs_identical(self):
        c = tiny_campaign()
        assert (run_campaign(c, workers=1).aggregate.to_json()
                == run_campaign(c, workers=1).aggregate.to_json())

    def test_serial_pooled_batched_all_byte_identical(self):
        """The tentpole contract: every dispatch shape merges the same bytes."""
        c = tiny_campaign(seeds=4)  # 8 shards
        serial = run_campaign(c, workers=1)
        runs = {
            "unbatched": run_campaign(c, workers=2, batch_size=1),
            "fixed-batch": run_campaign(c, workers=2, batch_size=3),
            "auto-batch": run_campaign(c, workers=2),
        }
        for label, r in runs.items():
            assert r.aggregate.to_json() == serial.aggregate.to_json(), label
            assert list(r.per_point) == list(serial.per_point), label
            for point in serial.per_point:
                assert (r.per_point[point].to_json()
                        == serial.per_point[point].to_json()), label
            assert fleet_report(r) == fleet_report(serial), label

    def test_identical_under_injected_worker_kill(self, monkeypatch, fast_backoff):
        """A quarantined culprit leaves the same bytes in every mode."""
        monkeypatch.setattr(fleet_workers, "MAX_ATTEMPTS", 2)
        c = tiny_campaign(seeds=3)  # 6 shards
        tag = c.shards()[2].tag
        serial = run_campaign(c, workers=1,
                              faults=FaultInjection(tags=(tag,), mode="raise"))
        batched = run_campaign(c, workers=2, batch_size=3,
                               faults=FaultInjection(tags=(tag,), mode="kill"))
        assert serial.quarantined == batched.quarantined == [tag]
        # Aggregates (and per-point bytes) are identical; the rendered
        # report differs only in the quarantine error text, which
        # legitimately records *how* the shard died in each mode.
        assert serial.aggregate.to_json() == batched.aggregate.to_json()
        for point in serial.per_point:
            assert (serial.per_point[point].to_json()
                    == batched.per_point[point].to_json())

    def test_cache_hit_rerun_identical_batched(self, tmp_path):
        """A 100% cache-hit rerun reproduces a batched pooled run exactly."""
        c = tiny_campaign(seeds=3)
        fresh = run_campaign(c, workers=2, cache=ResultCache(tmp_path))
        rerun = run_campaign(c, workers=2, cache=ResultCache(tmp_path))
        assert rerun.cache_misses == 0
        assert all(o.cached for o in rerun.outcomes)
        assert rerun.aggregate.to_json() == fresh.aggregate.to_json()
        assert fleet_report(rerun) == fleet_report(fresh)

    def test_streaming_reducer_has_no_end_barrier(self):
        """Pooled runs merge incrementally: the buffer stays bounded."""
        c = tiny_campaign(seeds=4)
        r = run_campaign(c, workers=2)
        assert r.max_buffered <= len(c.shards())
        assert r.n_batches >= 1
        assert r.start_method in ("forkserver", "spawn", "fork")


class TestFaultTolerance:
    def test_transient_fault_is_retried(self, fast_backoff):
        c = tiny_campaign()
        tag = c.shards()[1].tag
        faults = FaultInjection(tags=(tag,), mode="raise", fail_attempts=1)
        r = run_campaign(c, workers=1, faults=faults)
        assert r.quarantined == []
        outcome = next(o for o in r.outcomes if o.tag == tag)
        assert outcome.attempts == 2
        # retried shard contributes: aggregate matches a clean run
        clean = run_campaign(c, workers=1)
        assert r.aggregate.to_json() == clean.aggregate.to_json()

    def test_persistent_fault_quarantined_serial(self, monkeypatch, fast_backoff):
        monkeypatch.setattr(fleet_workers, "MAX_ATTEMPTS", 3)
        c = tiny_campaign()
        tag = c.shards()[0].tag
        faults = FaultInjection(tags=(tag,), mode="raise")
        r = run_campaign(c, workers=1, faults=faults)
        assert r.quarantined == [tag]
        assert r.completed == len(r.outcomes) - 1
        outcome = next(o for o in r.outcomes if o.tag == tag)
        assert outcome.attempts == 3 and "injected" in outcome.error

    def test_killed_worker_quarantined_without_failing_campaign(self, monkeypatch, fast_backoff):
        monkeypatch.setattr(fleet_workers, "MAX_ATTEMPTS", 3)
        c = tiny_campaign()
        tag = c.shards()[0].tag
        faults = FaultInjection(tags=(tag,), mode="kill")
        r = run_campaign(c, workers=2, faults=faults)
        assert r.quarantined == [tag]          # only the culprit
        assert r.completed == len(r.outcomes) - 1
        # the quarantined shard is individually replayable from its tag
        replayed = run_shard(c, tag)
        assert replayed.counts["sessions"] == 1

    def test_kill_downgrades_to_raise_in_serial_fallback(self, monkeypatch, fast_backoff):
        """A kill-fault must never take down the serial caller."""
        monkeypatch.setattr(fleet_workers, "MAX_ATTEMPTS", 2)
        c = tiny_campaign()
        tag = c.shards()[0].tag
        faults = FaultInjection(tags=(tag,), mode="kill")
        r = run_campaign(c, workers=1, faults=faults)
        assert r.quarantined == [tag]

    def test_quarantine_excluded_from_merge(self, monkeypatch, fast_backoff):
        monkeypatch.setattr(fleet_workers, "MAX_ATTEMPTS", 2)
        c = tiny_campaign()
        tag = c.shards()[0].tag
        faults = FaultInjection(tags=(tag,), mode="raise")
        r = run_campaign(c, workers=1, faults=faults)
        clean = run_campaign(c, workers=1)
        assert (r.aggregate.counts["sessions"]
                == clean.aggregate.counts["sessions"] - 1)

    def test_raise_fault_does_not_lose_batch_mates(self, fast_backoff):
        """A raising shard is per-shard data; its batch-mates complete.

        With every shard in one batch, the faulty shard must be retried
        alone while the siblings keep their single first-attempt result.
        """
        c = tiny_campaign(seeds=2)  # 4 shards
        tag = c.shards()[1].tag
        faults = FaultInjection(tags=(tag,), mode="raise", fail_attempts=1)
        r = run_campaign(c, workers=2, batch_size=4, faults=faults)
        assert r.quarantined == []
        by_tag = {o.tag: o for o in r.outcomes}
        assert by_tag[tag].attempts == 2
        assert all(o.attempts == 1 for t, o in by_tag.items() if t != tag)
        clean = run_campaign(c, workers=1)
        assert r.aggregate.to_json() == clean.aggregate.to_json()


class TestFailureModes:
    """One injected failure per row of docs/FLEET.md §5, each handled the
    same way at every executor width."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_malformed_aggregate_quarantines_only_that_shard(
            self, workers, monkeypatch, fast_backoff):
        monkeypatch.setattr(fleet_workers, "MAX_ATTEMPTS", 2)
        c = Campaign(name="malformed", scenario="fleet_test_probe", seeds=1,
                     base_seed=1, grid={"n": [0, 1, 2, 3, 4, 5]},
                     params={"bad": 2})
        shards = c.shards()
        bad = shards[2].tag
        r = run_campaign(c, workers=workers, batch_size=3)
        assert r.quarantined == [bad]
        outcome = next(o for o in r.outcomes if o.tag == bad)
        assert "aggregate document is not a mapping" in outcome.error
        assert all(o.attempts == 1 for o in r.outcomes if o.tag != bad)
        fn = get_scenario(c.scenario).fn
        good = {s.point_label: fn(s.seed, s.param_dict())
                for s in shards if s.tag != bad}
        merged = Aggregate()
        for agg in good.values():
            merged.merge(agg)
        assert r.aggregate.to_json() == merged.to_json()
        for label, agg in good.items():
            assert r.per_point[label].to_json() == agg.to_json()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_flight_write_error_does_not_fail_the_shard(
            self, tmp_path, monkeypatch, workers, fast_backoff):
        """ENOSPC on the flight directory, or a flight directory that
        cannot be created: the recorder drops its spills and crash
        dumps, and no shard is charged for them."""
        monkeypatch.setattr(fleet_workers, "MAX_ATTEMPTS", 1)
        c = tiny_campaign()
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        r = run_campaign(c, workers=workers, flight_dir=blocker / "flight")
        assert [o.status for o in r.outcomes] == ["ok"] * len(c.shards())
        assert all(o.attempts == 1 for o in r.outcomes)

        flight_dir = tmp_path / "flight"
        full = ["worker-", "flight-", "quarantine-"]    # files with no space

        def no_space(file, *args, **kwargs):
            path = Path(file)
            if flight_dir in path.parents and path.name.startswith(tuple(full)):
                raise OSError(errno.ENOSPC, "No space left on device")
            return open(file, *args, **kwargs)

        monkeypatch.setattr(flight_recorder, "open", no_space,
                            raising=False)
        r = run_campaign(c, workers=workers, flight_dir=flight_dir)
        assert [o.status for o in r.outcomes] == ["ok"] * len(c.shards())
        assert all(o.attempts == 1 for o in r.outcomes)
        assert (r.aggregate.to_json()
                == run_campaign(c, workers=1).aggregate.to_json())
        # A raising shard's crash dump is dropped too; its batch-mates
        # still run once.
        bad = c.shards()[1].tag
        r = run_campaign(c, workers=workers, flight_dir=flight_dir,
                         batch_size=4,
                         faults=FaultInjection(tags=(bad,)))
        assert r.quarantined == [bad]
        assert all(o.attempts == 1 for o in r.outcomes)
        assert not list(flight_dir.iterdir())
        # Only the driver's quarantine copy fails: the record keeps the
        # crash dump itself.
        full[:] = ["quarantine-"]
        r = run_campaign(c, workers=workers, flight_dir=flight_dir,
                         batch_size=4,
                         faults=FaultInjection(tags=(bad,)))
        assert Path(r.outcomes[1].flight).name.startswith("flight-")

    def test_worker_death_charges_only_the_culprit(self, monkeypatch, fast_backoff):
        """Batch-mates of a dead worker are refunded the broken attempt:
        with one attempt each, only the culprit is quarantined."""
        monkeypatch.setattr(fleet_workers, "MAX_ATTEMPTS", 1)
        c = tiny_campaign(seeds=2)  # 4 shards
        tag = c.shards()[1].tag
        r = run_campaign(c, workers=2, batch_size=4,
                         faults=FaultInjection(tags=(tag,), mode="kill"))
        assert r.quarantined == [tag]
        assert all(o.attempts == 1 for o in r.outcomes)
        assert "BrokenProcessPool" in r.outcomes[1].error
        clean = run_campaign(c, workers=1)
        assert (r.aggregate.counts["sessions"]
                == clean.aggregate.counts["sessions"] - 1)

    def test_hung_shard_is_abandoned_at_its_deadline_in_isolation(self, monkeypatch, fast_backoff):
        """A shard sleeping far past ``SHARD_TIMEOUT`` next to a worker
        killer: isolation must not join the sleeping worker."""
        monkeypatch.setattr(fleet_workers, "MAX_ATTEMPTS", 2)
        monkeypatch.setattr(fleet_workers, "SHARD_TIMEOUT", 0.5)
        c = Campaign(name="hang", scenario="fleet_test_probe", seeds=1,
                     base_seed=1, grid={"nap": [0.0, 6.0]})
        killer, sleeper = [s.tag for s in c.shards()]
        t0 = time.monotonic()
        r = run_campaign(c, workers=2, batch_size=2,
                         faults=FaultInjection(tags=(killer,), mode="kill"))
        assert time.monotonic() - t0 < 4.0
        assert r.quarantined == [killer, sleeper]
        assert r.outcomes[0].error.startswith("BrokenProcessPool")
        assert r.outcomes[1].errors == ["timeout after 0.5s"] * 2

    def test_every_retry_backs_off_at_every_width(self, monkeypatch, fast_backoff):
        monkeypatch.setattr(fleet_workers, "MAX_ATTEMPTS", 3)
        draws = []
        draw = DecorrelatedBackoff.next

        def counted(self):
            draws.append(1)
            return draw(self)

        monkeypatch.setattr(DecorrelatedBackoff, "next", counted)
        c = tiny_campaign()
        tag = c.shards()[1].tag
        per_width = {}
        for workers in (1, 2):
            draws.clear()
            r = run_campaign(c, workers=workers,
                             faults=FaultInjection(tags=(tag,), mode="raise"))
            assert r.quarantined == [tag]
            per_width[workers] = len(draws)
        assert per_width == {1: 2, 2: 2}

    def test_driver_sigkill_then_resume_equals_an_uninterrupted_run(
            self, tmp_path):
        spec = dict(name="resume", scenario="cell_offload", seeds=16,
                    base_seed=5, grid={"rtt": [0.008, 0.036, 0.072, 0.120]},
                    params={"duration": 1.0, "up_bps": 12e6})
        c = Campaign(**spec)
        shard_dir = ResultCache(tmp_path).campaign_dir(c)
        src = str(Path(repro.__file__).resolve().parents[1])
        driver = subprocess.Popen(
            [sys.executable, "-c", RESUMABLE_DRIVER, json.dumps(spec),
             str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=src))
        try:
            deadline = time.monotonic() + 120
            while len(list(shard_dir.glob("[0-9]*.json"))) < 4:
                assert driver.poll() is None, "the driver exited on its own"
                assert time.monotonic() < deadline
                time.sleep(0.005)
            found = len(list(shard_dir.glob("[0-9]*.json")))
            driver.send_signal(signal.SIGKILL)
        finally:
            driver.kill()
            driver.wait()
        assert driver.returncode == -signal.SIGKILL
        assert not (shard_dir / MERGED_NAME).exists()

        resumed = run_campaign(c, cache=ResultCache(tmp_path))
        assert resumed.cache_hits >= found
        assert resumed.cache_misses > 0
        truth = run_campaign(c, cache=None)
        assert resumed.aggregate.to_json() == truth.aggregate.to_json()
        assert list(resumed.per_point) == list(truth.per_point)
        for point in truth.per_point:
            assert (resumed.per_point[point].to_json()
                    == truth.per_point[point].to_json())
        assert (shard_dir / MERGED_NAME).exists()


RESUMABLE_DRIVER = """
import json, sys
from repro.fleet import Campaign, ResultCache, run_campaign
run_campaign(Campaign(**json.loads(sys.argv[1])),
             cache=ResultCache(sys.argv[2]))
"""


class TestBatchPlanning:
    def states(self, seeds=16, scenario="table2_offload", grid=None):
        c = Campaign(name="plan", scenario=scenario, seeds=seeds,
                     base_seed=5, grid=grid or {},
                     params={"n_frames": 4})
        return [_ShardState(s) for s in c.shards()]

    def test_fixed_batch_size_chunks(self):
        states = self.states(seeds=10)
        batches = plan_batches(states, workers=2, batch_size=3)
        assert [len(b) for b in batches] == [3, 3, 3, 1]
        flat = [s for b in batches for s in b]
        assert flat == states                      # order preserved

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError):
            plan_batches(self.states(seeds=2), workers=1, batch_size=0)

    def test_auto_tuning_targets_oversubscribe_batches(self):
        states = self.states(seeds=64)
        batches = plan_batches(states, workers=2)
        assert len(batches) <= 2 * OVERSUBSCRIBE + 1
        assert len(batches) >= 2                   # still parallelizable
        assert sum(len(b) for b in batches) == 64
        assert [s for b in batches for s in b] == states

    def test_auto_tuning_is_deterministic(self):
        a = plan_batches(self.states(seeds=32), workers=4)
        b = plan_batches(self.states(seeds=32), workers=4)
        assert [[s.spec.tag for s in batch] for batch in a] \
            == [[s.spec.tag for s in batch] for batch in b]

    def test_cost_weighted_batches_balance_cost_not_count(self):
        # n_frames drives table2_offload cost: a grid mixing 1x and 9x
        # shards must cut batches with fewer expensive shards each.
        c = Campaign(name="plan", scenario="table2_offload", seeds=8,
                     base_seed=5, grid={"n_frames": [5, 45]})
        states = [_ShardState(s) for s in c.shards()]
        scenario = get_scenario("table2_offload")
        batches = plan_batches(states, workers=2, scenario=scenario)
        costs = [sum(scenario.shard_cost(s.spec.param_dict()) for s in b)
                 for b in batches]
        assert max(costs) <= 3 * min(costs)
        assert sum(len(b) for b in batches) == 16

    def test_max_batch_cap(self):
        states = self.states(seeds=MAX_BATCH * 2 + 5)
        batches = plan_batches(states, workers=1)
        assert all(len(b) <= MAX_BATCH for b in batches)
        assert sum(len(b) for b in batches) == len(states)

    def test_empty_todo(self):
        assert plan_batches([], workers=4) == []


class TestHierarchicalShardEfficiency:
    """The planner must stay load-balanced on repro.scale's city grids,
    where member-0 shards carry extra fluid-aggregation and promotion
    cost next to their plain cohort siblings."""

    def _efficiency(self, campaign, workers):
        scenario = get_scenario(campaign.scenario)
        states = [_ShardState(s) for s in campaign.shards()]
        batches = plan_batches(states, workers=workers, scenario=scenario)
        return batch_cost_efficiency(batches, scenario), batches, states

    @pytest.mark.parametrize("budget", ["smoke", "small", "metro"])
    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_city_coverage_efficiency_floor(self, budget, workers):
        from repro.scale.shards import city_coverage_campaign

        eff, batches, states = self._efficiency(
            city_coverage_campaign(budget), workers)
        assert eff >= 0.6
        assert [s for b in batches for s in b] == states  # order preserved

    @pytest.mark.parametrize("workers", [2, 4])
    def test_cell_contention_efficiency_floor(self, workers):
        from repro.scale.shards import cell_contention_campaign

        eff, _batches, _states = self._efficiency(
            cell_contention_campaign(), workers)
        assert eff >= 0.6

    def test_city_cost_hints_are_honest_about_member0(self):
        # Member 0 runs the fluid aggregate + promotions on top of its
        # session, so its hinted cost must strictly exceed a sibling's.
        from repro.scale.shards import city_coverage_campaign

        campaign = city_coverage_campaign("metro")  # cohort=2
        scenario = get_scenario(campaign.scenario)
        p0 = dict(campaign.params, cell=0, member=0)
        p1 = dict(campaign.params, cell=0, member=1)
        assert scenario.shard_cost(p0) > scenario.shard_cost(p1) > 0

    def test_efficiency_helper_degenerate_cases(self):
        assert batch_cost_efficiency([], None) == 1.0
        states = [_ShardState(s) for s in city_grid_states()]
        # Count-based fallback when no scenario is supplied.
        assert 0.0 < batch_cost_efficiency([states[:2], states[2:4]]) <= 1.0


def city_grid_states():
    from repro.scale.shards import city_coverage_campaign

    return city_coverage_campaign("smoke").shards()[:4]


class TestUsableCpus:
    def test_positive_int(self):
        n = usable_cpus()
        assert isinstance(n, int) and n >= 1

    def test_matches_affinity_where_supported(self):
        if hasattr(os, "sched_getaffinity"):
            assert usable_cpus() == len(os.sched_getaffinity(0))


class TestCache:
    def test_rerun_is_full_cache_hit(self, tmp_path):
        c = tiny_campaign()
        r1 = run_campaign(c, workers=1, cache=ResultCache(tmp_path))
        assert r1.cache_hits == 0 and r1.cache_misses == len(r1.outcomes)
        r2 = run_campaign(c, workers=1, cache=ResultCache(tmp_path))
        assert r2.cache_misses == 0
        assert r2.cache_hits / len(r2.outcomes) >= 0.95
        assert all(o.cached for o in r2.outcomes)
        assert r1.aggregate.to_json() == r2.aggregate.to_json()
        assert fleet_report(r1) == fleet_report(r2)

    def test_spec_change_invalidates_cache(self, tmp_path):
        c = tiny_campaign()
        run_campaign(c, workers=1, cache=ResultCache(tmp_path))
        changed = tiny_campaign()
        changed.base_seed = 4
        r = run_campaign(changed, workers=1, cache=ResultCache(tmp_path))
        assert r.cache_hits == 0

    def test_quarantined_shards_not_cached(self, tmp_path, monkeypatch, fast_backoff):
        monkeypatch.setattr(fleet_workers, "MAX_ATTEMPTS", 2)
        c = tiny_campaign()
        tag = c.shards()[0].tag
        faults = FaultInjection(tags=(tag,), mode="raise")
        run_campaign(c, workers=1, cache=ResultCache(tmp_path),
                     faults=faults)
        # re-run without the fault: only the quarantined shard executes
        r2 = run_campaign(c, workers=1, cache=ResultCache(tmp_path))
        assert r2.cache_hits == len(r2.outcomes) - 1
        assert r2.cache_misses == 1
        assert r2.quarantined == []

    def test_corrupt_entry_is_a_miss_and_repaired(self, tmp_path):
        c = tiny_campaign()
        cache = ResultCache(tmp_path)
        run_campaign(c, workers=1, cache=cache)
        victim = cache.shard_path(c, c.shards()[0])
        victim.write_text("{not json")
        r = run_campaign(c, workers=1, cache=ResultCache(tmp_path))
        assert r.cache_misses == 1
        # repaired on the way through
        r2 = run_campaign(c, workers=1, cache=ResultCache(tmp_path))
        assert r2.cache_misses == 0

    @pytest.mark.parametrize("document", [
        "[]", "null", "3", '{"counts": []}', '{"moments": 1}'])
    def test_wrong_shape_entry_is_a_miss_and_repaired(self, tmp_path,
                                                      document):
        """Valid JSON that is not an aggregate is rejected by the parse
        (the merged entry is removed so its digest check cannot get in
        first), not raised out of the run."""
        c = tiny_campaign()
        cache = ResultCache(tmp_path)
        clean = run_campaign(c, workers=1, cache=cache)
        (cache.campaign_dir(c) / MERGED_NAME).unlink()
        victim = cache.shard_path(c, c.shards()[0])
        good = victim.read_bytes()
        victim.write_text(document)
        r = run_campaign(c, workers=1, cache=ResultCache(tmp_path))
        assert r.cache_misses == 1
        assert r.aggregate.to_json() == clean.aggregate.to_json()
        assert victim.read_bytes() == good

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_cache_write_does_not_fail_the_shard(
            self, tmp_path, monkeypatch, workers):
        """ENOSPC beneath ``put``: every simulation succeeded, so the
        run completes, charges no retry and writes no merged entry."""
        def no_space(path, text):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(ResultCache, "_atomic_write",
                            staticmethod(no_space))
        c = tiny_campaign()
        cache = ResultCache(tmp_path)
        r = run_campaign(c, workers=workers, cache=cache)
        assert r.completed == len(c.shards())
        assert all(o.attempts == 1 for o in r.outcomes)
        assert cache.write_errors == len(c.shards())
        assert not (cache.campaign_dir(c) / MERGED_NAME).exists()
        assert (r.aggregate.to_json()
                == run_campaign(c, workers=1).aggregate.to_json())

    def test_failed_merged_write_leaves_the_per_shard_path(
            self, tmp_path, monkeypatch):
        write = ResultCache._atomic_write

        def no_space_for_merged(path, text):
            if path.name == MERGED_NAME:
                raise OSError(errno.ENOSPC, "No space left on device")
            write(path, text)

        monkeypatch.setattr(ResultCache, "_atomic_write",
                            staticmethod(no_space_for_merged))
        c = tiny_campaign()
        cache = ResultCache(tmp_path)
        first = run_campaign(c, cache=cache)
        assert first.completed == len(c.shards())
        assert cache.write_errors == 1
        merged = cache.campaign_dir(c) / MERGED_NAME
        assert not merged.exists()
        monkeypatch.undo()
        again = run_campaign(c, cache=ResultCache(tmp_path))
        assert again.cache_hits == len(c.shards())
        assert merged.exists()          # only the per-shard path writes it
        assert again.aggregate.to_json() == first.aggregate.to_json()

    def test_shard_file_holds_the_wire_text(self, tmp_path):
        c = tiny_campaign()
        cache = ResultCache(tmp_path)
        run_campaign(c, workers=1, cache=cache)
        fn = get_scenario(c.scenario).fn
        for spec in c.shards():
            assert (cache.shard_path(c, spec).read_text()
                    == fn(spec.seed, spec.param_dict()).to_json())


class TestProgress:
    def test_progress_callback_sees_every_shard(self):
        seen = []
        c = tiny_campaign()
        run_campaign(c, workers=1,
                     progress=lambda done, total, el: seen.append((done, total)))
        assert seen[-1] == (len(c.shards()), len(c.shards()))
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)
