"""The merged cache entry: poisoned-cache matrix and equivalence sweep.

Every way a cache directory can be damaged must end in the result a
``cache=None`` run gives and in a repaired cache, so that the run after
it is served from the verified merged entry again (docs/FLEET.md §5,
"cache failures").
"""

import hashlib
import json
import re
import shutil

import pytest

from repro.fleet import Campaign, FaultInjection, ResultCache, run_campaign
from repro.fleet import workers as fleet_workers
from repro.fleet.cache import MERGED_NAME
from repro.scale import city_coverage_campaign


def campaign(base_seed=3):
    return Campaign(name="poison", scenario="table2_offload", seeds=3,
                    base_seed=base_seed, grid={"rtt": [0.01, 0.05]},
                    params={"n_frames": 4})


N = 6   # shards in campaign()


def assert_same_result(got, want):
    assert got.aggregate.to_json() == want.aggregate.to_json()
    assert list(got.per_point) == list(want.per_point)
    for label, agg in want.per_point.items():
        assert got.per_point[label].to_json() == agg.to_json()


def served_from_merged(result):
    """Nothing went through the reducer: the verified merged entry."""
    return (result.cache_hits == len(result.outcomes)
            and result.cache_misses == 0 and result.max_buffered == 0)


def flip_digit(path):
    """Change one digit inside a number so the file still parses."""
    text = path.read_text()
    at = re.search(r'"count":(\d)', text).start(1)
    path.write_text(text[:at] + ("1" if text[at] != "1" else "2")
                    + text[at + 1:])
    json.loads(path.read_text())


def reseal(path, edit):
    """Apply ``edit`` to a merged entry and give it a valid checksum."""
    doc = json.loads(path.read_text())["payload"]
    edit(doc)
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    path.write_text('{"payload":%s,"sha256":"%s"}' % (
        payload, hashlib.sha256(payload.encode()).hexdigest()))


# -- damage to one shard entry of a completed campaign -----------------
def truncate_shard(cache, c):
    victim = cache.shard_path(c, c.shards()[1])
    victim.write_bytes(victim.read_bytes()[:40])


def flip_shard_digit(cache, c):
    flip_digit(cache.shard_path(c, c.shards()[1]))


def delete_shard(cache, c):
    cache.shard_path(c, c.shards()[1]).unlink()


def swap_in_other_shard(cache, c):
    shards = c.shards()
    shutil.copyfile(cache.shard_path(c, shards[-1]),
                    cache.shard_path(c, shards[1]))


# -- damage to the merged entry ----------------------------------------
def merged_path(cache, c):
    return cache.campaign_dir(c) / MERGED_NAME


def truncate_merged(cache, c):
    path = merged_path(cache, c)
    path.write_bytes(path.read_bytes()[:200])


def flip_merged_digit(cache, c):
    flip_digit(merged_path(cache, c))


def merged_of_other_campaign(cache, c):
    other = campaign(base_seed=4)
    run_campaign(other, cache=cache)
    shutil.copyfile(merged_path(cache, other), merged_path(cache, c))


def merged_with_wrong_count(cache, c):
    reseal(merged_path(cache, c), lambda doc: doc["shards"].pop())


def merged_with_wrong_labels(cache, c):
    def rename(doc):
        doc["per_point"][0][0] = "rtt=9.9"
    reseal(merged_path(cache, c), rename)


def delete_merged(cache, c):
    """What a directory written by a commit without the entry looks like."""
    merged_path(cache, c).unlink()


@pytest.mark.parametrize("damage, hits, misses", [
    (truncate_shard, N - 1, 1),
    (flip_shard_digit, N - 1, 1),
    (delete_shard, N - 1, 1),
    (swap_in_other_shard, N - 1, 1),
    (truncate_merged, N, 0),
    (flip_merged_digit, N, 0),
    (merged_of_other_campaign, N, 0),
    (merged_with_wrong_count, N, 0),
    (merged_with_wrong_labels, N, 0),
    (delete_merged, N, 0),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_poisoned_cache_ends_in_the_true_result_and_a_repaired_cache(
        tmp_path, damage, hits, misses):
    c = campaign()
    truth = run_campaign(c, cache=None)
    cache = ResultCache(tmp_path)
    run_campaign(c, cache=cache)
    assert served_from_merged(run_campaign(c, cache=ResultCache(tmp_path)))

    damage(cache, c)
    hurt = run_campaign(c, cache=ResultCache(tmp_path))
    assert (hurt.cache_hits, hurt.cache_misses) == (hits, misses)
    assert not served_from_merged(hurt)
    assert hurt.quarantined == []
    assert_same_result(hurt, truth)

    healed = run_campaign(c, cache=ResultCache(tmp_path))
    assert served_from_merged(healed)
    assert_same_result(healed, truth)


def test_quarantined_campaign_writes_no_merged_entry_until_it_completes(
        tmp_path, monkeypatch, fast_backoff):
    monkeypatch.setattr(fleet_workers, "MAX_ATTEMPTS", 2)
    c = campaign()
    cache = ResultCache(tmp_path)
    faults = FaultInjection(tags=(c.shards()[2].tag,), mode="raise")
    broken = run_campaign(c, cache=cache, faults=faults)
    assert broken.quarantined == [c.shards()[2].tag]
    assert not merged_path(cache, c).exists()

    retried = run_campaign(c, cache=ResultCache(tmp_path))
    assert (retried.cache_hits, retried.cache_misses) == (N - 1, 1)
    assert [o.tag for o in retried.outcomes if not o.cached] == [
        c.shards()[2].tag]
    assert merged_path(cache, c).exists()

    truth = run_campaign(c, cache=None)
    assert_same_result(retried, truth)
    healed = run_campaign(c, cache=ResultCache(tmp_path))
    assert served_from_merged(healed)
    assert_same_result(healed, truth)


def test_merged_result_equals_the_per_shard_result_field_by_field(tmp_path):
    c = campaign()
    cache = ResultCache(tmp_path)
    run_campaign(c, cache=cache)
    merged = run_campaign(c, cache=ResultCache(tmp_path))
    delete_merged(cache, c)
    per_shard = run_campaign(c, cache=ResultCache(tmp_path))
    assert served_from_merged(merged) and not served_from_merged(per_shard)
    assert_same_result(merged, per_shard)
    for name in ("outcomes", "cache_hits", "cache_misses", "workers",
                 "n_batches", "start_method", "latency_key", "rate_key",
                 "moment_keys", "quarantined", "completed"):
        assert getattr(merged, name) == getattr(per_shard, name), name


SWEEP = {
    "table2_offload": lambda: Campaign(
        name="sweep", scenario="table2_offload", seeds=2, base_seed=3,
        grid={"rtt": [0.01, 0.05]}, params={"n_frames": 4}),
    "cell_offload": lambda: Campaign(
        name="sweep", scenario="cell_offload", seeds=2, base_seed=3,
        grid={"rtt": [0.008, 0.036]},
        params={"duration": 0.1, "up_bps": 12e6}),
    "wifi_anomaly_cell": lambda: Campaign(
        name="sweep", scenario="wifi_anomaly_cell", seeds=2, base_seed=3,
        grid={"n_slow": [0, 1]}, params={"n_fast": 2, "duration": 0.2}),
    "city_coverage": lambda: city_coverage_campaign(
        "smoke", city_seed=1, base_seed=1),
}


@pytest.mark.parametrize("scenario", sorted(SWEEP))
def test_cold_then_warm_equals_uncached(tmp_path, scenario):
    c = SWEEP[scenario]()
    truth = run_campaign(c, cache=None)
    cold = run_campaign(c, cache=ResultCache(tmp_path))
    assert cold.cache_misses == len(cold.outcomes)
    assert_same_result(cold, truth)
    for workers in (1, 2):
        warm = run_campaign(c, workers=workers, cache=ResultCache(tmp_path))
        assert served_from_merged(warm)
        assert warm.n_batches == 0
        assert_same_result(warm, truth)
