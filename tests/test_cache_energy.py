"""Tests for the object cache."""

import pytest

from repro.mar.cache import ObjectCache


class TestObjectCache:
    def test_miss_then_hit(self):
        cache = ObjectCache(capacity_bytes=10_000)
        assert not cache.request("a", 1000)
        assert cache.request("a", 1000)
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_order(self):
        cache = ObjectCache(capacity_bytes=3000)
        cache.request("a", 1000)
        cache.request("b", 1000)
        cache.request("c", 1000)
        cache.request("a", 1000)  # refresh a
        cache.request("d", 1000)  # evicts b (least recently used)
        assert "b" not in cache
        assert "a" in cache and "c" in cache and "d" in cache

    def test_oversized_object_never_cached(self):
        cache = ObjectCache(capacity_bytes=500)
        cache.request("huge", 1000)
        assert "huge" not in cache

    def test_byte_budget_respected(self):
        cache = ObjectCache(capacity_bytes=2500)
        for key in "abcde":
            cache.request(key, 1000)
        assert [key for key in "abcde" if key in cache] == ["d", "e"]

    def test_prefetch_warms(self):
        cache = ObjectCache(capacity_bytes=10_000)
        admitted = cache.prefetch([("a", 1000), ("b", 1000)])
        assert admitted == 2
        assert cache.request("a", 1000)
        assert cache.hit_ratio == 1.0

    def test_prefetch_skips_existing_and_oversized(self):
        cache = ObjectCache(capacity_bytes=1500)
        cache.prefetch([("a", 1000)])
        admitted = cache.prefetch([("a", 1000), ("big", 5000)])
        assert admitted == 0

    def test_hit_ratio_empty(self):
        assert ObjectCache(1000).hit_ratio == 0.0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ObjectCache(0)

