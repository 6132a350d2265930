"""Virtual-object cache with prefetching (the x parameter).

Section III-B: "the MAR application cannot store all possible images of
the objects to be detected due to limited storage on the device" — so a
device-side LRU cache holds the hot subset, and "caching and
prefetching mechanisms can reduce the network overhead of
P_local+externalDB".
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Tuple


class ObjectCache:
    """Byte-budgeted LRU cache of virtual objects.

    ``capacity_bytes`` is bounded by the device's storage (Table I).
    :meth:`request` returns True on a hit; misses auto-insert (fetch
    assumed to have happened).  :meth:`prefetch` warms the cache, e.g.
    from a location-based predictor.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[str, int]" = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ------------------------------------------------------------------
    def request(self, key: str, size_bytes: int) -> bool:
        """Access an object; returns hit/miss and updates recency."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self._insert(key, size_bytes)
        return False

    def prefetch(self, items: Iterable[Tuple[str, int]]) -> int:
        """Warm the cache; returns how many objects were admitted."""
        admitted = 0
        for key, size in items:
            if key not in self._entries and size <= self.capacity_bytes:
                self._insert(key, size)
                admitted += 1
        return admitted

    def _insert(self, key: str, size_bytes: int) -> None:
        if size_bytes > self.capacity_bytes:
            return  # object can never fit; don't thrash the cache
        while self._used + size_bytes > self.capacity_bytes and self._entries:
            _, evicted = self._entries.popitem(last=False)
            self._used -= evicted
        self._entries[key] = size_bytes
        self._used += size_bytes
