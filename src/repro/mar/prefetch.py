"""Location-based prefetching for the virtual-object cache (§III-B).

"Caching and prefetching mechanisms can reduce the network overhead of
P_local+externalDB."  MAR content is geo-anchored, so the natural
predictor is spatial: learn cell-to-cell transitions from the user's
movement history and prefetch the objects of the most likely next
cells before the user arrives.

- :class:`GridWorld` — maps positions to cells and cells to their
  virtual-object catalogs (deterministic synthetic content).
- :class:`MarkovPredictor` — first-order cell-transition model.
- :class:`PrefetchingCache` — wraps :class:`~repro.mar.cache.
  ObjectCache`; on each movement tick it requests the current cell's
  objects (demand misses count) after prefetching the predicted next
  cells' objects.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.mar.cache import ObjectCache
from repro.wireless.mobility import Waypoint

Cell = Tuple[int, int]


#: Side of one :class:`GridWorld` cell, in metres.
GRID_CELL_SIZE = 150.0

#: Objects anchored in one cell (±2) and their mean size in bytes
#: (±50 %).
OBJECTS_PER_CELL = 5
OBJECT_BYTES = 100_000


class GridWorld:
    """Geo-anchored content: each grid cell owns a set of objects."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def cell_of(self, point: Waypoint) -> Cell:
        return (int(point.x // GRID_CELL_SIZE), int(point.y // GRID_CELL_SIZE))

    def objects_in(self, cell: Cell) -> List[Tuple[str, int]]:
        """(key, size) catalog of one cell; deterministic per seed."""
        rng = random.Random(f"{self.seed}:{cell[0]}:{cell[1]}")
        count = max(1, OBJECTS_PER_CELL + rng.randint(-2, 2))
        return [
            (f"obj:{cell[0]}:{cell[1]}:{i}",
             int(OBJECT_BYTES * rng.uniform(0.5, 1.5)))
            for i in range(count)
        ]

    def neighbours(self, cell: Cell) -> List[Cell]:
        x, y = cell
        return [(x + dx, y + dy)
                for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                if (dx, dy) != (0, 0)]


#: Next cells the Markov policy prefetches for.
PREFETCH_TOP_K = 3


class MarkovPredictor:
    """First-order cell-transition predictor."""

    def __init__(self) -> None:
        self._transitions: Dict[Cell, Counter] = defaultdict(Counter)
        self._last: Optional[Cell] = None

    def observe(self, cell: Cell) -> None:
        if self._last is not None and cell != self._last:
            self._transitions[self._last][cell] += 1
        self._last = cell

    def predict(self, cell: Cell) -> List[Cell]:
        """The ``PREFETCH_TOP_K`` most likely next cells (may be empty
        for unseen cells)."""
        seen = self._transitions.get(cell)
        if not seen:
            return []
        return [c for c, _ in seen.most_common(PREFETCH_TOP_K)]


class PrefetchingCache:
    """Object cache driven by movement, with pluggable prediction.

    ``policy`` is one of:

    - ``"none"`` — pure demand caching;
    - ``"neighbours"`` — prefetch all 8 adjacent cells (geometry only);
    - ``"markov"`` — prefetch the predictor's ``PREFETCH_TOP_K`` next cells.
    """

    def __init__(
        self,
        world: GridWorld,
        capacity_bytes: int,
        policy: str = "markov",
    ) -> None:
        if policy not in ("none", "neighbours", "markov"):
            raise ValueError(f"unknown policy {policy!r}")
        self.world = world
        self.cache = ObjectCache(capacity_bytes)
        self.policy = policy
        self.predictor = MarkovPredictor()
        self.prefetched_bytes = 0
        self._current_cell: Optional[Cell] = None

    # ------------------------------------------------------------------
    def on_move(self, point: Waypoint) -> None:
        """Advance to a new position: prefetch, then demand-access.

        Demand accesses happen on cell *entry* — an MAR browser loads a
        cell's anchored objects once when the user arrives, then renders
        from memory while the user stays inside it.
        """
        cell = self.world.cell_of(point)
        if cell == self._current_cell:
            return
        self._current_cell = cell
        if self.policy != "none":
            self._prefetch_for(cell)
        if self.policy == "markov":
            self.predictor.observe(cell)
        for key, size in self.world.objects_in(cell):
            self.cache.request(key, size)

    def _prefetch_for(self, cell: Cell) -> None:
        if self.policy == "neighbours":
            targets = self.world.neighbours(cell)
        else:
            targets = self.predictor.predict(cell)
        items = []
        for target in targets:
            items.extend(self.world.objects_in(target))
        admitted = self.cache.prefetch(items)
        self.prefetched_bytes += sum(
            size for _, size in items[:admitted]
        )

    # ------------------------------------------------------------------
    @property
    def hit_ratio(self) -> float:
        return self.cache.hit_ratio

    def run_trace(self, trajectory: Sequence[Waypoint]) -> float:
        """Replay a mobility trace; returns the demand hit ratio."""
        for point in trajectory:
            self.on_move(point)
        return self.hit_ratio
