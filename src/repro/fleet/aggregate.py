"""Mergeable streaming statistics for campaign shards.

A fleet worker must return an **O(1)-sized summary** of its shard, not
raw traces: a 10,000-seed campaign with per-message latency lists would
move gigabytes through the result queue.  Three mergeable primitives
cover everything the fleet reports need:

- :class:`StreamingMoments` — count / mean / M2 (Welford) plus min and
  max.  Merging uses the parallel-variance formula of Chan, Golub &
  LeVeque, so ``merge(agg(A), agg(B))`` equals ``agg(A + B)`` up to
  floating-point rounding (exactly, for count/min/max).
- :class:`FixedBinHistogram` — fixed-bin counts with underflow and
  overflow buckets; merging is elementwise integer addition (exact),
  and p50/p95/p99 are read off the cumulative counts with linear
  interpolation inside a bin.
- :class:`Aggregate` — a named bundle of integer counters, moments and
  histograms; merging is keywise union.

The two streaming primitives are canonically defined in
:mod:`repro.analysis.stats` (sim domain) and re-exported here, so the
per-``Simulator`` observability registry (:mod:`repro.obs.registry`)
and fleet shards share one implementation and their serialized forms
stay byte-identically merge-compatible.

Determinism contract: serial and parallel campaign runs both compute
one :class:`Aggregate` per shard and merge them **in shard-index
order**, so the merged result — and any report rendered from it — is
byte-identical regardless of worker count or completion order.
Serialization (:meth:`Aggregate.to_json`) is canonical (sorted keys,
no whitespace), making the byte-equality testable and the on-disk
cache format stable.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.analysis.stats import CANONICAL_JSON, FixedBinHistogram, StreamingMoments


class Aggregate:
    """A named bundle of counters, moments and histograms.

    This is the unit a shard returns and the unit the runner merges —
    scenario runners fill one per shard, the campaign runner folds them
    together keywise.  Missing keys merge as identity, so shards whose
    scenario skipped a metric (e.g. zero slow stations) still combine.
    """

    __slots__ = ("counts", "moments", "histograms")

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.moments: Dict[str, StreamingMoments] = {}
        self.histograms: Dict[str, FixedBinHistogram] = {}

    # -- accessors (get-or-create) -------------------------------------
    def count(self, name: str, n: int = 1) -> int:
        self.counts[name] = self.counts.get(name, 0) + n
        return self.counts[name]

    def moment(self, name: str) -> StreamingMoments:
        m = self.moments.get(name)
        if m is None:
            m = self.moments[name] = StreamingMoments()
        return m

    def histogram(self, name: str, hi: float = 1.0,
                  n_bins: int = 100) -> FixedBinHistogram:
        """The histogram ``name`` over ``[0, hi)``, created on first use."""
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = FixedBinHistogram(0.0, hi, n_bins)
        return h

    # -- merge ---------------------------------------------------------
    def merge(self, other: "Aggregate") -> "Aggregate":
        for name, n in other.counts.items():
            self.counts[name] = self.counts.get(name, 0) + n
        for name, m in other.moments.items():
            self.moment(name).merge(m)
        for name, h in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = FixedBinHistogram.from_dict(h.to_dict())
            else:
                mine.merge(h)
        return self

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "counts": dict(sorted(self.counts.items())),
            "moments": {k: m.to_dict() for k, m in sorted(self.moments.items())},
            "histograms": {k: h.to_dict() for k, h in sorted(self.histograms.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Aggregate":
        """Rebuild from :meth:`to_dict` output.

        This is where outside input enters — cache files and the pool's
        result wire — so a document that is valid JSON of the wrong
        shape raises ``ValueError`` here, like one that is not JSON.
        """
        if not isinstance(d, dict):
            raise ValueError("aggregate document is not a mapping")
        counts = d.get("counts", {})
        moments = d.get("moments", {})
        histograms = d.get("histograms", {})
        if not (isinstance(counts, dict) and isinstance(moments, dict)
                and isinstance(histograms, dict)):
            raise ValueError("aggregate section is not a mapping")
        a = cls()
        a.counts = {k: int(v) for k, v in counts.items()}
        a.moments = {k: StreamingMoments.from_dict(v)
                     for k, v in moments.items()}
        a.histograms = {k: FixedBinHistogram.from_dict(v)
                        for k, v in histograms.items()}
        return a

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, no whitespace — byte-stable."""
        return json.dumps(self.to_dict(), **CANONICAL_JSON)

    @classmethod
    def from_json(cls, text: str) -> "Aggregate":
        return cls.from_dict(json.loads(text))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Aggregate) and self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Aggregate counts={len(self.counts)} "
                f"moments={len(self.moments)} hists={len(self.histograms)}>")


class OrderedReducer:
    """Streaming index-order merge of per-shard aggregates.

    The fleet determinism contract requires merging shard aggregates in
    **shard-index order** (float merges reassociate, so order changes
    bytes).  A parallel runner, however, completes shards in arbitrary
    order.  This reducer reconciles the two: results are *offered* as
    they arrive, buffered only while an earlier index is outstanding,
    and merged — into the campaign-wide aggregate and the shard's
    per-point aggregate — the moment they become the next in-order
    index.  Memory is bounded by the out-of-order window (tracked in
    :attr:`max_buffered`), not the campaign size, and there is no
    end-of-run merge barrier.

    Quarantined shards are holes in the index sequence: mark them with
    ``offer(index, None)`` so the merge front can advance past them.
    """

    __slots__ = ("_labels", "_next", "_buffer", "_offered",
                 "aggregate", "per_point", "max_buffered")

    def __init__(self, point_labels: Sequence[str]) -> None:
        #: index -> grid-point label, in shard order
        self._labels = list(point_labels)
        self._next = 0
        self._buffer: Dict[int, Optional[Aggregate]] = {}
        self._offered: set = set()
        self.aggregate = Aggregate()
        #: insertion-ordered by first merged index = grid-point order
        self.per_point: Dict[str, Aggregate] = {}
        self.max_buffered = 0

    def offer(self, index: int, agg: Optional[Aggregate]) -> None:
        """Feed one shard's aggregate (or ``None`` for a skipped shard)."""
        if not 0 <= index < len(self._labels):
            raise IndexError(f"shard index {index} out of range")
        if index < self._next or index in self._buffer:
            raise ValueError(f"shard index {index} offered twice")
        self._offered.add(index)
        self._buffer[index] = agg
        self.max_buffered = max(self.max_buffered, len(self._buffer))
        while self._next in self._buffer:
            ready = self._buffer.pop(self._next)
            if ready is not None:
                self.aggregate.merge(ready)
                label = self._labels[self._next]
                point = self.per_point.get(label)
                if point is None:
                    self.per_point[label] = Aggregate().merge(ready)
                else:
                    point.merge(ready)
            self._next += 1

    @property
    def pending(self) -> int:
        """Results buffered while an earlier index is outstanding."""
        return len(self._buffer)

    def finish(self) -> "Aggregate":
        """Assert every index was offered and return the final merge."""
        missing = [i for i in range(len(self._labels))
                   if i not in self._offered]
        if missing:
            raise ValueError(
                f"reducer finished with unmerged shard indices {missing[:5]}"
                f"{'…' if len(missing) > 5 else ''}")
        return self.aggregate


def aggregate_from_registry(registry) -> Aggregate:
    """Lift a :class:`repro.obs.registry.MetricsRegistry` into an Aggregate.

    Counters map to counts, gauge moments and histogram moments to
    moments, histogram bins to histograms — all under ``obs.`` so
    registry-derived metrics never collide with a scenario's own keys.
    Because the underlying primitives are shared
    (:mod:`repro.analysis.stats`), per-shard registries folded through
    this mapping merge byte-identically in the campaign runner.

    The import direction is deliberate: fleet (harness) depends on obs
    (sim), never the reverse.
    """
    agg = Aggregate()
    for name, counter in sorted(registry.counters.items()):
        agg.count(f"obs.{name}", counter.value)
    for name, gauge in sorted(registry.gauges.items()):
        agg.moment(f"obs.{name}").merge(gauge.moments)
    for name, hist in sorted(registry.histograms.items()):
        agg.moment(f"obs.{name}").merge(hist.moments)
        bins = hist.bins
        agg.histogram(f"obs.{name}", bins.hi,
                      len(bins.bins)).merge(bins)
    return agg


__all__: List[str] = [
    "StreamingMoments",
    "FixedBinHistogram",
    "Aggregate",
    "OrderedReducer",
    "aggregate_from_registry",
]
