"""Typed metrics instruments on a per-``Simulator`` registry.

No process-wide state: a :class:`MetricsRegistry` belongs to one run
(conventionally one per ``Simulator``), so parallel fleet workers never
share instruments and two runs of the same ``(scenario, seed)`` build
identical registries.

Three instrument types, on the mergeable primitives of
:mod:`repro.analysis.stats`:

- :class:`Counter` — monotone integer.
- :class:`Gauge` — a sampled value, kept as a
  :class:`~repro.analysis.stats.StreamingMoments` accumulator of every
  write ("last written" is meaningless across merged shards).
- :class:`Histogram` — a fixed-bin
  :class:`~repro.analysis.stats.FixedBinHistogram` plus moments for
  mean/min/max.

Serialization (:meth:`MetricsRegistry.to_json`) is canonical — sorted
keys, no whitespace — the same discipline as
:meth:`repro.fleet.aggregate.Aggregate.to_json`.  A registry is never
merged as a registry: :func:`repro.fleet.aggregate.aggregate_from_registry`
lifts it into a fleet aggregate (counters add exactly, bins add
elementwise, moments merge), so campaign shards fold their metrics into
the campaign report byte-identically.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.analysis.stats import CANONICAL_JSON, FixedBinHistogram, StreamingMoments


class Counter:
    """A monotone integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> int:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n
        return self.value

    def to_dict(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A sampled value: the moments of every write."""

    __slots__ = ("name", "moments")

    def __init__(self, name: str) -> None:
        self.name = name
        self.moments = StreamingMoments()

    def set(self, value: float) -> None:
        self.moments.add(float(value))

    def to_dict(self) -> dict:
        return self.moments.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name} n={self.moments.count}>"


class Histogram:
    """Fixed-bin distribution plus streaming moments."""

    __slots__ = ("name", "bins", "moments")

    def __init__(self, name: str, hi: float, n_bins: int = 100) -> None:
        self.name = name
        self.bins = FixedBinHistogram(0.0, hi, n_bins)
        self.moments = StreamingMoments()

    def observe(self, value: float) -> None:
        self.bins.add(value)
        self.moments.add(value)

    def to_dict(self) -> dict:
        return {"bins": self.bins.to_dict(), "moments": self.moments.to_dict()}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Histogram {self.name} n={self.moments.count} "
                f"p50={self.bins.percentile(50):.4g}>")


class MetricsRegistry:
    """Get-or-create home for one run's instruments.

    Names are dotted paths by convention (``link.<name>.bytes_sent``,
    ``queue.<name>.packets``, ``frame.latency``); exports sort by name,
    so insertion order never leaks into artifacts.
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- instruments (get-or-create) -----------------------------------
    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, hi: float = 1.0,
                  n_bins: int = 100) -> Histogram:
        """The histogram ``name`` over ``[0, hi)``, created on first use."""
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name, hi, n_bins)
        return h

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "counters": {k: c.to_dict()
                         for k, c in sorted(self.counters.items())},
            "gauges": {k: g.to_dict() for k, g in sorted(self.gauges.items())},
            "histograms": {k: h.to_dict()
                           for k, h in sorted(self.histograms.items())},
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, no whitespace — byte-stable."""
        return json.dumps(self.to_dict(), **CANONICAL_JSON)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<MetricsRegistry counters={len(self.counters)} "
                f"gauges={len(self.gauges)} hists={len(self.histograms)}>")

