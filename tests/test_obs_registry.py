"""Tests for the per-Simulator metrics registry.

The property that matters for the fleet: per-shard registries lifted
into aggregates must merge **order-independently** — exact for counters
and histogram bins, up to float reassociation for the Welford moments —
because parallel campaign shards complete in nondeterministic order
while the merged report must stay byte-identical.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleet_helpers import approx_equal_moments
from repro.fleet.aggregate import Aggregate, aggregate_from_registry
from repro.obs.registry import MetricsRegistry

finite = st.floats(min_value=0.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)
chunks = st.lists(st.lists(finite, min_size=1, max_size=20),
                  min_size=1, max_size=6)


def fill(reg: MetricsRegistry, values) -> MetricsRegistry:
    for v in values:
        reg.counter("events").inc()
        reg.gauge("depth").set(v)
        reg.histogram("latency", 100.0, 50).observe(v)
    return reg


class TestPrimitives:
    def test_counter_inc_and_negative_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("frames")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_counter_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("y") is reg.gauge("y")
        assert reg.histogram("z") is reg.histogram("z")

    def test_gauge_tracks_moments(self):
        reg = MetricsRegistry()
        g = reg.gauge("queue.bytes")
        for v in (10.0, 30.0, 20.0):
            g.set(v)
        assert g.moments.mean == 20.0
        assert g.moments.count == 3
        assert g.moments.maximum == 30.0

    def test_histogram_percentiles_and_mean(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency", 1.0, 100)
        for i in range(100):
            h.observe(i / 100.0)
        assert h.moments.count == 100
        assert h.moments.mean == pytest.approx(0.495, abs=0.01)
        assert h.bins.percentile(50) == pytest.approx(0.5, abs=0.02)
        assert h.bins.percentile(95) == pytest.approx(0.95, abs=0.02)


class TestMergeOrderIndependence:
    @given(chunks)
    @settings(max_examples=50)
    def test_aggregate_lift_is_order_independent(self, parts):
        """Reversing the merge order of lifted registries changes nothing —
        exactly for counters and bins, up to float reassociation for
        moments (which is why the fleet merges shards in index order
        before serializing)."""
        def lift(ordered):
            agg = Aggregate()
            for part in ordered:
                agg.merge(aggregate_from_registry(
                    fill(MetricsRegistry(), part)))
            return agg

        forward, reverse = lift(parts), lift(list(reversed(parts)))
        assert forward.counts == reverse.counts
        assert forward.histograms["obs.latency"].bins == \
            reverse.histograms["obs.latency"].bins
        assert approx_equal_moments(forward.moments["obs.latency"],
                                    reverse.moments["obs.latency"])


class TestSerialization:
    def test_canonical_json_is_byte_stable(self):
        a = fill(MetricsRegistry(), [3.0, 1.0])
        b = fill(MetricsRegistry(), [3.0, 1.0])
        assert a.to_json() == b.to_json()

    def test_merged_registry_round_trips_through_aggregate(self):
        reg = fill(MetricsRegistry(), [5.0, 15.0, 25.0])
        agg = aggregate_from_registry(reg)
        assert agg.counts["obs.events"] == 3
        assert agg.histograms["obs.latency"].total == 3
        # Lifted histogram preserves binning, so percentiles agree.
        assert agg.histograms["obs.latency"].percentile(50) == \
            pytest.approx(reg.histogram("latency").bins.percentile(50))
