"""Property tests for the fleet's mergeable streaming statistics.

The core contract: ``merge(agg(A), agg(B))`` must equal ``agg(A + B)``
— exactly for counts, min/max and histogram bins; up to float
reassociation for the Welford mean/M2 accumulators.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleet_helpers import approx_equal_moments
from repro.fleet.aggregate import Aggregate, FixedBinHistogram, StreamingMoments

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
sample_lists = st.lists(finite, max_size=60)


class TestStreamingMoments:
    @given(sample_lists, sample_lists)
    @settings(max_examples=200)
    def test_merge_equals_onepass(self, a, b):
        merged = StreamingMoments().extend(a).merge(StreamingMoments().extend(b))
        onepass = StreamingMoments().extend(a + b)
        assert merged.count == onepass.count
        assert approx_equal_moments(merged, onepass, rel=1e-6, abs_tol=1e-6)

    @given(sample_lists)
    def test_merge_with_empty_is_identity(self, a):
        m = StreamingMoments().extend(a)
        before = m.to_dict()
        m.merge(StreamingMoments())
        assert m.to_dict() == before
        empty = StreamingMoments()
        empty.merge(StreamingMoments().extend(a))
        assert empty == StreamingMoments().extend(a)

    @given(sample_lists)
    def test_roundtrip(self, a):
        m = StreamingMoments().extend(a)
        assert StreamingMoments.from_dict(json.loads(json.dumps(m.to_dict()))) == m

    def test_mean_and_std(self):
        m = StreamingMoments().extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert m.mean == pytest.approx(5.0)
        assert m.std == pytest.approx(2.138, abs=0.01)
        assert m.minimum == 2.0 and m.maximum == 9.0

    def test_empty_stats(self):
        m = StreamingMoments()
        assert m.count == 0 and m.variance == 0.0
        assert "min" not in m.to_dict()


class TestFixedBinHistogram:
    @given(sample_lists, sample_lists)
    @settings(max_examples=200)
    def test_merge_equals_onepass_exactly(self, a, b):
        h1 = FixedBinHistogram(-1e6, 1e6, 50).extend(a)
        h2 = FixedBinHistogram(-1e6, 1e6, 50).extend(b)
        merged = h1.merge(h2)
        onepass = FixedBinHistogram(-1e6, 1e6, 50).extend(a + b)
        assert merged.to_dict() == onepass.to_dict()

    @given(sample_lists)
    def test_percentiles_monotone_and_in_range(self, a):
        h = FixedBinHistogram(-1e6, 1e6, 64).extend(a)
        if not a:
            assert math.isnan(h.percentile(50))
            return
        assert h.lo <= h.percentile(50) <= h.percentile(95) <= h.percentile(99) <= h.hi

    def test_percentile_accuracy_within_bin(self):
        h = FixedBinHistogram(0.0, 100.0, 100)
        h.extend(float(i) + 0.5 for i in range(100))
        assert h.percentile(50) == pytest.approx(50.0, abs=h.bin_width)
        assert h.percentile(95) == pytest.approx(95.0, abs=h.bin_width)
        assert h.percentile(99) == pytest.approx(99.0, abs=h.bin_width)

    def test_out_of_range_buckets(self):
        h = FixedBinHistogram(0.0, 1.0, 10)
        h.extend([-5.0, 0.5, 99.0])
        assert h.underflow == 1 and h.overflow == 1 and h.total == 3
        assert h.percentile(0) == h.lo
        assert h.percentile(100) == h.hi

    def test_incompatible_merge_rejected(self):
        with pytest.raises(ValueError):
            FixedBinHistogram(0, 1, 10).merge(FixedBinHistogram(0, 2, 10))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            FixedBinHistogram(1.0, 1.0, 10)
        with pytest.raises(ValueError):
            FixedBinHistogram(0.0, 1.0, 0)


def _ulps(x, k):
    """``x`` moved ``k`` representable floats up (``k`` < 0: down)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


#: Histogram shapes whose top edge rounds ``idx`` up to ``len(bins)`` for
#: the float just under ``hi`` (the clamp's reason to exist) and shapes
#: where it does not.
HISTOGRAM_SHAPES = [(-1.0, 1.0, 64), (-3.0, 0.3, 7), (-1e6, 1e6, 50),
                    (0.0, 2.0, 200), (0.1, 0.7, 3)]


class TestExtendEqualsRepeatedAdd:
    """``extend`` is its own loop (one frame per walk, not one per
    sample); ``add`` stays the single-sample API.  Neither calls the
    other, so their bit-equality is held here."""

    @given(sample_lists, sample_lists)
    @settings(max_examples=200)
    def test_moments(self, start, xs):
        added = StreamingMoments()
        for x in start + xs:
            added.add(x)
        extended = StreamingMoments()
        for x in start:                       # non-empty starting state
            extended.add(x)
        assert extended.extend(x for x in xs) is extended     # a generator
        assert extended.to_dict() == added.to_dict()

    def test_moments_of_nothing(self):
        assert StreamingMoments().extend(iter(())).to_dict() == \
            StreamingMoments().to_dict()

    @given(st.sampled_from(HISTOGRAM_SHAPES), sample_lists,
           st.lists(st.tuples(st.integers(0, 64), st.integers(-3, 3)),
                    max_size=30))
    @settings(max_examples=200)
    def test_histogram(self, shape, start, near_edges):
        lo, hi, n = shape
        width = (hi - lo) / n
        # In-range, underflow and overflow draws, then values within
        # 3 ulp of bin edges (``hi`` itself and its neighbours included).
        xs = [x * (hi - lo) / 1e6 for x in start]
        xs += [_ulps(lo + min(i, n) * width, k) for i, k in near_edges]
        xs += [hi, _ulps(hi, -1), _ulps(hi, 1), lo, _ulps(lo, -1)]
        added = FixedBinHistogram(lo, hi, n)
        for x in start + xs:
            added.add(x)
        extended = FixedBinHistogram(lo, hi, n)
        for x in start:
            extended.add(x)
        assert extended.extend(x for x in xs) is extended
        assert extended.to_dict() == added.to_dict()
        assert extended.total == len(start) + len(xs)

    @pytest.mark.parametrize("lo,hi,n", HISTOGRAM_SHAPES[:2])
    def test_top_edge_clamps_into_the_last_bin(self, lo, hi, n):
        x = _ulps(hi, -1)
        assert int((x - lo) / (hi - lo) * n) == n       # the rounding case
        h = FixedBinHistogram(lo, hi, n).extend([x])
        assert h.bins[-1] == 1 and h.overflow == 0
        assert FixedBinHistogram(lo, hi, n).extend([hi]).overflow == 1


def _fill(agg, latencies, tag_count):
    agg.count("sessions", tag_count)
    agg.moment("latency").extend(latencies)
    agg.histogram("latency", 10.0, 20).extend(latencies)
    return agg


class TestAggregate:
    @given(st.lists(st.floats(min_value=0, max_value=10, allow_nan=False),
                    max_size=30),
           st.lists(st.floats(min_value=0, max_value=10, allow_nan=False),
                    max_size=30))
    @settings(max_examples=100)
    def test_merge_equals_onepass(self, a, b):
        merged = _fill(Aggregate(), a, 1).merge(_fill(Aggregate(), b, 1))
        onepass = _fill(Aggregate(), a + b, 2)
        assert merged.counts == onepass.counts
        assert merged.histograms["latency"] == onepass.histograms["latency"]
        assert approx_equal_moments(merged.moments["latency"],
                                    onepass.moments["latency"],
                                    rel=1e-6, abs_tol=1e-6)

    def test_merge_is_keywise_union(self):
        a = Aggregate()
        a.count("only_a")
        a.moment("shared").add(1.0)
        b = Aggregate()
        b.count("only_b", 2)
        b.moment("shared").add(3.0)
        b.histogram("h", 1, 4).add(0.5)
        a.merge(b)
        assert a.counts == {"only_a": 1, "only_b": 2}
        assert a.moments["shared"].count == 2
        assert a.histograms["h"].total == 1

    def test_merge_does_not_alias_other_histogram(self):
        b = Aggregate()
        b.histogram("h", 1, 4).add(0.5)
        a = Aggregate()
        a.merge(b)
        a.histograms["h"].add(0.25)
        assert b.histograms["h"].total == 1  # b unchanged

    def test_canonical_json_roundtrip_byte_stable(self):
        a = _fill(Aggregate(), [0.1, 2.5, 9.9], 3)
        text = a.to_json()
        assert Aggregate.from_json(text).to_json() == text
        assert " " not in text  # canonical: no whitespace


class TestOrderedReducer:
    """The streaming merge front: arrival order must never change bytes."""

    def _aggs(self, rng_lists):
        return [_fill(Aggregate(), lats, 1) for lats in rng_lists]

    @given(st.lists(st.lists(st.floats(min_value=0, max_value=10,
                                       allow_nan=False), max_size=10),
                    min_size=1, max_size=12),
           st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_arrival_order_never_changes_merged_bytes(self, rng_lists, rnd):
        from repro.fleet.aggregate import OrderedReducer

        aggs = self._aggs(rng_lists)
        labels = [f"p{i % 3}" for i in range(len(aggs))]

        in_order = OrderedReducer(labels)
        for i, agg in enumerate(aggs):
            in_order.offer(i, Aggregate.from_json(agg.to_json()))

        order = list(range(len(aggs)))
        rnd.shuffle(order)
        shuffled = OrderedReducer(labels)
        for i in order:
            shuffled.offer(i, Aggregate.from_json(aggs[i].to_json()))

        assert shuffled.finish().to_json() == in_order.finish().to_json()
        assert list(shuffled.per_point) == list(in_order.per_point)
        for label in in_order.per_point:
            assert (shuffled.per_point[label].to_json()
                    == in_order.per_point[label].to_json())
        assert shuffled.pending == 0

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_skipped_indices_are_holes_not_merges(self, rnd):
        from repro.fleet.aggregate import OrderedReducer

        aggs = self._aggs([[1.0], [2.0], [3.0], [4.0]])
        skip = rnd.randrange(4)
        reducer = OrderedReducer(["p"] * 4)
        order = list(range(4))
        rnd.shuffle(order)
        for i in order:
            reducer.offer(i, None if i == skip else aggs[i])
        expected = Aggregate()
        for i in range(4):
            if i != skip:
                expected.merge(aggs[i])
        assert reducer.finish().to_json() == expected.to_json()

    def test_buffer_is_bounded_by_out_of_order_window(self):
        from repro.fleet.aggregate import OrderedReducer

        aggs = self._aggs([[float(i)] for i in range(6)])
        reducer = OrderedReducer(["p"] * 6)
        # worst case: index 0 arrives last -> everything buffers
        for i in (1, 2, 3, 4, 5):
            reducer.offer(i, aggs[i])
        assert reducer.pending == 5
        assert reducer.aggregate.to_json() == Aggregate().to_json()
        reducer.offer(0, aggs[0])
        assert reducer.pending == 0
        assert reducer.max_buffered == 6
        assert reducer.finish().counts == {"sessions": 6}

    def test_double_offer_rejected(self):
        from repro.fleet.aggregate import OrderedReducer

        reducer = OrderedReducer(["p", "p"])
        reducer.offer(0, Aggregate())
        with pytest.raises(ValueError):
            reducer.offer(0, Aggregate())
        with pytest.raises(IndexError):
            reducer.offer(7, Aggregate())

    def test_finish_flags_missing_indices(self):
        from repro.fleet.aggregate import OrderedReducer

        reducer = OrderedReducer(["p", "p", "p"])
        reducer.offer(0, Aggregate())
        with pytest.raises(ValueError):
            reducer.finish()
