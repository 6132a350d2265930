"""Tests for statistics and report-rendering helpers."""

import math

import pytest

from repro.analysis.report import Figure, ascii_table, format_rate, format_time
from repro.analysis.stats import (jain_index, mean, percentile, stddev, summarize,
                                  timeseries_bins)


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        # Correctly rounded on every interpreter: a plain sum() below
        # CPython 3.12 loses the 1.0 and returns 0.0.
        assert mean([1e16, 1.0, -1e16]) == 1 / 3

    def test_mean_empty_nan(self):
        assert math.isnan(mean([]))

    def test_stddev_constant_zero(self):
        assert stddev([5.0, 5.0, 5.0]) == 0.0

    def test_stddev_sample(self):
        assert stddev([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == pytest.approx(2.138, abs=0.01)
        # Squared deviations 1, 1 and four of 2**-52: a plain sum()
        # below CPython 3.12 rounds each small one away.
        e = 2.0 ** -26
        assert stddev([1.0, -1.0, e, -e, e, -e]) == math.sqrt((2 + 2.0 ** -50) / 5)

    def test_jain_index(self):
        assert jain_index([3.0, 3.0, 3.0]) == 1.0
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == 0.25
        assert math.isnan(jain_index([]))
        # The total is 1 + 2**-52 exactly; a plain sum() below CPython
        # 3.12 drops both small shares.
        assert jain_index([1.0, 2.0 ** -53, 2.0 ** -53]) == (1 + 2.0 ** -52) ** 2 / 3

    def test_percentile_interpolates(self):
        data = [0.0, 10.0]
        assert percentile(data, 50) == 5.0

    def test_percentile_bounds(self):
        data = [1.0, 2.0, 3.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 3.0
        with pytest.raises(ValueError):
            percentile(data, 101)

    def test_summarize(self):
        s = summarize(list(range(101)))
        assert s.n == 101
        assert s.p50 == 50
        assert s.minimum == 0 and s.maximum == 100

    def test_summarize_empty(self):
        s = summarize([])
        assert s.n == 0
        assert math.isnan(s.mean)

    def test_timeseries_bins(self):
        samples = [(0.1, 1.0), (0.2, 3.0), (1.5, 10.0)]
        bins = timeseries_bins(samples, 1.0)
        assert bins == [(0.0, 2.0), (1.0, 10.0)]

    def test_timeseries_bins_validation(self):
        with pytest.raises(ValueError):
            timeseries_bins([], 0.0)


class TestFormatting:
    def test_format_rate_units(self):
        assert format_rate(1.5e9) == "1.50 Gb/s"
        assert format_rate(12e6) == "12.00 Mb/s"
        assert format_rate(2_000) == "2.00 Kb/s"
        assert format_rate(500) == "500 b/s"

    def test_format_time_units(self):
        assert format_time(1.5) == "1.50 s"
        assert format_time(0.0123) == "12.3 ms"
        assert format_time(2e-5) == "20 µs"

    def test_ascii_table_alignment(self):
        out = ascii_table(["name", "v"], [["a", 1], ["longer", 22]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert all(len(l) == len(lines[1]) for l in lines[3:])

    def test_ascii_table_empty_rows(self):
        out = ascii_table(["x"], [])
        assert "x" in out


class TestFigure:
    def test_render_contains_series_glyphs(self):
        fig = Figure("demo")
        fig.add_series("up", [(0, 0), (1, 1), (2, 2)])
        fig.add_series("down", [(0, 2), (1, 1), (2, 0)])
        out = fig.render()
        assert "demo" in out
        assert "*=up" in out and "o=down" in out
        assert "*" in out and "o" in out

    def test_render_empty(self):
        assert "(no data)" in Figure("empty").render()

    def test_render_flat_series(self):
        fig = Figure("flat")
        fig.add_series("s", [(0, 5.0), (1, 5.0)])
        out = fig.render()
        assert "*" in out


class TestLinkTable:
    def test_link_table_separates_queue_and_wire_drops(self):
        from repro.simnet.engine import Simulator
        from repro.simnet.link import Link
        from repro.simnet.packet import Packet
        from repro.simnet.queues import DropTailQueue

        class Sink:
            def __init__(self, name):
                self.name = name
            def add_interface(self, link):
                pass
            def receive(self, packet, via=None):
                pass

        sim = Simulator(seed=3)
        link = Link(sim, Sink("a"), Sink("b"), rate_bps=1e9, loss=0.3,
                    queue=DropTailQueue(capacity=10))
        for _ in range(50):
            link.send(Packet(src="a", dst="b", size=100))
        sim.run()
        # Queue drops never reach the wire; wire losses consumed airtime.
        assert link.queue_drops > 0 and link.packets_lost > 0
        assert (link.queue_drops + link.packets_lost
                + link.packets_delivered) == 50
        assert link.bytes_sent == 100 * (50 - link.queue_drops)
        assert link.bytes_lost == 100 * link.packets_lost

    def test_link_table_goodput_uses_delivered_bytes(self):
        from repro.simnet.engine import Simulator
        from repro.simnet.link import Link
        from repro.simnet.packet import Packet

        class Sink:
            def __init__(self, name):
                self.name = name
            def add_interface(self, link):
                pass
            def receive(self, packet, via=None):
                pass

        sim = Simulator()
        link = Link(sim, Sink("a"), Sink("b"), rate_bps=1e6)
        link.send(Packet(src="a", dst="b", size=12500))
        sim.run()
        assert link.bytes_delivered == 12500
        assert link.bytes_sent - link.bytes_delivered == link.bytes_lost == 0


class TestIterableInputs:
    """Summary helpers accept arbitrary iterables, not just sequences."""

    def test_mean_of_generator(self):
        assert mean(x for x in [1.0, 2.0, 3.0]) == 2.0

    def test_stddev_of_generator(self):
        assert stddev(x for x in [5.0, 5.0]) == 0.0

    def test_percentile_of_generator(self):
        assert percentile((x for x in [0.0, 10.0]), 50) == 5.0

    def test_summarize_generator(self):
        s = summarize(float(x) for x in range(11))
        assert s.n == 11 and s.p50 == 5.0

    def test_timeseries_bins_generator(self):
        bins = timeseries_bins(((t / 10, 1.0) for t in range(20)), 1.0)
        assert bins == [(0.0, 1.0), (1.0, 1.0)]


class TestTimeseriesBinsShardSummaries:
    """timeseries_bins reduces mergeable shard summaries by merging."""

    def test_moments_merge_per_bin(self):
        from repro.fleet.aggregate import StreamingMoments

        early = StreamingMoments().extend([1.0, 3.0])
        late_a = StreamingMoments().extend([10.0])
        late_b = StreamingMoments().extend([20.0, 30.0])
        bins = timeseries_bins(
            [(0.2, early), (1.1, late_a), (1.9, late_b)], 1.0)
        assert [t for t, _ in bins] == [0.0, 1.0]
        assert bins[0][1].count == 2 and bins[0][1].mean == 2.0
        assert bins[1][1].count == 3 and bins[1][1].mean == 20.0

    def test_inputs_not_mutated(self):
        from repro.fleet.aggregate import StreamingMoments

        a = StreamingMoments().extend([1.0])
        b = StreamingMoments().extend([2.0])
        timeseries_bins([(0.0, a), (0.5, b)], 1.0)
        assert a.count == 1 and b.count == 1
