"""The shared transport kernel against the copies it replaced.

TCP's receive buffer, each QUIC stream and MPTCP's delivered-DSN set
used to carry their own reassembly code, each re-sorting or re-scanning
its whole buffer per segment.  The ``_Old*`` classes below are those
loops, kept verbatim as references: hypothesis drives the real
endpoints and the references with the same segment sequences (holes,
overlaps, duplicates, zero lengths, repeated offsets) and asserts the
same advances, the same ``on_data`` call sequence and the same buffer.
"""

from typing import Dict, List

from hypothesis import given, settings, strategies as st

from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.simnet.packet import Packet
from repro.transport import QuicStream
from repro.transport.base import Reassembly
from repro.transport.mptcp import _IntervalSet
from repro.transport.tcp import TcpConnection


class _OldTcpReceive:
    """``TcpConnection``'s receive path before the shared buffer."""

    def __init__(self) -> None:
        self.rcv_nxt = 0
        self._ooo: Dict[int, int] = {}
        self.calls: List[int] = []

    def on_segment(self, seq: int, length: int) -> None:
        if seq >= self.rcv_nxt:
            self._ooo[seq] = max(self._ooo.get(seq, 0), length)
            self._drain_in_order()

    def _drain_in_order(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for seq in sorted(self._ooo):
                length = self._ooo[seq]
                if seq <= self.rcv_nxt < seq + length or seq == self.rcv_nxt:
                    advance = seq + length - self.rcv_nxt
                    if advance > 0:
                        self.rcv_nxt = seq + length
                        self.calls.append(advance)
                    del self._ooo[seq]
                    progressed = True
                    break
                if seq + length <= self.rcv_nxt:
                    del self._ooo[seq]
                    progressed = True
                    break


class _OldQuicStream:
    """``QuicStream`` before the shared buffer."""

    def __init__(self) -> None:
        self.next_offset = 0
        self.segments: Dict[int, int] = {}
        self.delivered = 0

    def on_segment(self, offset: int, length: int) -> int:
        if offset + length <= self.next_offset:
            return 0
        self.segments[offset] = max(self.segments.get(offset, 0), length)
        newly = 0
        progressed = True
        while progressed:
            progressed = False
            for off in sorted(self.segments):
                seg_len = self.segments[off]
                if off <= self.next_offset < off + seg_len or off == self.next_offset:
                    advance = off + seg_len - self.next_offset
                    if advance > 0:
                        self.next_offset += advance
                        newly += advance
                    del self.segments[off]
                    progressed = True
                    break
                if off + seg_len <= self.next_offset:
                    del self.segments[off]
                    progressed = True
                    break
        self.delivered += newly
        return newly


class _OldIntervalSet:
    """MPTCP's ``_IntervalSet`` before bisection: a linear scan."""

    def __init__(self) -> None:
        self._spans: List[List[int]] = []
        self.total = 0

    def add(self, start: int, end: int) -> int:
        if end <= start:
            return 0
        spans = self._spans
        lo = 0
        while lo < len(spans) and spans[lo][1] < start:
            lo += 1
        hi = lo
        new_start, new_end = start, end
        overlap = 0
        while hi < len(spans) and spans[hi][0] <= end:
            overlap += min(spans[hi][1], end) - max(spans[hi][0], start)
            new_start = min(new_start, spans[hi][0])
            new_end = max(new_end, spans[hi][1])
            hi += 1
        spans[lo:hi] = [[new_start, new_end]]
        fresh = (end - start) - overlap
        self.total += fresh
        return fresh

    def contiguous_from_zero(self) -> int:
        if self._spans and self._spans[0][0] == 0:
            return self._spans[0][1]
        return 0


@st.composite
def segment_sequences(draw):
    """``(start, length)`` arrivals: part of a tiling of ``[0, 200)`` —
    the dropped tiles are holes — plus strays that overlap, repeat an
    offset or are empty, all in a random order."""
    cuts = sorted(draw(st.sets(st.integers(1, 199), max_size=24)))
    bounds = [0, *cuts, 200]
    tiles = [(a, b - a) for a, b in zip(bounds, bounds[1:])]
    keep = draw(st.lists(st.booleans(), min_size=len(tiles), max_size=len(tiles)))
    strays = draw(st.lists(st.tuples(st.integers(0, 220), st.integers(0, 40)),
                           max_size=24))
    chosen = [t for t, k in zip(tiles, keep) if k] + strays
    return draw(st.permutations(chosen + [tiles[0]] * draw(st.integers(0, 2))))


def _receiver() -> TcpConnection:
    sim = Simulator(seed=1)
    net = Network(sim)
    net.add_host("a")
    net.add_host("b")
    net.add_duplex("a", "b", 10e6, 10e6, delay=0.005)
    net.build_routes()
    return TcpConnection(net["b"], 80, "a", 5000)


@given(segment_sequences())
@settings(max_examples=200, deadline=None)
def test_tcp_receive_matches_the_old_drain(segments):
    conn = _receiver()
    calls: List[int] = []
    conn.on_data = calls.append
    old = _OldTcpReceive()
    for seq, length in segments:
        conn.on_packet(Packet("a", "b", length + 40, 5000, 80, "tcp-data", "",
                              {"seq": seq, "len": length}, 0.0))
        old.on_segment(seq, length)
        assert conn._rcv.next == old.rcv_nxt
    assert calls == old.calls
    assert conn.bytes_delivered == sum(old.calls)
    assert conn._rcv._held == old._ooo


@given(segment_sequences())
@settings(max_examples=200, deadline=None)
def test_quic_stream_matches_the_old_loop(segments):
    new, old = QuicStream(1), _OldQuicStream()
    for offset, length in segments:
        assert new.on_segment(offset, length) == old.on_segment(offset, length)
    assert new.delivered == old.delivered == new.segments.next
    assert new.segments._held == old.segments


@given(segment_sequences())
@settings(max_examples=200, deadline=None)
def test_interval_set_matches_the_linear_scan(segments):
    new, old = _IntervalSet(), _OldIntervalSet()
    for start, length in segments:
        # length - 5: some intervals arrive empty or reversed.
        end = start + length - 5
        assert new.add(start, end) == old.add(start, end)
        assert new.contiguous_from_zero() == old.contiguous_from_zero()
    assert new.total == old.total
    assert [list(s) for s in zip(new._starts, new._ends)] == old._spans


def test_reassembly_releases_one_advance_per_drained_segment():
    buf = Reassembly()
    assert buf.add(10, 5) == []
    assert buf.add(5, 5) == []
    assert buf.add(5, 3) == []           # shorter repeat: the longer stays
    assert buf.add(0, 7) == [7, 3, 5]    # 5..10 advances by 3 past 7
    assert buf.next == 15 and not buf._held
    assert buf.add(12, 2) == []          # at or below the point: no advance
    assert buf.add(15, 0) == [] and buf.next == 15

