"""Unit tests for ARQ and FEC loss recovery."""

import pytest

from repro.core import reliability
from repro.core.reliability import ArqBuffer, FecDecoder, FecEncoder
from repro.core.traffic import Message, Priority, StreamSpec, TrafficClass


def make_spec(deadline=0.5):
    return StreamSpec(
        stream_id=2, name="ref", traffic_class=TrafficClass.LOSS_RECOVERY,
        priority=Priority.HIGHEST, nominal_rate_bps=1e6, deadline=deadline,
    )


def msg(seq, created=0.0, deadline=0.5):
    return Message(stream_id=2, seq=seq, size=1000, created_at=created, deadline=deadline)


class TestArq:
    def test_nack_triggers_retransmit_within_deadline(self):
        arq = ArqBuffer(make_spec())
        arq.store(msg(0))
        out = arq.nack([0], now=0.1, rtt_estimate=0.05)
        assert len(out) == 1
        assert out[0].is_retransmit
        assert arq.retransmissions == 1

    def test_nack_past_deadline_abandons(self):
        arq = ArqBuffer(make_spec())
        arq.store(msg(0, created=0.0, deadline=0.1))
        out = arq.nack([0], now=0.2, rtt_estimate=0.05)
        assert out == []
        assert arq.abandoned == 1

    def test_rtt_too_large_to_make_deadline_abandons(self):
        arq = ArqBuffer(make_spec())
        arq.store(msg(0, created=0.0, deadline=0.1))
        # now=0.05 but half-RTT of 0.2 lands at 0.15 > 0.1 deadline
        out = arq.nack([0], now=0.05, rtt_estimate=0.4)
        assert out == []
        assert arq.abandoned == 1

    def test_max_retries_enforced(self, monkeypatch):
        monkeypatch.setattr(reliability, "MAX_RETRIES", 2)
        arq = ArqBuffer(make_spec(deadline=100.0))
        arq.store(msg(0, deadline=100.0))
        assert len(arq.nack([0], 0.1, 0.01)) == 1
        assert len(arq.nack([0], 0.2, 0.01)) == 1
        assert arq.nack([0], 0.3, 0.01) == []
        assert arq.abandoned == 1

    def test_cumulative_ack_clears_buffer(self):
        arq = ArqBuffer(make_spec())
        for i in range(5):
            arq.store(msg(i))
        arq.ack_through(2)
        assert len(arq) == 2
        assert arq.nack([0, 1, 2], 0.1, 0.01) == []

    def test_ack_one(self):
        arq = ArqBuffer(make_spec())
        arq.store(msg(0))
        arq.ack_one(0)
        assert len(arq) == 0

    def test_expire_drops_stale(self):
        arq = ArqBuffer(make_spec())
        arq.store(msg(0, created=0.0, deadline=0.1))
        arq.store(msg(1, created=1.0, deadline=0.5))
        dropped = arq.expire(now=0.5)
        assert dropped == 1
        assert len(arq) == 1

    def test_nack_unknown_seq_ignored(self):
        arq = ArqBuffer(make_spec())
        assert arq.nack([42], 0.0, 0.01) == []


class TestFecEncoder:
    def test_parity_emitted_every_group(self):
        enc = FecEncoder(group_size=4)
        parities = [enc.push(msg(i)) for i in range(8)]
        emitted = [p for p in parities if p is not None]
        assert len(emitted) == 2
        assert all(p.fec_parity for p in emitted)

    def test_parity_seq_space_negative(self):
        enc = FecEncoder(group_size=2)
        enc.push(msg(0))
        parity = enc.push(msg(1))
        assert parity.seq == -1
        enc.push(msg(2))
        parity2 = enc.push(msg(3))
        assert parity2.seq == -2

    def test_parity_size_is_group_max(self):
        enc = FecEncoder(group_size=2)
        enc.push(Message(stream_id=2, seq=0, size=500, created_at=0, deadline=1))
        parity = enc.push(Message(stream_id=2, seq=1, size=900, created_at=0, deadline=1))
        assert parity.size == 900

    def test_overhead_ratio(self):
        enc = FecEncoder(group_size=4)
        data = [msg(i) for i in range(8)]
        parities = [p for m in data if (p := enc.push(m)) is not None]
        overhead = sum(p.size for p in parities) / sum(m.size for m in data)
        assert overhead == pytest.approx(0.25)

    def test_group_size_validation(self):
        with pytest.raises(ValueError):
            FecEncoder(group_size=1)


class TestFecDecoder:
    def test_single_loss_recovered(self):
        dec = FecDecoder(group_size=4)
        for seq in (0, 1, 3):  # 2 missing
            dec.on_data(seq)
        recovered = dec.on_parity(0)
        assert recovered == [2]
        assert dec.recovered == [2]

    def test_double_loss_not_recoverable(self):
        dec = FecDecoder(group_size=4)
        dec.on_data(0)
        dec.on_data(1)  # 2 and 3 missing
        assert dec.on_parity(0) == []

    def test_no_loss_nothing_to_recover(self):
        dec = FecDecoder(group_size=2)
        dec.on_data(0)
        dec.on_data(1)
        assert dec.on_parity(0) == []

    def test_groups_independent(self):
        dec = FecDecoder(group_size=2)
        dec.on_data(0)             # group 0 missing seq 1
        dec.on_data(2)
        dec.on_data(3)             # group 1 complete
        assert dec.on_parity(1) == []
        assert dec.on_parity(0) == [1]


class TestFecEndToEnd:
    def test_encoder_decoder_round_trip_with_loss(self):
        enc = FecEncoder(group_size=4)
        dec = FecDecoder(group_size=4)
        lost = {5}
        parity_count = 0
        for i in range(12):
            parity = enc.push(msg(i))
            if i not in lost:
                dec.on_data(i)
            if parity is not None:
                dec.on_parity(parity_count)
                parity_count += 1
        assert dec.recovered == [5]
