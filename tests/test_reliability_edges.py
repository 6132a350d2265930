"""Failure-edge tests for the reliability layer (Section VI-C).

Covers the corners the happy-path suite skips: ARQ retry exhaustion
under total loss, FEC groups where the parity cannot help, and NACK
storms during a loss burst.
"""

from repro.core.reliability import ArqBuffer, FecDecoder, FecEncoder
from repro.core.traffic import Message, Priority, StreamSpec, TrafficClass


def make_spec(traffic_class=TrafficClass.LOSS_RECOVERY, deadline=0.075):
    return StreamSpec(
        stream_id=1, name="test", traffic_class=traffic_class,
        priority=Priority.HIGHEST, nominal_rate_bps=1e6, deadline=deadline,
    )


def make_message(seq, created_at=0.0, deadline=10.0, size=1000):
    return Message(stream_id=1, seq=seq, size=size,
                   created_at=created_at, deadline=deadline)


class TestArqRetryExhaustion:
    def test_100_percent_loss_exhausts_retries_then_abandons(self):
        """Under total loss every retransmit is NACKed again; the buffer
        must give up after max_retries, not retry forever."""
        buf = ArqBuffer(make_spec())
        buf.store(make_message(0, deadline=100.0))   # deadline never binds

        sent = 0
        for round_ in range(10):
            out = buf.nack([0], now=0.1 * round_, rtt_estimate=0.02)
            sent += len(out)
        assert sent == 3                              # exactly max_retries
        assert buf.retransmissions == 3
        assert buf.abandoned == 1
        assert len(buf) == 0                          # fully drained
        # Further NACKs for the abandoned seq are no-ops.
        assert buf.nack([0], now=2.0, rtt_estimate=0.02) == []

    def test_critical_class_persists_through_long_outage(self):
        """CRITICAL 'should never be discarded': no deadline expiry, and
        the retry budget is floored at 16 even if configured lower."""
        buf = ArqBuffer(make_spec(TrafficClass.CRITICAL))
        buf.store(make_message(0, deadline=0.075))
        # Hours past the nominal deadline, it still retransmits.
        out = buf.nack([0], now=3600.0, rtt_estimate=0.5)
        assert len(out) == 1 and out[0].is_retransmit
        assert buf.expire(now=7200.0) == 0
        assert len(buf) == 1
        # ... but not unboundedly: the 16-retry floor eventually ends it.
        for i in range(30):
            buf.nack([0], now=3600.0 + i, rtt_estimate=0.5)
        assert buf.retransmissions == 16
        assert buf.abandoned == 1

    def test_deadline_beats_retry_budget(self):
        """A NACK arriving too late to land before the deadline abandons
        immediately, even with retries left."""
        buf = ArqBuffer(make_spec())
        buf.store(make_message(0, created_at=0.0, deadline=0.075))
        # now + rtt/2 > created + deadline -> dead on arrival.
        out = buf.nack([0], now=0.08, rtt_estimate=0.02)
        assert out == []
        assert buf.abandoned == 1 and buf.retransmissions == 0

    def test_expire_sweeps_only_dead_messages(self):
        buf = ArqBuffer(make_spec())
        buf.store(make_message(0, created_at=0.0, deadline=0.05))
        buf.store(make_message(1, created_at=0.0, deadline=5.0))
        assert buf.expire(now=1.0) == 1
        assert len(buf) == 1
        assert buf.nack([1], now=1.0, rtt_estimate=0.01)


class TestFecWholeGroupLoss:
    def test_entire_group_lost_is_unrecoverable(self):
        """Parity XOR can reconstruct exactly one loss; when the whole
        group vanished, parity alone must recover nothing."""
        dec = FecDecoder(group_size=4)
        assert dec.on_parity(0) == []                 # no data arrived at all
        assert dec.recovered == []

    def test_two_losses_in_group_unrecoverable(self):
        dec = FecDecoder(group_size=4)
        dec.on_data(0)
        dec.on_data(1)                                # 2 and 3 lost
        assert dec.on_parity(0) == []
        assert dec.recovered == []

    def test_single_loss_recovers_and_does_not_double_count(self):
        dec = FecDecoder(group_size=4)
        for seq in (0, 1, 3):
            dec.on_data(seq)
        assert dec.on_parity(0) == [2]
        # Replayed parity must not recover the same seq again.
        assert dec.on_parity(0) == []
        assert dec.recovered == [2]

    def test_parity_lost_data_complete_is_fine(self):
        dec = FecDecoder(group_size=4)
        for seq in range(4):
            dec.on_data(seq)
        # Parity never arrives; nothing to recover, nothing recovered.
        assert dec.recovered == []

    def test_encoder_emits_parity_every_group(self):
        enc = FecEncoder(group_size=4)
        parities = [p for i in range(12)
                    if (p := enc.push(make_message(i))) is not None]
        assert len(parities) == 3
        assert all(p.fec_parity and p.seq < 0 for p in parities)


class TestNackStorm:
    def test_storm_of_duplicate_nacks_is_rate_bounded(self):
        """A receiver re-NACKing the same hole every feedback interval
        during a loss burst must not amplify traffic beyond the retry
        budget."""
        buf = ArqBuffer(make_spec())
        for seq in range(50):
            buf.store(make_message(seq, deadline=100.0))
        total_retx = 0
        for round_ in range(40):                      # 40 feedback rounds
            out = buf.nack(list(range(50)), now=0.01 * round_, rtt_estimate=0.005)
            total_retx += len(out)
        # Bounded: 50 messages x 3 retries, not 50 x 40.
        assert total_retx == 150
        assert buf.retransmissions == 150
        assert buf.abandoned == 50
        assert len(buf) == 0

    def test_nacks_for_unknown_seqs_are_ignored(self):
        buf = ArqBuffer(make_spec())
        buf.store(make_message(5, deadline=100.0))
        out = buf.nack([1, 2, 3, 4, 99, 5], now=0.0, rtt_estimate=0.01)
        assert [m.seq for m in out] == [5]

    def test_ack_window_during_storm_clears_survivors(self):
        """Mixed signal mid-burst: highest=9 with NACKs {3,7} means the
        rest landed — only the holes stay buffered."""
        buf = ArqBuffer(make_spec())
        for seq in range(10):
            buf.store(make_message(seq, deadline=100.0))
        buf.ack_window(highest=9, nacks=[3, 7])
        assert len(buf) == 2
        out = buf.nack([3, 7], now=0.0, rtt_estimate=0.01)
        assert sorted(m.seq for m in out) == [3, 7]
