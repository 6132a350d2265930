"""Unit tests for traffic classes, priorities and stream specs."""

import pytest

from repro.core import traffic
from repro.core.traffic import (
    MAR_BASELINE_STREAMS,
    Message,
    Priority,
    StreamSpec,
    TrafficClass,
    mar_baseline_streams,
)


class TestPrioritySemantics:
    def test_highest_never_discarded_nor_delayed(self):
        assert not Priority.HIGHEST.may_discard
        assert not Priority.HIGHEST.may_delay

    def test_medium1_delay_ok_discard_never(self):
        assert Priority.MEDIUM_NO_DISCARD.may_delay
        assert not Priority.MEDIUM_NO_DISCARD.may_discard

    def test_medium2_discard_ok_delay_never(self):
        assert Priority.MEDIUM_NO_DELAY.may_discard
        assert not Priority.MEDIUM_NO_DELAY.may_delay

    def test_lowest_both(self):
        assert Priority.LOWEST.may_discard
        assert Priority.LOWEST.may_delay

    def test_ordering(self):
        assert Priority.HIGHEST < Priority.MEDIUM_NO_DISCARD < Priority.LOWEST


class TestTrafficClass:
    def test_full_best_effort_never_retransmits(self):
        assert not TrafficClass.FULL_BEST_EFFORT.retransmits

    def test_loss_recovery_retransmits_unordered(self):
        assert TrafficClass.LOSS_RECOVERY.retransmits
        assert not TrafficClass.LOSS_RECOVERY.ordered

    def test_critical_is_ordered_and_reliable(self):
        assert TrafficClass.CRITICAL.retransmits
        assert TrafficClass.CRITICAL.ordered


class TestStreamSpec:
    def test_min_above_nominal_rejected(self):
        with pytest.raises(ValueError):
            StreamSpec(
                stream_id=0, name="x", traffic_class=TrafficClass.CRITICAL,
                priority=Priority.HIGHEST, nominal_rate_bps=1.0, min_rate_bps=2.0,
            )


class TestMessage:
    def test_expiry(self):
        m = Message(stream_id=0, seq=0, size=10, created_at=1.0, deadline=0.5)
        assert not m.expired(1.4)
        assert m.expired(1.6)


    # Construction contract of the hand-written __slots__ class.
    def test_positional_and_keyword_construction_agree(self):
        positional = Message(2, 7, 1200, 0.5, 0.075, True, False)
        keyword = Message(stream_id=2, seq=7, size=1200, created_at=0.5,
                          deadline=0.075, is_retransmit=True, fec_parity=False)
        assert positional == keyword
        assert (positional.stream_id, positional.seq, positional.size) == (2, 7, 1200)
        assert (positional.created_at, positional.deadline) == (0.5, 0.075)
        assert (positional.is_retransmit, positional.fec_parity) == (True, False)

    def test_built_the_way_arq_and_fec_build_it(self):
        # reliability.py: a retransmission copy and an XOR parity message.
        retransmit = Message(stream_id=2, seq=4, size=900, created_at=1.0,
                             deadline=0.075, is_retransmit=True)
        parity = Message(stream_id=2, seq=-1, size=900, created_at=1.0,
                         deadline=0.075, fec_parity=True)
        assert (retransmit.is_retransmit, retransmit.fec_parity) == (True, False)
        assert (parity.is_retransmit, parity.fec_parity) == (False, True)

    def test_defaults(self):
        m = Message(0, 0, 10, 0.0, 1.0)
        assert (m.is_retransmit, m.fec_parity) == (False, False)

    def test_equality_is_field_wise_and_unhashable(self):
        a = Message(0, 1, 10, 0.0, 1.0)
        assert a == Message(0, 1, 10, 0.0, 1.0)
        for field, other in [("stream_id", 9), ("seq", 9), ("size", 9),
                             ("created_at", 9.0), ("deadline", 9.0),
                             ("is_retransmit", True), ("fec_parity", True)]:
            b = Message(0, 1, 10, 0.0, 1.0)
            setattr(b, field, other)
            assert a != b
        assert a != (0, 1, 10, 0.0, 1.0, False, False)
        with pytest.raises(TypeError):
            hash(a)

    def test_repr_names_every_field(self):
        assert repr(Message(2, 7, 1200, 0.5, 0.075, fec_parity=True)) == (
            "Message(stream_id=2, seq=7, size=1200, created_at=0.5, "
            "deadline=0.075, is_retransmit=False, fec_parity=True)")

    def test_no_ad_hoc_attributes(self):
        m = Message(0, 0, 10, 0.0, 1.0)
        with pytest.raises(AttributeError):
            m.extra = 1
        assert not hasattr(m, "__dict__")

    def test_deepcopy_and_pickle_round_trip(self):
        # Checkpoints deepcopy backlogs; fleet workers pickle results.
        import copy
        import pickle

        m = Message(2, 7, 1200, 0.5, 0.075, True, False)
        for clone in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert clone == m and clone is not m


class TestBaselineStreams:
    def test_four_streams_of_figure4(self):
        names = [s.name for s in MAR_BASELINE_STREAMS]
        assert names == [
            "connection-metadata",
            "sensor-data",
            "video-reference-frames",
            "video-interframes",
        ]

    def test_metadata_is_critical_highest(self):
        meta = MAR_BASELINE_STREAMS[0]
        assert meta.traffic_class is TrafficClass.CRITICAL
        assert meta.priority is Priority.HIGHEST

    def test_interframes_are_droppable(self):
        inter = MAR_BASELINE_STREAMS[3]
        assert inter.priority is Priority.LOWEST
        assert inter.min_rate_bps == 0.0
        assert inter.adjustable

    def test_reference_frames_have_fec_and_recovery(self):
        ref = MAR_BASELINE_STREAMS[2]
        assert ref.traffic_class is TrafficClass.LOSS_RECOVERY
        assert ref.fec

    def test_custom_rates_propagate(self, monkeypatch):
        monkeypatch.setattr(traffic, "SENSOR_BPS", 1000.0)
        streams = mar_baseline_streams(video_nominal_bps=1e6)
        assert streams[3].nominal_rate_bps == 1e6
        assert streams[1].nominal_rate_bps == 1000.0

    def test_unique_ids(self):
        ids = [s.stream_id for s in MAR_BASELINE_STREAMS]
        assert len(set(ids)) == 4
