"""Unit tests for the packet model."""

import pytest

from repro.simnet.packet import IP_TCP_HEADER, IP_UDP_HEADER, Packet


def test_positive_size_required():
    with pytest.raises(ValueError):
        Packet(src="a", dst="b", size=0)


def test_default_flow_label():
    p = Packet(src="a", dst="b", size=100, src_port=1, dst_port=2)
    assert p.flow == "a:1->b:2"


def test_explicit_flow_label_kept():
    p = Packet(src="a", dst="b", size=100, flow="video")
    assert p.flow == "video"


def test_bits_property():
    assert Packet(src="a", dst="b", size=125).bits == 1000


def test_age():
    p = Packet(src="a", dst="b", size=10, created_at=1.0)
    assert p.age(3.5) == pytest.approx(2.5)


def test_header_constants():
    assert IP_UDP_HEADER == 28
    assert IP_TCP_HEADER == 40


# ----------------------------------------------------------------------
# Construction contract of the hand-written __slots__ class
# ----------------------------------------------------------------------
def test_positional_and_keyword_construction_agree():
    positional = Packet("a", "b", 100, 1, 2, "ack", "f", {"k": 1}, 0.5)
    keyword = Packet(src="a", dst="b", size=100, src_port=1, dst_port=2, kind="ack",
                     flow="f", payload={"k": 1}, created_at=0.5)
    assert positional == keyword
    assert (positional.src, positional.dst, positional.size) == ("a", "b", 100)
    assert (positional.src_port, positional.dst_port) == (1, 2)
    assert (positional.kind, positional.flow, positional.payload) == ("ack", "f", {"k": 1})
    assert (positional.created_at, positional.enqueued_at) == (0.5, 0.0)


def test_defaults():
    p = Packet("a", "b", 10)
    assert (p.src_port, p.dst_port, p.kind) == (0, 0, "data")
    assert p.flow == "a:0->b:0"
    assert p.payload == {}
    assert (p.created_at, p.enqueued_at) == (0.0, 0.0)


def test_default_payload_is_not_shared():
    a = Packet("a", "b", 10)
    b = Packet("a", "b", 10)
    a.payload["k"] = 1
    assert b.payload == {}


def test_negative_size_rejected():
    with pytest.raises(ValueError, match="positive"):
        Packet("a", "b", -1)


def test_equality_is_field_wise():
    a = Packet("a", "b", 10, payload={"k": 1})
    assert a == Packet("a", "b", 10, payload={"k": 1})
    assert a != Packet("a", "b", 11, payload={"k": 1})
    assert a != Packet("a", "b", 10, payload={"k": 2})
    b = Packet("a", "b", 10, payload={"k": 1})
    b.enqueued_at = 0.5
    assert a != b
    assert a != "not a packet"
    with pytest.raises(TypeError):
        hash(a)


def test_no_ad_hoc_attributes():
    with pytest.raises(AttributeError):
        Packet("a", "b", 10).colour = "red"


def test_deepcopy_and_pickle_round_trip():
    import copy
    import pickle

    p = Packet("a", "b", 10, 1, 2, "ack", "f", {"k": [1]}, 0.5)
    p.enqueued_at = 0.7
    for clone in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert clone == p and clone is not p
        assert clone.enqueued_at == 0.7
        assert clone.payload is not p.payload
        assert clone.payload["k"] is not p.payload["k"]
