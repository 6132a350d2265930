"""Integration tests for the assembled MARTP protocol."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import (
    FEEDBACK_SIZE,
    NACK_WINDOW,
    MartpReceiver,
    MartpSender,
    PathEndpoint,
)
from repro.core.scheduler import MultipathPolicy, PathState
from repro.core.traffic import Priority, StreamSpec, TrafficClass, mar_baseline_streams
from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.simnet.queues import DropTailQueue
from repro.transport.udp import UdpSocket


def single_path_pair(streams, up_bps=10e6, rtt=0.02, loss=0.0, seed=1,
                     policy=MultipathPolicy.WIFI_PREFERRED):
    sim = Simulator(seed=seed)
    net = Network(sim)
    net.add_host("client")
    net.add_host("server")
    net.add_duplex("server", "client", 50e6, up_bps, delay=rtt / 2, loss=loss,
                   queue_up=DropTailQueue(1000))
    net.build_routes()
    receiver = MartpReceiver(net["server"], 7000, streams)
    endpoint = PathEndpoint(
        state=PathState(name="wifi"),
        socket=UdpSocket(net["client"], 6000),
        dst="server",
        dst_port=7000,
    )
    sender = MartpSender([endpoint], streams, policy=policy)
    return sim, sender, receiver


def simple_stream(**kw):
    defaults = dict(
        stream_id=0, name="s0", traffic_class=TrafficClass.FULL_BEST_EFFORT,
        priority=Priority.HIGHEST, nominal_rate_bps=1e6, message_bytes=500,
        deadline=0.2,
    )
    defaults.update(kw)
    return StreamSpec(**defaults)


def test_messages_delivered_end_to_end():
    streams = [simple_stream()]
    sim, sender, receiver = single_path_pair(streams)
    sender.start()
    for i in range(20):
        sim.schedule(i * 0.01, sender.submit, 0, 500)
    sim.run(until=2.0)
    rx = receiver.stream_stats(0)
    assert rx.received == 20
    assert rx.in_time == 20


def test_latency_close_to_path_rtt_half():
    streams = [simple_stream()]
    sim, sender, receiver = single_path_pair(streams, rtt=0.04)
    sender.start()
    sim.schedule(0.1, sender.submit, 0, 500)
    sim.run(until=1.0)
    rx = receiver.stream_stats(0)
    assert rx.latencies[0] == pytest.approx(0.02, abs=0.005)


def test_feedback_drives_rtt_estimate():
    streams = [simple_stream()]
    sim, sender, receiver = single_path_pair(streams, rtt=0.05)
    sender.start()
    for i in range(100):
        sim.schedule(i * 0.02, sender.submit, 0, 500)
    sim.run(until=3.0)
    ctl = sender.controller
    assert ctl.srtt == pytest.approx(0.05, abs=0.02)


def test_no_delay_stream_drops_over_allocation():
    # MEDIUM_NO_DELAY: over-budget submissions are discarded, not queued.
    stream = simple_stream(priority=Priority.MEDIUM_NO_DELAY, nominal_rate_bps=100_000)
    sim, sender, receiver = single_path_pair([stream])
    sender.controllers["wifi"].budget_bps = 100_000
    sender.controllers["wifi"].max_bps = 100_000
    sender.allocation = sender.degradation.allocate(100_000)
    sender.start()
    # Offer 10x the allocation instantly.
    for i in range(100):
        sim.schedule(0.05, sender.submit, 0, 500)
    sim.run(until=1.0)
    tx = sender.stream_stats(0)
    assert tx.dropped > 0
    assert not tx.backlog


def test_no_discard_stream_queues_over_allocation():
    stream = simple_stream(priority=Priority.MEDIUM_NO_DISCARD,
                           nominal_rate_bps=200_000, deadline=5.0)
    sim, sender, receiver = single_path_pair([stream])
    sender.controllers["wifi"].budget_bps = 200_000
    sender.controllers["wifi"].max_bps = 200_000
    sender.start()
    for i in range(100):
        sim.schedule(0.05, sender.submit, 0, 500)
    sim.run(until=4.0)
    rx = receiver.stream_stats(0)
    tx = sender.stream_stats(0)
    # Everything eventually delivered (delayed, not dropped).
    assert tx.dropped == 0
    assert rx.received == 100


def test_highest_priority_bypasses_bucket():
    stream = simple_stream(priority=Priority.HIGHEST, nominal_rate_bps=1000.0)
    sim, sender, receiver = single_path_pair([stream])
    sender.start()
    for i in range(50):
        sim.schedule(0.01, sender.submit, 0, 500)
    sim.run(until=1.0)
    assert receiver.stream_stats(0).received == 50


def test_arq_recovers_losses_for_recovery_class():
    stream = simple_stream(
        traffic_class=TrafficClass.LOSS_RECOVERY, deadline=0.5,
        nominal_rate_bps=2e6,
    )
    sim, sender, receiver = single_path_pair([stream], loss=0.05, seed=4)
    sender.start()
    n = 300
    for i in range(n):
        sim.schedule(i * 0.005, sender.submit, 0, 500)
    sim.run(until=5.0)
    rx = receiver.stream_stats(0)
    tx = sender.stream_stats(0)
    assert tx.arq.retransmissions > 0
    assert rx.received >= n * 0.98  # nearly everything despite 5% loss


def test_best_effort_class_never_retransmits():
    stream = simple_stream(traffic_class=TrafficClass.FULL_BEST_EFFORT)
    sim, sender, receiver = single_path_pair([stream], loss=0.1, seed=2)
    sender.start()
    for i in range(200):
        sim.schedule(i * 0.005, sender.submit, 0, 500)
    sim.run(until=3.0)
    tx = sender.stream_stats(0)
    assert tx.arq is None
    rx = receiver.stream_stats(0)
    assert rx.received < 200  # losses stay lost


def test_fec_recovers_without_retransmission():
    stream = simple_stream(
        traffic_class=TrafficClass.FULL_BEST_EFFORT, fec=True, fec_group=4,
        nominal_rate_bps=2e6,
    )
    sim, sender, receiver = single_path_pair([stream], loss=0.03, seed=7)
    sender.start()
    for i in range(400):
        sim.schedule(i * 0.004, sender.submit, 0, 500)
    sim.run(until=4.0)
    rx = receiver.stream_stats(0)
    assert rx.recovered > 0


def test_critical_class_delivers_in_order():
    stream = simple_stream(
        traffic_class=TrafficClass.CRITICAL, deadline=5.0, nominal_rate_bps=1e6,
    )
    sim, sender, _ = single_path_pair([stream], loss=0.05, seed=9)
    # Ordered-delivery with an on_message hook is covered by
    # test_critical_in_order_delivery_hook below.
    sender.start()
    for i in range(100):
        sim.schedule(i * 0.01, sender.submit, 0, 500)
    sim.run(until=5.0)
    tx = sender.stream_stats(0)
    assert tx.arq is not None


def test_critical_in_order_delivery_hook():
    stream = simple_stream(
        traffic_class=TrafficClass.CRITICAL, deadline=5.0, nominal_rate_bps=1e6,
    )
    sim = Simulator(seed=9)
    net = Network(sim)
    net.add_host("client")
    net.add_host("server")
    net.add_duplex("server", "client", 50e6, 10e6, delay=0.01, loss=0.05,
                   queue_up=DropTailQueue(1000))
    net.build_routes()
    order = []
    MartpReceiver(net["server"], 7000, [stream],
                  on_message=lambda sid, seq, lat: order.append(seq))
    endpoint = PathEndpoint(
        state=PathState(name="wifi"), socket=UdpSocket(net["client"], 6000),
        dst="server", dst_port=7000,
    )
    sender = MartpSender([endpoint], [stream])
    sender.start()
    for i in range(150):
        sim.schedule(i * 0.01, sender.submit, 0, 400)
    sim.run(until=10.0)
    assert order == sorted(order)
    assert len(order) >= 148  # ARQ recovered nearly all


def test_budget_shrinks_under_congestion():
    streams = mar_baseline_streams(video_nominal_bps=20e6)
    sim, sender, receiver = single_path_pair(streams, up_bps=2e6, seed=3)
    sender.start()
    sender.attach_rate_driver(1)
    sender.attach_rate_driver(3)
    sim.run(until=10.0)
    # The budget cannot stay near 20 Mb/s over a 2 Mb/s link.
    assert sender.budget_bps < 8e6
    assert sender.congestion_events > 0


def test_allocation_trace_grows():
    streams = [simple_stream()]
    sim, sender, receiver = single_path_pair(streams)
    sender.start()
    for i in range(50):
        sim.schedule(i * 0.02, sender.submit, 0, 500)
    sim.run(until=2.0)
    assert len(sender.allocation_trace) > 5
    assert len(sender.offered_rate_trace()) == len(sender.allocation_trace)


def test_unknown_stream_rejected():
    streams = [simple_stream()]
    sim, sender, receiver = single_path_pair(streams)
    with pytest.raises(KeyError):
        sender.submit(42, 100)
    with pytest.raises(KeyError):
        sender.attach_rate_driver(42)


def test_controller_property_single_path_only():
    streams = [simple_stream()]
    sim, sender, receiver = single_path_pair(streams)
    assert sender.controller is sender.controllers["wifi"]


def test_stale_duplicate_below_prune_floor_not_redelivered():
    """``received_seqs`` is pruned below the NACK window; a duplicate
    older than the prune floor must still be deduped, not handed to the
    application a second time (repro.check regression)."""
    from repro.simnet.packet import Packet

    streams = [simple_stream()]
    sim, sender, receiver = single_path_pair(streams)
    delivered = []
    receiver.on_message = lambda stream, seq, latency: delivered.append(seq)

    def data_packet(seq):
        return Packet(
            src="client", dst="server", src_port=6000, dst_port=7000,
            size=528, kind="martp-data", flow="martp:s0",
            payload={
                "stream": 0, "seq": seq, "created": sim.now,
                "msg_deadline": 0.2, "parity": False, "retransmit": False,
                "ts": sim.now, "path": "wifi",
            },
            created_at=sim.now,
        )

    # Enough contiguous receipt to exceed the 4*NACK_WINDOW prune trigger.
    for seq in range(600):
        receiver._on_packet(data_packet(seq))
    receiver._send_feedback()                  # prunes received_seqs
    rx = receiver.stream_stats(0)
    assert rx.prune_floor > 5                  # seq 5 is below the floor
    assert 5 not in rx.received_seqs

    before = list(delivered)
    receiver._on_packet(data_packet(5))        # stale straggler
    assert delivered == before                 # no second delivery
    assert rx.duplicates == 1
    assert rx.received == 600                  # not re-counted as fresh


# ----------------------------------------------------------------------
# Oracle: the NACK scan over the whole window
# ----------------------------------------------------------------------
class WholeWindowReceiver(MartpReceiver):
    """``_send_feedback`` as it was when ``missing`` was scanned from the
    bottom of the NACK window whatever ``cum_ack`` said — kept verbatim
    as the reference for the scan that starts at ``cum_ack + 1``."""

    def _send_feedback(self) -> None:
        self._feedback_event = None
        streams_info = {}
        expected = 0
        confirmed_lost = 0
        for stream_id, rx in self._rx.items():
            missing = {
                s
                for s in range(max(0, rx.highest - NACK_WINDOW), rx.highest + 1)
                if s not in rx.received_seqs
            }
            streams_info[stream_id] = {
                "cum_ack": rx.cum_ack,
                "nacks": sorted(missing)[:32],
                "received": rx.received,
                "highest": rx.highest,
            }
            confirmed = (rx.prev_missing & missing) - rx.counted_lost
            confirmed_lost += len(confirmed)
            rx.counted_lost |= confirmed
            rx.prev_missing = missing
            floor = rx.highest - 2 * NACK_WINDOW
            if floor > 0 and len(rx.counted_lost) > 4 * NACK_WINDOW:
                rx.counted_lost = {s for s in rx.counted_lost if s >= floor}
            expected += max(0, rx.highest - rx.fb_highest)
            rx.fb_highest = rx.highest
            rx.fb_received = rx.received
            floor = rx.highest - 2 * NACK_WINDOW
            if floor > 0 and len(rx.received_seqs) > 4 * NACK_WINDOW:
                rx.received_seqs = {s for s in rx.received_seqs if s >= floor}
                rx.prune_floor = max(rx.prune_floor, floor)
        loss_fraction = min(1.0, confirmed_lost / expected) if expected > 0 else 0.0
        for path, (ts, arrived, src, src_port) in list(self._last_packet_by_path.items()):
            hold = self.sim.now - arrived
            self.socket.sendto(
                src,
                src_port,
                FEEDBACK_SIZE,
                kind="martp-feedback",
                streams=streams_info,
                loss_fraction=loss_fraction,
                echo_ts=ts,
                hold=hold,
                path=path,
            )
        self._last_packet_by_path.clear()


#: One arrival-sequence step on stream 0 or 1: a run of fresh sequence
#: numbers losing every k-th, a burst loss, a lost packet turning up
#: late (reordering), a duplicate from up to 600 back (under any prune
#: floor), or a feedback round.
arrival_steps = st.one_of(
    st.tuples(st.just("run"), st.integers(0, 1), st.integers(1, 300),
              st.sampled_from([0, 2, 3, 7])),
    st.tuples(st.just("jump"), st.integers(0, 1), st.integers(1, 400), st.just(0)),
    st.tuples(st.just("late"), st.integers(0, 1), st.integers(0, 1000), st.just(0)),
    st.tuples(st.just("dup"), st.integers(0, 1), st.integers(0, 600), st.just(0)),
    st.tuples(st.just("feedback"), st.just(0), st.just(0), st.just(0)),
)


@given(st.lists(arrival_steps, max_size=40))
@settings(max_examples=150, deadline=None)
def test_nack_scan_from_cum_ack_matches_whole_window_scan(script):
    from repro.simnet.packet import Packet

    streams = [
        simple_stream(stream_id=0, name="s0"),
        simple_stream(stream_id=1, name="s1",
                      traffic_class=TrafficClass.LOSS_RECOVERY),
    ]
    sim = Simulator(seed=1)
    net = Network(sim)
    net.add_host("server")
    sent = {}
    receivers = {}
    for port, cls in ((7000, MartpReceiver), (7001, WholeWindowReceiver)):
        receiver = receivers[cls] = cls(net["server"], port, streams)
        sent[cls] = []
        receiver.socket.sendto = (
            lambda *args, _log=sent[cls], **payload: _log.append((args, payload)))

    def arrive(stream, seq):
        for receiver in receivers.values():
            receiver._on_packet(Packet(
                "client", "server", 528, 6000, receiver.socket.port,
                "martp-data", "martp:s", {
                    "stream": stream, "seq": seq, "created": 0.0,
                    "msg_deadline": 0.2, "parity": False, "retransmit": False,
                    "ts": 0.0, "path": "wifi",
                }))

    next_seq = [0, 0]
    lost = [[], []]
    for op, stream, n, every in script + [("feedback", 0, 0, 0)] * 2:
        if op == "run":
            for i in range(n):
                seq = next_seq[stream]
                next_seq[stream] += 1
                if every and i % every == 0:
                    lost[stream].append(seq)
                else:
                    arrive(stream, seq)
        elif op == "jump":
            lost[stream].extend(range(next_seq[stream], next_seq[stream] + n))
            next_seq[stream] += n
        elif op == "late" and lost[stream]:
            arrive(stream, lost[stream].pop(n % len(lost[stream])))
        elif op == "dup" and next_seq[stream]:
            arrive(stream, max(0, next_seq[stream] - 1 - n))
        elif op == "feedback":
            for receiver in receivers.values():
                receiver._send_feedback()
            new, ref = (receivers[cls] for cls in (MartpReceiver, WholeWindowReceiver))
            # nacks and loss_fraction as they went on the wire ...
            assert sent[MartpReceiver] == sent[WholeWindowReceiver]
            # ... and what the next round's loss confirmation starts from.
            for stream_id in (0, 1):
                a, b = new.stream_stats(stream_id), ref.stream_stats(stream_id)
                assert a.prev_missing == b.prev_missing
                assert a.counted_lost == b.counted_lost
                assert a.received_seqs == b.received_seqs
                assert (a.cum_ack, a.highest, a.prune_floor, a.duplicates) == \
                    (b.cum_ack, b.highest, b.prune_floor, b.duplicates)
