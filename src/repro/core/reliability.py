"""Selective loss recovery and forward error correction (Section VI-C).

The paper's arithmetic: at 30 FPS with a 75 ms budget, a retransmission
is only affordable when the RTT is under ~37.5 ms — so recovery must be
*selective* (only classes worth it) and *deadline-aware* (never
retransmit data that would arrive dead).  Where ARQ can't fit, the
alternatives are redundancy: XOR FEC groups or duplication over a
second path (handled by the scheduler).

- :class:`ArqBuffer` — sender-side store of retransmittable messages
  with NACK-driven, deadline-checked retransmission.
- :class:`FecEncoder` / :class:`FecDecoder` — one XOR parity message
  per group of ``k``: any single loss inside a group is recoverable
  without a round trip, at ``1/k`` bandwidth overhead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.traffic import Message, StreamSpec, TrafficClass

#: Retransmissions a non-critical message gets before it is abandoned.
MAX_RETRIES = 3


class ArqBuffer:
    """Sender-side retransmission buffer for one stream.

    Messages are retained until acknowledged or expired.  For the
    loss-recovery class a NACK triggers retransmission only when the
    message can still arrive before its deadline (``now + rtt_estimate
    <= created + deadline``) — late video is worthless.  For the
    CRITICAL class the deadline governs only in-time *accounting*:
    critical data "should never be discarded", so retransmission
    persists through arbitrarily long outages (bounded by 16
    retransmissions per message instead of ``MAX_RETRIES``).
    """

    def __init__(self, spec: StreamSpec) -> None:
        self.spec = spec
        self.max_retries = (
            MAX_RETRIES if spec.traffic_class is not TrafficClass.CRITICAL
            else max(MAX_RETRIES, 16)
        )
        self.enforce_deadline = spec.traffic_class is not TrafficClass.CRITICAL
        self._buffer: Dict[int, Message] = {}
        self._retries: Dict[int, int] = {}
        self.retransmissions = 0
        self.abandoned = 0

    def __len__(self) -> int:
        return len(self._buffer)

    def store(self, message: Message) -> None:
        self._buffer[message.seq] = message
        self._retries.setdefault(message.seq, 0)

    def ack_through(self, cumulative_seq: int) -> None:
        """Acknowledge everything at or below ``cumulative_seq``."""
        for seq in [s for s in self._buffer if s <= cumulative_seq]:
            del self._buffer[seq]
            self._retries.pop(seq, None)

    def ack_one(self, seq: int) -> None:
        self._buffer.pop(seq, None)
        self._retries.pop(seq, None)

    def ack_window(self, highest: int, nacks: List[int]) -> None:
        """Implicitly acknowledge everything at or below ``highest`` that
        the receiver did not NACK (it was received, just not
        contiguously)."""
        missing = set(nacks)
        for seq in [s for s in self._buffer if s <= highest and s not in missing]:
            self.ack_one(seq)

    def nack(self, seqs: List[int], now: float, rtt_estimate: float) -> List[Message]:
        """Messages to retransmit for the given NACKed sequence numbers."""
        out: List[Message] = []
        for seq in seqs:
            message = self._buffer.get(seq)
            if message is None:
                continue
            in_time = (not self.enforce_deadline
                       or now + rtt_estimate / 2 <= message.created_at + message.deadline)
            exhausted = self._retries[seq] >= self.max_retries
            if not in_time or exhausted:
                # Not worth it — "the protocol should ideally avoid
                # recovery from losses" that can't land in time.
                del self._buffer[seq]
                self._retries.pop(seq, None)
                self.abandoned += 1
                continue
            self._retries[seq] += 1
            self.retransmissions += 1
            out.append(
                Message(
                    stream_id=message.stream_id,
                    seq=message.seq,
                    size=message.size,
                    created_at=message.created_at,
                    deadline=message.deadline,
                    is_retransmit=True,
                )
            )
        return out

    def expire(self, now: float) -> int:
        """Drop expired messages; returns how many were abandoned.

        CRITICAL-class buffers never expire by deadline (acknowledgment
        is the only way out besides retry exhaustion)."""
        if not self.enforce_deadline:
            return 0
        dead = [s for s, m in self._buffer.items() if m.expired(now)]
        for seq in dead:
            del self._buffer[seq]
            self._retries.pop(seq, None)
        self.abandoned += len(dead)
        return len(dead)


class FecEncoder:
    """Groups a stream's messages and emits one XOR parity per group.

    The parity message's size is the max size in the group (XOR of
    padded payloads).
    """

    def __init__(self, group_size: int = 8) -> None:
        if group_size < 2:
            raise ValueError("group_size must be >= 2")
        self.group_size = group_size
        self._current: List[Message] = []
        self.parities_emitted = 0

    def push(self, message: Message) -> Optional[Message]:
        """Add a data message; returns a parity message on group close."""
        self._current.append(message)
        if len(self._current) < self.group_size:
            return None
        group = self._current
        self._current = []
        size = max(m.size for m in group)
        first = group[0]
        parity = Message(
            stream_id=first.stream_id,
            seq=-(self.parities_emitted + 1),   # parity space is negative
            size=size,
            created_at=group[-1].created_at,
            deadline=first.deadline,
            fec_parity=True,
        )
        self.parities_emitted += 1
        return parity


class FecDecoder:
    """Receiver-side XOR recovery: one missing message per group.

    Tracks which data sequences of each group arrived; when a group's
    parity is present and exactly one data message is missing, that
    message is declared recovered.
    """

    def __init__(self, group_size: int = 8) -> None:
        self.group_size = group_size
        self._groups: Dict[int, Set[int]] = {}
        self._parity_seen: Set[int] = set()
        self.recovered: List[int] = []

    def on_data(self, seq: int) -> None:
        self._groups.setdefault(seq // self.group_size, set()).add(seq)

    def on_parity(self, parity_index: int) -> List[int]:
        """Process parity #i (covering group i); returns recovered seqs."""
        self._parity_seen.add(parity_index)
        return self._try_recover(parity_index)

    def _try_recover(self, group: int) -> List[int]:
        got = self._groups.get(group, set())
        expected = set(range(group * self.group_size, (group + 1) * self.group_size))
        missing = expected - got
        if len(missing) == 1 and group in self._parity_seen:
            seq = missing.pop()
            got.add(seq)
            self.recovered.append(seq)
            return [seq]
        return []
