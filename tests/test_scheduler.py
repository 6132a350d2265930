"""Unit tests for the multipath scheduler and its three policies."""

from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import MultipathPolicy, MultipathScheduler, PathState
from repro.core.traffic import (
    MAR_BASELINE_STREAMS,
    Message,
    Priority,
    StreamSpec,
    TrafficClass,
)


def wifi_lte():
    return [
        PathState(name="wifi", srtt=0.03, is_metered=False),
        PathState(name="lte", srtt=0.07, is_metered=True),
    ]


def spec(traffic_class=TrafficClass.FULL_BEST_EFFORT, priority=Priority.LOWEST,
         deadline=0.075):
    return StreamSpec(
        stream_id=1, name="s", traffic_class=traffic_class, priority=priority,
        nominal_rate_bps=1e6, deadline=deadline,
    )


def msg():
    return Message(stream_id=1, seq=0, size=1000, created_at=0.0, deadline=0.075)


def test_needs_at_least_one_path():
    with pytest.raises(ValueError):
        MultipathScheduler([], MultipathPolicy.AGGREGATE)


class TestWifiPreferred:
    def test_uses_wifi_when_available(self):
        sched = MultipathScheduler(wifi_lte(), MultipathPolicy.WIFI_PREFERRED)
        chosen = sched.select(spec(), msg())
        assert [p.name for p in chosen] == ["wifi"]

    def test_falls_back_to_lte_when_wifi_down(self):
        sched = MultipathScheduler(wifi_lte(), MultipathPolicy.WIFI_PREFERRED)
        sched.set_usable("wifi", False)
        chosen = sched.select(spec(), msg())
        assert [p.name for p in chosen] == ["lte"]

    def test_nothing_when_all_down(self):
        sched = MultipathScheduler(wifi_lte(), MultipathPolicy.WIFI_PREFERRED)
        sched.set_usable("wifi", False)
        sched.set_usable("lte", False)
        assert sched.select(spec(), msg()) == []


class TestWifiOnlyHandover:
    def test_wifi_when_up(self):
        sched = MultipathScheduler(wifi_lte(), MultipathPolicy.WIFI_ONLY_HANDOVER)
        assert [p.name for p in sched.select(spec(), msg())] == ["wifi"]

    def test_lte_bridges_gap(self):
        sched = MultipathScheduler(wifi_lte(), MultipathPolicy.WIFI_ONLY_HANDOVER)
        sched.set_usable("wifi", False)
        assert [p.name for p in sched.select(spec(), msg())] == ["lte"]


class TestAggregate:
    def test_latency_critical_takes_lowest_rtt(self):
        sched = MultipathScheduler(wifi_lte(), MultipathPolicy.AGGREGATE)
        critical = spec(priority=Priority.HIGHEST, deadline=0.05)
        chosen = sched.select(critical, msg())
        assert [p.name for p in chosen] == ["wifi"]

    def test_lowest_rtt_follows_observations(self):
        sched = MultipathScheduler(wifi_lte(), MultipathPolicy.AGGREGATE)
        for _ in range(60):
            sched.observe_rtt("wifi", 0.2)   # WiFi got congested
            sched.observe_rtt("lte", 0.03)
        critical = spec(priority=Priority.HIGHEST, deadline=0.05)
        assert [p.name for p in sched.select(critical, msg())] == ["lte"]

    def test_loss_recovery_duplicated_on_two_paths(self):
        sched = MultipathScheduler(wifi_lte(), MultipathPolicy.AGGREGATE)
        ref = spec(traffic_class=TrafficClass.LOSS_RECOVERY, priority=Priority.HIGHEST)
        chosen = sched.select(ref, msg())
        assert sorted(p.name for p in chosen) == ["lte", "wifi"]

    def test_bulk_load_balanced_over_both(self):
        sched = MultipathScheduler(wifi_lte(), MultipathPolicy.AGGREGATE)
        bulk = spec(priority=Priority.LOWEST, deadline=1.0)
        used = set()
        for _ in range(50):
            used.update(p.name for p in sched.select(bulk, msg()))
        assert used == {"wifi", "lte"}


class TestAccounting:
    def test_bytes_counted_per_path(self):
        sched = MultipathScheduler(wifi_lte(), MultipathPolicy.WIFI_PREFERRED)
        for _ in range(10):
            sched.select(spec(), msg())
        assert sched.paths["wifi"].bytes_sent == 10_000
        assert sched.paths["lte"].bytes_sent == 0

    def test_metered_fraction(self):
        sched = MultipathScheduler(wifi_lte(), MultipathPolicy.WIFI_PREFERRED)
        sched.select(spec(), msg())
        sched.set_usable("wifi", False)
        sched.select(spec(), msg())
        assert sched.metered_fraction() == pytest.approx(0.5)

    def test_metered_fraction_empty(self):
        sched = MultipathScheduler(wifi_lte(), MultipathPolicy.AGGREGATE)
        assert sched.metered_fraction() == 0.0

    def test_observe_rtt_smooths(self):
        path = PathState(name="x", srtt=0.1)
        path.observe_rtt(0.2)
        assert 0.1 < path.srtt < 0.2


# ----------------------------------------------------------------------
# Oracle: the per-message candidate rebuild the scheduler used to do
# ----------------------------------------------------------------------
class ReferenceScheduler:
    """``select`` as it was before the candidate list was cached in
    ``set_usable``: every message re-filters the paths, and the
    round-robin sorts its candidates by name.  Kept verbatim as the
    reference the cached scheduler is held against."""

    def __init__(self, paths: List[PathState], policy: MultipathPolicy) -> None:
        if not paths:
            raise ValueError("need at least one path")
        self.paths = {p.name: p for p in paths}
        self.policy = policy
        self.duplicate_loss_recovery = policy is MultipathPolicy.AGGREGATE
        self._rr_credit: Dict[str, float] = {}

    def _unmetered(self) -> List[PathState]:
        return [p for p in self.paths.values() if p.usable and not p.is_metered]

    def _metered(self) -> List[PathState]:
        return [p for p in self.paths.values() if p.usable and p.is_metered]

    def _usable(self) -> List[PathState]:
        return [p for p in self.paths.values() if p.usable]

    def set_usable(self, name: str, usable: bool) -> None:
        self.paths[name].usable = usable

    def observe_rtt(self, name: str, rtt: float) -> None:
        self.paths[name].observe_rtt(rtt)

    def select(self, spec: StreamSpec, message: Message) -> List[PathState]:
        candidates = self._candidates()
        if not candidates:
            return []

        latency_critical = spec.deadline <= 0.1 and spec.priority <= Priority.MEDIUM_NO_DISCARD
        if (
            self.duplicate_loss_recovery
            and spec.traffic_class is TrafficClass.LOSS_RECOVERY
            and len(candidates) > 1
        ):
            # Duplicate on the two best paths to avoid recovery RTTs.
            ranked = sorted(candidates, key=lambda p: p.srtt)
            chosen = ranked[:2]
        elif latency_critical:
            chosen = [min(candidates, key=lambda p: p.srtt)]
        else:
            chosen = [self._round_robin(candidates)]
        for path in chosen:
            path.bytes_sent += message.size
        return chosen

    def _candidates(self) -> List[PathState]:
        if self.policy is MultipathPolicy.AGGREGATE:
            return self._usable()
        unmetered = self._unmetered()
        if unmetered:
            return unmetered
        if self.policy in (MultipathPolicy.WIFI_PREFERRED, MultipathPolicy.WIFI_ONLY_HANDOVER):
            # Fall back to metered paths.  Under WIFI_ONLY_HANDOVER this
            # fallback exists only to bridge handover gaps; the caller
            # flips the WiFi path unusable during a gap and back after.
            return self._metered()
        return []

    def _round_robin(self, candidates: List[PathState]) -> PathState:
        # Smooth weighted round-robin (the nginx algorithm): every call
        # credits each candidate its weight, picks the highest credit,
        # then debits the picked path by the total weight.
        total = 0.0
        best: Optional[PathState] = None
        for path in sorted(candidates, key=lambda p: p.name):
            weight = max(path.weight, 1e-9)
            total += weight
            credit = self._rr_credit.get(path.name, 0.0) + weight
            self._rr_credit[path.name] = credit
            if best is None or credit > self._rr_credit[best.name]:
                best = path
        self._rr_credit[best.name] -= total
        return best


PATH_NAMES = ["wifi", "lte", "d2d"]
path_fields = st.tuples(
    st.sampled_from([0.01, 0.03, 0.03, 0.07, 0.1]),            # srtt (ties too)
    st.booleans(),                                             # usable at start
    st.booleans(),                                             # is_metered
    st.sampled_from([1.0, 0.1, 0.3, 0.7, 2.5, 0.0, 1e-12]),    # weight
)
steps = st.one_of(
    st.tuples(st.just("select"), st.integers(0, 3), st.integers(1, 1500)),
    st.tuples(st.just("usable"), st.integers(0, 2), st.booleans()),
    st.tuples(st.just("rtt"), st.integers(0, 2),
              st.sampled_from([0.005, 0.03, 0.2])),
)


def _replay(path_specs, policy, script):
    """Drive the scheduler and the reference through ``script``;
    yields both after every step, with what each ``select`` chose."""
    def build(cls):
        return cls(
            [PathState(name=name, srtt=srtt, usable=usable,
                       is_metered=metered, weight=weight)
             for name, (srtt, usable, metered, weight)
             in zip(PATH_NAMES, path_specs)],
            policy)

    new, ref = build(MultipathScheduler), build(ReferenceScheduler)
    names = list(new.paths)
    for op, index, arg in script:
        chosen = None
        if op == "select":
            spec = MAR_BASELINE_STREAMS[index]
            message = Message(spec.stream_id, 0, arg, 0.0, spec.deadline)
            chosen = tuple([p.name for p in sched.select(spec, message)]
                           for sched in (new, ref))
        else:
            name = names[index % len(names)]
            for sched in (new, ref):
                if op == "usable":
                    sched.set_usable(name, arg)
                else:
                    sched.observe_rtt(name, arg)
        yield new, ref, chosen


def _assert_in_step(new, ref, chosen):
    if chosen is not None:
        assert chosen[0] == chosen[1]
    assert ([(p.name, p.usable, p.bytes_sent, p.srtt) for p in new.paths.values()]
            == [(p.name, p.usable, p.bytes_sent, p.srtt) for p in ref.paths.values()])
    # repr, not ==: the credits must agree to the last bit.
    assert repr(new._rr_credit) == repr(ref._rr_credit)


class TestCachedCandidatesMatchPerMessageRebuild:
    @given(st.lists(path_fields, min_size=1, max_size=3),
           st.sampled_from(list(MultipathPolicy)),
           st.lists(steps, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_any_interleaving_of_set_usable_and_select(
            self, path_specs, policy, script):
        for new, ref, chosen in _replay(path_specs, policy, script):
            _assert_in_step(new, ref, chosen)

    @pytest.mark.parametrize("policy", list(MultipathPolicy))
    def test_lone_candidate_keeps_the_credit_round_trip(self, policy):
        # Two unmetered paths share the bulk stream, then one goes down
        # (E5/E8 flip paths mid-run): the survivor's credit c still goes
        # through (c + w) - w per message, which is not c in the last ulp.
        bulk, size = 3, 1200
        script = ([("select", bulk, size)] * 2 + [("usable", 1, False)]
                  + [("select", bulk, size)] * 5 + [("usable", 1, True)]
                  + [("select", bulk, size)] * 9)
        path_specs = [(0.03, True, False, 0.1), (0.07, True, False, 0.7)]
        credits = []
        for new, ref, chosen in _replay(path_specs, policy, script):
            _assert_in_step(new, ref, chosen)
            credits.append(new._rr_credit.get("wifi"))
        # The scenario does exercise the ulp: the first message "wifi"
        # carries alone moves its credit, though the round nets to zero
        # on paper.
        assert (credits[2], credits[3]) == (0.2, 0.20000000000000004)
