"""Unit tests for the fault-injection subsystem (`repro.simnet.faults`).

The critical contract: every mutated link field is snapshotted when the
first fault lands and restored verbatim when the last fault expires —
the regression guard for the old `loss = 0.999999` style of blackout
that leaked jitter/rate mutations past its window.
"""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.faults import (
    FaultEvent, FaultInjector, FaultPlan, FaultPlanError, path_links,
)
from repro.simnet.network import Network


def two_host_net(seed=0):
    sim = Simulator(seed=seed)
    net = Network(sim)
    net.add_host("a")
    net.add_host("b")
    net.add_duplex("a", "b", 10e6, 10e6, delay=0.005, jitter=0.001)
    net.build_routes()
    return sim, net


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="x", start=-1, duration=1, links=("l",))
        with pytest.raises(ValueError):
            FaultEvent(kind="x", start=0, duration=0, links=("l",))
        with pytest.raises(ValueError):
            FaultEvent(kind="x", start=0, duration=1, links=("l",), loss=1.5)
        with pytest.raises(ValueError):
            FaultEvent(kind="x", start=0, duration=1, links=("l",), rate_factor=0)
        with pytest.raises(ValueError):
            FaultEvent(kind="x", start=0, duration=1)    # no targets

    def test_builders_and_plan(self):
        plan = (
            FaultPlan()
            .blackout(1.0, 2.0, ["l1"])
            .add(FaultEvent(kind="loss-burst", start=2.0, duration=1.0,
                            links=("l1",), loss=0.25))
            .server_crash(0.5, None, ["srv"])
        )
        assert len(plan) == 3
        assert plan.horizon == 3.0
        kinds = [e.kind for e in plan]            # iteration sorts by start
        assert kinds == ["server-crash", "blackout", "loss-burst"]

    def test_unknown_target_fails_fast(self):
        sim, net = two_host_net()
        injector = FaultInjector(net)
        with pytest.raises(KeyError):
            injector.schedule(FaultEvent.blackout(1.0, 1.0, ["nope"]))
        with pytest.raises(KeyError):
            injector.schedule(FaultEvent.server_crash(1.0, 1.0, ["nope"]))


class TestRestoreOnExpiry:
    def test_all_fields_snapshot_and_restore(self):
        """A fault touching loss, rate, delay AND jitter must restore
        every one of them — not just the field the fault 'was about'."""
        sim, net = two_host_net()
        link = net.path_links("a", "b")[0]
        before = (link.loss, link.rate_bps, link.delay, link.jitter)
        plan = FaultPlan().add(FaultEvent(
            kind="compound", start=1.0, duration=2.0, links=(link.name,),
            loss=0.5, rate_factor=0.25, extra_delay=0.1, extra_jitter=0.05,
        ))
        FaultInjector(net).apply(plan)

        sim.run(until=1.5)
        assert link.loss == pytest.approx(0.5)
        assert link.rate_bps == pytest.approx(2.5e6)
        assert link.delay == pytest.approx(0.105)
        assert link.jitter == pytest.approx(0.051)

        sim.run(until=3.5)
        assert (link.loss, link.rate_bps, link.delay, link.jitter) == before

    def test_blackout_does_not_leak_into_other_fields(self):
        sim, net = two_host_net()
        link = net.path_links("a", "b")[0]
        injector = FaultInjector(net)
        injector.apply(FaultPlan().blackout(0.5, 1.0, [link]))
        sim.run(until=1.0)
        assert link.loss == 1.0
        assert link.rate_bps == 10e6               # untouched mid-fault
        sim.run(until=2.0)
        assert link.loss == 0.0
        assert injector.activated == injector.expired == 1

    def test_overlapping_faults_compose_and_unwind(self):
        sim, net = two_host_net()
        link = net.path_links("a", "b")[0]
        links = (link.name,)
        plan = FaultPlan([
            FaultEvent(kind="loss-burst", start=1.0, duration=3.0,
                       links=links, loss=0.5),
            FaultEvent(kind="bandwidth-crush", start=2.0, duration=3.0,
                       links=links, rate_factor=0.1),
            FaultEvent(kind="loss-burst", start=2.0, duration=1.0,
                       links=links, loss=0.5),
        ])
        FaultInjector(net).apply(plan)
        sim.run(until=2.5)
        # Two independent 50% losses compose to 75%; rate crushed.
        assert link.loss == pytest.approx(0.75)
        assert link.rate_bps == pytest.approx(1e6)
        sim.run(until=3.5)                         # second burst expired
        assert link.loss == pytest.approx(0.5)
        assert link.rate_bps == pytest.approx(1e6)
        sim.run(until=4.5)                         # first burst expired
        assert link.loss == pytest.approx(0.0)
        assert link.rate_bps == pytest.approx(1e6)
        sim.run(until=5.5)                         # crush expired: base back
        assert link.loss == 0.0
        assert link.rate_bps == pytest.approx(10e6)

    def test_permanent_fault_never_restores(self):
        sim, net = two_host_net()
        link = net.path_links("a", "b")[0]
        injector = FaultInjector(net)
        injector.apply(FaultPlan().blackout(1.0, None, [link]))
        sim.run(until=100.0)
        assert link.loss == 1.0
        assert injector.expired == 0


class TestNodeFaults:
    def test_server_crash_drops_and_restart_restores(self):
        sim, net = two_host_net()
        got = []
        net["b"].default_handler = got.append
        from repro.simnet.flows import CBRSource
        CBRSource(net["a"], "b", 9999, rate_bps=1e5, packet_size=500)
        FaultInjector(net).apply(FaultPlan().server_crash(1.0, 1.0, ["b"]))
        sim.run(until=3.0)
        times = sorted(p.created_at for p in got)
        assert any(t < 1.0 for t in times)          # before crash
        assert not any(1.01 <= t <= 1.95 for t in times)   # silent while down
        assert any(t > 2.0 for t in times)          # after restart
        assert net["b"].packets_dropped_down > 0

    def test_crashed_node_does_not_send(self):
        sim, net = two_host_net()
        net["a"].down = True
        from repro.simnet.packet import Packet
        assert net["a"].send(Packet(src="a", dst="b", size=100)) is False
        assert net["a"].packets_dropped_down == 1

    def test_overlapping_crashes_refcount(self):
        sim, net = two_host_net()
        injector = FaultInjector(net)
        injector.apply(
            FaultPlan()
            .server_crash(1.0, 2.0, ["b"])
            .server_crash(2.0, 2.0, ["b"])
        )
        sim.run(until=2.5)
        assert net["b"].down is True
        sim.run(until=3.5)                          # first expired, second alive
        assert net["b"].down is True
        sim.run(until=4.5)
        assert net["b"].down is False


class TestEventConstruction:
    """Malformed events must fail at construction, not misfire mid-run."""

    def test_non_finite_times_rejected(self):
        nan, inf = float("nan"), float("inf")
        with pytest.raises(ValueError):
            FaultEvent(kind="x", start=nan, duration=1, links=("l",))
        with pytest.raises(ValueError):
            FaultEvent(kind="x", start=inf, duration=1, links=("l",))
        with pytest.raises(ValueError):
            FaultEvent(kind="x", start=0, duration=nan, links=("l",))
        with pytest.raises(ValueError):
            FaultEvent(kind="x", start=0, duration=inf, links=("l",))

    def test_negative_delay_and_jitter_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="x", start=0, duration=1, links=("l",),
                       extra_delay=-0.01)
        with pytest.raises(ValueError):
            FaultEvent(kind="x", start=0, duration=1, links=("l",),
                       extra_jitter=-0.01)
        with pytest.raises(ValueError):
            FaultEvent(kind="x", start=0, duration=1, links=("l",),
                       extra_delay=float("nan"))

    def test_roundtrips_through_dict(self):
        event = FaultEvent(kind="delay-spike", start=1.0, duration=2.0,
                           links=("l1", "l2"), extra_delay=0.2,
                           extra_jitter=0.05)
        assert FaultEvent.from_dict(event.to_dict()) == event
        plan = FaultPlan().blackout(1.0, 2.0, ["l1"]).server_crash(0.5, None, ["s"])
        rebuilt = FaultPlan.from_dict(plan.to_dict())
        assert rebuilt.events == plan.events


class TestPlanValidation:
    """``FaultPlan.validate()`` rejects doubled events; distinct overlaps
    stay legal because overlapping faults compose by design."""

    def test_same_object_twice_rejected(self):
        event = FaultEvent.blackout(1.0, 1.0, ["l1"])
        plan = FaultPlan([event, event])
        with pytest.raises(FaultPlanError):
            plan.validate()

    def test_equal_events_rejected(self):
        plan = FaultPlan([
            FaultEvent(kind="loss-burst", start=1.0, duration=1.0,
                       links=("l1",), loss=0.5),
            FaultEvent(kind="loss-burst", start=1.0, duration=1.0,
                       links=("l1",), loss=0.5),
        ])
        with pytest.raises(FaultPlanError):
            plan.validate()

    def test_distinct_overlapping_events_are_legal(self):
        plan = FaultPlan([
            FaultEvent(kind="loss-burst", start=1.0, duration=3.0,
                       links=("l1",), loss=0.5),
            FaultEvent(kind="loss-burst", start=2.0, duration=3.0,
                       links=("l1",), loss=0.5),
        ])
        plan.server_crash(1.0, 2.0, ["b"]).server_crash(2.0, 2.0, ["b"])
        assert plan.validate() is plan

    def test_apply_validates_by_default(self):
        sim, net = two_host_net()
        link = net.path_links("a", "b")[0]
        event = FaultEvent.blackout(1.0, 1.0, [link])
        plan = FaultPlan([event, event])
        with pytest.raises(FaultPlanError):
            FaultInjector(net).apply(plan)


class TestIntrospection:
    def test_path_links_helper_covers_both_directions(self):
        sim, net = two_host_net()
        links = path_links(net, "a", "b")
        names = {l.name for l in links}
        assert len(links) == 2
        assert any("down" in n for n in names) and any("up" in n for n in names)
