"""Property tests for core.resilience.CircuitBreaker (no simulator).

The repro.check breaker harness explores decision graphs on the event
engine; these tests attack the same invariants from the other side,
with hypothesis-generated operation sequences against a bare fake
clock.  The two overlap deliberately: a regression caught here pins the
bug to the breaker itself rather than the harness or engine.
"""

from hypothesis import given, settings, strategies as st

from repro.core.resilience import COOLDOWN_FACTOR, BreakerState, CircuitBreaker


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def make_breaker():
    clock = FakeClock()
    breaker = CircuitBreaker(
        clock=clock, failure_threshold=2,
        cooldown=0.2, cooldown_cap=0.8,
    )
    return clock, breaker


ops = st.lists(
    st.one_of(
        st.tuples(st.just("advance"),
                  st.floats(min_value=0.001, max_value=1.0,
                            allow_nan=False, allow_infinity=False)),
        st.tuples(st.just("attempt"), st.just(0.0)),
        st.tuples(st.just("success"), st.just(0.0)),
        st.tuples(st.just("failure"), st.just(0.0)),
        st.tuples(st.just("trip"), st.just(0.0)),
    ),
    max_size=80,
)


def check_structural_invariants(breaker):
    # Never wedged closed: at the failure threshold the breaker opens.
    if breaker.state is BreakerState.CLOSED:
        assert breaker.failures < breaker.failure_threshold
    # Adaptive cooldown stays within [base, cap].
    assert breaker.base_cooldown <= breaker._cooldown <= breaker.cooldown_cap
    # OPEN always knows when it opened.
    if breaker.state is BreakerState.OPEN:
        assert breaker._opened_at is not None
        assert breaker.cooldown_remaining <= breaker._cooldown
    else:
        assert breaker.cooldown_remaining == 0.0


@settings(max_examples=300, deadline=None)
@given(ops)
def test_no_sequence_reaches_an_illegal_configuration(sequence):
    clock, breaker = make_breaker()
    outstanding = 0
    for op, value in sequence:
        if op == "advance":
            clock.t += value
        elif op == "attempt":
            state_before = breaker.state
            # The spec's exact admission predicate — no epsilon: at the
            # float boundary where the summed clock lands ulps under
            # the cooldown, the correct answer is "deny".
            should_admit = (
                state_before is not BreakerState.OPEN
                or clock.t - breaker._opened_at >= breaker._cooldown
            )
            allowed = breaker.allow_request()
            if state_before is BreakerState.CLOSED:
                assert allowed, "wedged closed: CLOSED denied a request"
            elif state_before is BreakerState.OPEN:
                assert allowed == should_admit
                if allowed:
                    assert breaker.state is BreakerState.HALF_OPEN
            else:
                assert not allowed, "HALF_OPEN admitted a second probe"
            if allowed:
                outstanding += 1
        elif op == "success" and outstanding > 0:
            outstanding -= 1
            breaker.record_success()
            assert breaker.state is BreakerState.CLOSED
            assert breaker.failures == 0
        elif op == "failure" and outstanding > 0:
            outstanding -= 1
            breaker.record_failure()
        elif op == "trip":
            breaker.trip()
            assert breaker.state is BreakerState.OPEN
        check_structural_invariants(breaker)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.001, max_value=0.3,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=20))
def test_cooldown_elapse_always_readmits(waits):
    """However the wait is sliced, elapsed >= cooldown admits the probe."""
    clock, breaker = make_breaker()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    opened_at, cooldown = breaker._opened_at, breaker._cooldown
    for wait in waits:
        clock.t += wait
        allowed = breaker.allow_request()
        assert allowed == (clock.t - opened_at >= cooldown)
        if allowed:
            return
    # Never elapsed within the generated waits: force it and re-check.
    clock.t = opened_at + cooldown
    assert breaker.allow_request()


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=8))
def test_failed_probes_grow_cooldown_geometrically_to_cap(probe_failures):
    clock, breaker = make_breaker()
    breaker.record_failure()
    breaker.record_failure()
    expected = breaker.base_cooldown
    for _ in range(probe_failures):
        # Clear the boundary by a nanosecond: (t + cd) - t can land a
        # few ulps *under* cd in floats, where the spec answer is deny.
        clock.t = breaker._opened_at + breaker._cooldown + 1e-9
        assert breaker.allow_request()           # half-open probe
        breaker.record_failure()                 # probe fails, re-opens
        expected = min(breaker.cooldown_cap,
                       expected * COOLDOWN_FACTOR)
        assert breaker.state is BreakerState.OPEN
        assert breaker._cooldown == expected
    breaker.record_success()
    assert breaker._cooldown == breaker.base_cooldown
    assert breaker.state is BreakerState.CLOSED
