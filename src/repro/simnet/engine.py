"""Discrete-event simulation engine.

A :class:`Simulator` owns a priority queue of timestamped events.  Every
other component (links, transports, applications) schedules callbacks on
it.  Events fire in non-decreasing time order; ties break in scheduling
order so runs are fully deterministic for a fixed seed.

Hot-path design notes
---------------------

The heap stores ``(time, seq, event)`` tuples so ``heapq`` compares
plain tuples in C instead of calling a Python ``__lt__`` per sift.
Cancellation is *lazy*: a cancelled event keeps its heap entry and is
skipped when popped, but the simulator counts dead entries and compacts
the heap (filter + heapify) once they exceed both ``COMPACT_MIN`` and
``COMPACT_RATIO`` of the heap — so long ``run(until=...)`` window loops
no longer accumulate cancelled timers (TCP/QUIC RTO re-arms, heartbeat
deadlines) across windows.  Compaction never reorders firings: pop
order is the total order ``(time, seq)`` regardless of the heap's
internal array layout.

Timers that move *later* (the overwhelmingly common RTO/PTO re-arm
pattern) should use :meth:`Simulator.reschedule`, which defers the
event in place: the existing heap entry stays where it is and is
re-pushed at the new deadline only when it surfaces.  A reschedule
allocates a fresh sequence number at call time — exactly what a
cancel+push would have done — so tie-breaking, and therefore the whole
run, is bit-identical to the naive implementation.

:meth:`Simulator.run` fires an unobserved event inline (no ``_fire``
frame) and reads one slot, ``_observed``, per event to decide.
Assigning ``trace_hook`` points that slot at the bound
:meth:`Simulator._fire`, the single definition of observed dispatch
that :meth:`~Simulator.fire_event` also uses.  Handlers always see a
current ``now`` / ``events_fired``, and an observer attached while
event *n* fires sees event *n + 1*.

Clock semantics of :meth:`Simulator.run` (both exit paths):

- **drain** (no events left): the clock rests at the last fired event,
  then advances to ``until`` if one was given;
- **until reached** (next event is later than ``until``): the clock
  advances to exactly ``until`` so back-to-back ``run(until=...)``
  calls behave like a continuous timeline.
"""

from __future__ import annotations

import copy
import heapq
import itertools
import random
from typing import Any, Callable, List, Optional, Tuple

# Event lifecycle states (int enum kept flat for hot-path speed).
_PENDING = 0
_CANCELLED = 1
_FIRED = 2

#: Process-wide default per-fire hook: every *new* Simulator seeds its
#: ``trace_hook`` from this.  Only harness code assigns it (the fleet
#: flight recorder installs its ring-buffer hook per worker process);
#: sim code never mutates it, and a hook only observes fired events, so
#: results stay a pure function of ``(scenario, seed)`` either way.
default_trace_hook: Optional[Callable[["Event"], None]] = None


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at` and can be cancelled with
    :meth:`cancel` (or :meth:`Simulator.cancel`).  A cancelled event
    stays in the heap but is skipped when popped; the owning simulator
    compacts the heap when too many dead entries accumulate.

    ``time``/``seq`` are the *effective* firing key.  The heap entry
    carries its own frozen ``(time, seq)`` copy; when the two disagree
    the event has been rescheduled and the entry is re-pushed at the
    new deadline instead of firing.
    """

    __slots__ = ("time", "seq", "fn", "args", "kwargs", "_sim", "_state")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: Optional[dict],
        sim: "Optional[Simulator]" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        # The zero-kwarg fast path stores None instead of materialising
        # (and retaining) an empty dict per event.
        self.kwargs = kwargs
        self._sim = sim
        self._state = _PENDING

    @property
    def cancelled(self) -> bool:
        return self._state == _CANCELLED

    @property
    def fired(self) -> bool:
        return self._state == _FIRED

    def cancel(self) -> None:
        """Mark this event so it will not fire.  Idempotent; a no-op on
        an event that already fired."""
        if self._state == _PENDING:
            self._state = _CANCELLED
            if self._sim is not None:
                self._sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = ("pending", "cancelled", "fired")[self._state]
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.6f} {name} {state}>"


class Checkpoint:
    """A frozen deep snapshot of a simulator and its attached model roots.

    This generalises the per-link snapshot machinery of
    :mod:`repro.simnet.faults` to the *whole world*: the simulator (its
    clock, heap, counters and RNG) is deep-copied **together** with the
    caller-supplied ``roots`` object in one :func:`copy.deepcopy` call,
    so every shared reference — events whose callbacks are bound methods
    of model objects, model objects holding the simulator — lands in one
    consistent copied object graph.

    :meth:`restore` materialises a live ``(sim, roots)`` pair from the
    frozen snapshot.  Each call yields an *independent* world, so one
    checkpoint supports arbitrarily many restores — the primitive the
    :mod:`repro.check` bounded explorer forks execution with.

    Caveat: deepcopy treats plain functions and lambdas as atomic, so a
    callback that *closes over* model state keeps pointing at the
    original objects across a restore.  Schedule bound methods (or
    callables on copyable objects) in any world that will be
    checkpointed; the stock simnet/transport/core components already do.
    """

    __slots__ = ("_frozen",)

    def __init__(self, sim: "Simulator", roots: Any = None) -> None:
        self._frozen: Tuple["Simulator", Any] = copy.deepcopy((sim, roots))

    def restore(self) -> Tuple["Simulator", Any]:
        """Return a live ``(sim, roots)`` copy of the frozen world."""
        return copy.deepcopy(self._frozen)


#: Never compact while fewer than this many cancelled entries sit in the
#: heap (compaction is O(n); tiny heaps are not worth it).
COMPACT_MIN = 64

#: Compact once cancelled entries exceed this fraction of the heap.
COMPACT_RATIO = 0.5


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned :class:`random.Random`.  All
        stochastic components in the reproduction draw from
        :attr:`rng` (or a child RNG derived from it) so a run is a pure
        function of its seed.
    """

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.seed = seed
        self.rng = random.Random(seed)
        self._rng_tags: set = set()  # every tag child_rng has issued
        self._heap: list = []  # entries: (time, seq, Event)
        self._seq = itertools.count()
        self._cancelled = 0    # cancelled entries still in the heap
        self.events_fired = 0
        self._trace_hook: Optional[Callable[[Event], None]] = None
        # The one slot run() reads per event: None while no hook is
        # attached, else the bound ``_fire``.  A bound method (not a
        # closure) so Checkpoint's deepcopy rebinds it to the copied
        # simulator.
        self._observed: Optional[Callable[[Event], None]] = None
        # Seeded from the module-level ``default_trace_hook`` so a
        # harness (the fleet flight recorder) can observe every
        # simulator a worker process creates without threading a
        # parameter through every scenario runner.
        self.trace_hook = default_trace_hook

    @property
    def trace_hook(self) -> Optional[Callable[[Event], None]]:
        """Optional per-fire hook ``hook(event)`` for trace capture."""
        return self._trace_hook

    @trace_hook.setter
    def trace_hook(self, hook: Optional[Callable[[Event], None]]) -> None:
        # Takes effect from the next fired event, also when assigned
        # from inside a handler: run() re-reads the slot per event.
        self._trace_hook = hook
        self._observed = None if hook is None else self._fire

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``fn(*args, **kwargs)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        time = self.now + delay
        seq = next(self._seq)
        event = Event(time, seq, fn, args, kwargs or None, self)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``fn(*args, **kwargs)`` at absolute simulation ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        seq = next(self._seq)
        event = Event(time, seq, fn, args, kwargs or None, self)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def reschedule(self, event: Event, delay: float) -> Event:
        """Move ``event`` to ``delay`` seconds from now; returns the
        (possibly new) event the caller must hold on to."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.reschedule_at(event, self.now + delay)

    def reschedule_at(self, event: Event, time: float) -> Event:
        """Move a timer to absolute ``time`` without churning the heap.

        The common re-arm pattern (RTO/PTO/heartbeat deadlines pushed
        *later*) is O(1): the event's effective key is updated in place
        and its existing heap entry is recycled when it surfaces.
        Moving a timer *earlier* — or rescheduling an event that
        already fired or was cancelled — falls back to a fresh entry.
        Exactly one sequence number is consumed either way, matching
        cancel+push semantics bit-for-bit.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        if event._state != _PENDING:
            # Fired or cancelled: start a fresh timer with the same callback.
            kw = event.kwargs
            if kw is None:
                return self.schedule_at(time, event.fn, *event.args)
            return self.schedule_at(time, event.fn, *event.args, **kw)
        seq = next(self._seq)
        if time >= event.time:
            # Defer in place: the stale heap entry re-pushes itself on pop.
            event.time = time
            event.seq = seq
            return event
        # Earlier deadline: the lazy entry sits too late in the heap —
        # retire it and push a replacement.
        event._state = _CANCELLED
        self._note_cancel()
        new = Event(time, seq, event.fn, event.args, event.kwargs, self)
        heapq.heappush(self._heap, (time, seq, new))
        return new

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event."""
        event.cancel()

    # ------------------------------------------------------------------
    # Heap maintenance
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        self._cancelled += 1
        if (self._cancelled >= COMPACT_MIN
                and self._cancelled >= COMPACT_RATIO * len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.  Firing order is
        unaffected: pops follow the total order ``(time, seq)``."""
        # In-place: run() holds a local reference to this list.
        self._heap[:] = [entry for entry in self._heap if entry[2]._state != _CANCELLED]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def _next_entry(self):
        """Surface the next live heap entry (skimming dead and deferred
        entries off the top), or None when the heap is drained."""
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            state = event._state
            if state == _CANCELLED:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            if event.seq != entry[1]:
                # Deferred by reschedule(): recycle the entry at the
                # event's effective deadline.
                heapq.heappop(heap)
                heapq.heappush(heap, (event.time, event.seq, event))
                continue
            return entry
        return None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _fire(self, event: Event) -> None:
        """Fire one event, feeding the attached hook.  The only
        definition of observed dispatch: fire_event() and an observed
        run() both come through here; run() inlines the plain
        case (the three bookkeeping statements and the call) and nothing
        else."""
        event._state = _FIRED
        self.now = event.time
        self.events_fired += 1
        hook = self._trace_hook
        if hook is not None:
            hook(event)
        fn = event.fn
        kw = event.kwargs
        if kw is None:
            fn(*event.args)
        else:
            fn(*event.args, **kw)

    def run(self, until: Optional[float] = None) -> int:
        """Run events until the heap drains or ``until`` is reached.
        Returns the number of events fired (cancelled entries that are
        popped and discarded do not count).

        See the module docstring for the exact clock semantics of each
        exit path.
        """
        fired = 0
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        while heap:
            time, seq, event = heap[0]
            state = event._state
            if state == _CANCELLED:
                heappop(heap)
                self._cancelled -= 1
                continue
            if event.seq != seq:
                heappop(heap)
                heappush(heap, (event.time, event.seq, event))
                continue
            if until is not None and time > until:
                break
            heappop(heap)
            observed = self._observed
            if observed is not None:
                observed(event)
            else:
                event._state = _FIRED
                self.now = time
                self.events_fired += 1
                kw = event.kwargs
                if kw is None:
                    event.fn(*event.args)
                else:
                    event.fn(*event.args, **kw)
            fired += 1
        if until is not None and until > self.now:
            self.now = until
        return fired

    # ------------------------------------------------------------------
    # Exploration hooks (repro.check)
    # ------------------------------------------------------------------
    def checkpoint(self, roots: Any = None) -> Checkpoint:
        """Deep-snapshot this simulator plus the given model roots.

        ``roots`` is any object (typically a dict or a harness "world")
        reachable alongside the simulator; it is copied in the same
        deepcopy pass so shared references stay consistent.  See
        :class:`Checkpoint`.
        """
        return Checkpoint(self, roots)

    def pending_ties(self) -> List[Event]:
        """All live events sharing the earliest deadline.

        These are exactly the candidates for the next event to fire:
        the engine always picks the lowest sequence number, but any
        permutation of same-timestamp events is a legal execution of the
        modelled system — the bounded explorer enumerates them via
        :meth:`fire_event`.  Sorted by ``(time, seq)``, so index 0 is
        the event the default engine order would fire.
        """
        head = self._next_entry()
        if head is None:
            return []
        t = head[0]
        ties = [
            event
            for (entry_time, _seq, event) in self._heap
            if entry_time == t and event._state == _PENDING and event.time == t
        ]
        ties.sort(key=lambda e: e.seq)
        return ties

    def fire_event(self, event: Event) -> None:
        """Fire a specific pending event *now* (explorer hook).

        The event must be due — its deadline may not precede other
        pending work only in the sense the caller guarantees by choosing
        from :meth:`pending_ties`; the engine enforces that the clock
        never runs backwards.  Its heap entry is removed eagerly (O(n),
        fine at explorer scale) so the normal pop path never sees a
        fired event.
        """
        if event._state != _PENDING:
            raise ValueError(f"cannot fire non-pending event {event!r}")
        if event.time < self.now:
            raise ValueError(
                f"cannot fire event in the past: {event.time} < {self.now}")
        heap = self._heap
        for i, entry in enumerate(heap):
            if entry[2] is event:
                del heap[i]
                break
        else:  # pragma: no cover - corrupted bookkeeping
            raise ValueError("event not owned by this simulator")
        heapq.heapify(heap)
        self._fire(event)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def heap_size(self) -> int:
        """Raw heap length, including lazily-cancelled entries."""
        return len(self._heap)

    def child_rng(self, tag: str) -> random.Random:
        """Derive a named, reproducible RNG for a subsystem.

        Using per-subsystem RNGs keeps component randomness independent
        of the order in which other components draw.  The child stream
        is a pure function of ``(seed, tag)``, so two components asking
        one simulator for the same tag would draw the same numbers:
        a repeated tag raises :class:`ValueError`.
        """
        tags = self._rng_tags
        if tag in tags:
            raise ValueError(
                f"child_rng tag {tag!r} already issued by this simulator: "
                "two components would draw one stream")
        tags.add(tag)
        return random.Random(f"{self.seed}:{tag}")
