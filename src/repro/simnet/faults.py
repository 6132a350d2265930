"""Declarative fault injection for simulated networks (Section VI-B).

The paper's robustness guideline — "an AR application should ideally
function with degraded performance even if no network connectivity is
available" — needs failures to be first-class inputs, not ad-hoc
``link.loss`` pokes inside tests.  This module provides:

- :class:`FaultEvent` — one timed fault with explicit targets and
  severity (loss, rate factor, extra delay and jitter); the two shapes
  the scenarios use, link blackout and server crash/restart, have
  builder classmethods;
- :class:`FaultPlan` — an ordered collection of events;
- :class:`FaultInjector` — schedules a plan on the :class:`Simulator`,
  applies each event when it starts and restores the *complete* prior
  state when it expires.

State restoration is snapshot-based: the first fault touching a link
snapshots every mutable field (``loss``, ``rate_bps``, ``delay``,
``jitter``); the effective state while any fault is active is computed
by composing all active faults over that snapshot, and the last expiry
restores the snapshot verbatim.  This closes the latent bug class where
a blackout implemented as ``loss = 0.999999`` silently leaked a jitter
or rate mutation past its window.  Overlapping faults compose:

- loss probabilities combine independently
  (``1 - (1-base)·∏(1-loss_i)``),
- rate factors multiply,
- extra delay and jitter add.

Node faults (server crash) flip :attr:`Node.down`; a crashed node drops
everything delivered to it, so heartbeats and frames time out exactly as
they would against a dead edge server.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.simnet.link import Link
from repro.simnet.network import Network
from repro.simnet.node import Node

#: Blackouts set the composed loss to exactly 1.0: `Link` only validates
#: the constructor argument, and ``rng.random() < 1.0`` always drops.
BLACKOUT_LOSS = 1.0

LinkRef = Union[str, Link]
NodeRef = Union[str, Node]


class FaultPlanError(ValueError):
    """A fault plan that would silently misfire mid-run."""


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault.

    ``kind`` is informational (it names the builder that produced the
    event); behaviour is fully determined by the severity fields.  A
    ``duration`` of ``None`` means the fault never expires on its own
    (a permanent crash or a link cut that outlives the run).
    """

    kind: str
    start: float
    duration: Optional[float]
    links: Tuple[str, ...] = ()
    nodes: Tuple[str, ...] = ()
    #: extra independent drop probability while active (1.0 = blackout)
    loss: float = 0.0
    #: multiplier on the link's serialization rate (1.0 = untouched)
    rate_factor: float = 1.0
    #: additive propagation delay in seconds
    extra_delay: float = 0.0
    #: additive jitter in seconds (opens a reorder/late-delivery window)
    extra_jitter: float = 0.0

    def __post_init__(self) -> None:
        # Reject malformed events at construction: a NaN start would
        # pass a plain ``< 0`` test and then scramble the plan's sort
        # order, an infinite duration would schedule an expiry that
        # never fires, and a negative extra_delay could drive the
        # composed link delay negative — all of which previously
        # misfired silently mid-run instead of failing here.
        if not math.isfinite(self.start) or self.start < 0:
            raise ValueError("fault start must be finite and >= 0")
        if self.duration is not None and (
                not math.isfinite(self.duration) or self.duration <= 0):
            raise ValueError(
                "fault duration must be finite and positive (or None for "
                "a permanent fault)")
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError("loss must be in [0, 1]")
        if not math.isfinite(self.rate_factor) or self.rate_factor <= 0:
            raise ValueError("rate_factor must be finite and positive")
        if not math.isfinite(self.extra_delay) or self.extra_delay < 0:
            raise ValueError("extra_delay must be finite and >= 0")
        if not math.isfinite(self.extra_jitter) or self.extra_jitter < 0:
            raise ValueError("extra_jitter must be finite and >= 0")
        if not self.links and not self.nodes:
            raise ValueError("a fault needs at least one link or node target")

    @property
    def end(self) -> Optional[float]:
        return None if self.duration is None else self.start + self.duration

    # ------------------------------------------------------------------
    # Serialization (counterexample artifacts, repro.check)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "start": self.start,
            "duration": self.duration,
            "links": list(self.links),
            "nodes": list(self.nodes),
            "loss": self.loss,
            "rate_factor": self.rate_factor,
            "extra_delay": self.extra_delay,
            "extra_jitter": self.extra_jitter,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        return cls(
            kind=data["kind"],
            start=data["start"],
            duration=data["duration"],
            links=tuple(data.get("links", ())),
            nodes=tuple(data.get("nodes", ())),
            loss=data.get("loss", 0.0),
            rate_factor=data.get("rate_factor", 1.0),
            extra_delay=data.get("extra_delay", 0.0),
            extra_jitter=data.get("extra_jitter", 0.0),
        )

    # ------------------------------------------------------------------
    # Builders — the fault vocabulary of the robustness scenarios.
    # ------------------------------------------------------------------
    @staticmethod
    def _link_names(links: Iterable[LinkRef]) -> Tuple[str, ...]:
        return tuple(l if isinstance(l, str) else l.name for l in links)

    @staticmethod
    def _node_names(nodes: Iterable[NodeRef]) -> Tuple[str, ...]:
        return tuple(n if isinstance(n, str) else n.name for n in nodes)

    @classmethod
    def blackout(cls, start: float, duration: Optional[float],
                 links: Iterable[LinkRef]) -> "FaultEvent":
        """Total radio silence on the given links."""
        return cls(kind="blackout", start=start, duration=duration,
                   links=cls._link_names(links), loss=BLACKOUT_LOSS)

    @classmethod
    def server_crash(cls, start: float, duration: Optional[float],
                     nodes: Iterable[NodeRef]) -> "FaultEvent":
        """Edge-server churn: the node drops every delivered packet until
        restart (``duration`` elapses) — or forever when ``None``."""
        return cls(kind="server-crash", start=start, duration=duration,
                   nodes=cls._node_names(nodes))


@dataclass
class FaultPlan:
    """An ordered set of fault events plus builder sugar.

    Plans are plain data — build one anywhere, hand it to a
    :class:`FaultInjector`.  ``events`` need not be pre-sorted.
    """

    events: List[FaultEvent] = field(default_factory=list)

    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        return self

    def extend(self, events: Iterable[FaultEvent]) -> "FaultPlan":
        self.events.extend(events)
        return self

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(sorted(self.events, key=lambda e: e.start))

    @property
    def horizon(self) -> float:
        """Latest expiry across all bounded events."""
        ends = [e.end for e in self.events if e.end is not None]
        return max(ends) if ends else 0.0

    def validate(self) -> "FaultPlan":
        """Reject plans that would silently misfire mid-run.

        Raises :class:`FaultPlanError` when the plan contains the same
        event twice — either the identical object added twice or two
        equal events.  A doubled event activates twice, composing its
        severity with itself (two 50% loss bursts become 75%), and its
        two expiries race over one ``active`` list entry, so the plan's
        effect silently diverges from what was declared.

        *Distinct* overlapping events are legal by design: overlapping
        faults compose (loss independently, rate multiplicatively,
        delay/jitter additively) and overlapping crash windows refcount
        — see the module docstring.  Per-event shape problems
        (negative or non-finite times, zero-width windows, out-of-range
        severities) are rejected earlier, at :class:`FaultEvent`
        construction.

        Returns the plan itself so call sites can chain
        ``injector.apply(plan.validate())``.
        """
        problems: List[str] = []
        seen_ids: Dict[int, int] = {}
        for index, event in enumerate(self.events):
            if id(event) in seen_ids:
                problems.append(
                    f"event #{index} ({event.kind} @ {event.start}) is the "
                    f"same object as event #{seen_ids[id(event)]} — it would "
                    "activate twice and compose with itself")
            seen_ids[id(event)] = index
        for i, a in enumerate(self.events):
            for j in range(i + 1, len(self.events)):
                b = self.events[j]
                if a is not b and a == b:
                    problems.append(
                        f"events #{i} and #{j} are equal "
                        f"({a.kind} @ {a.start} on {a.links or a.nodes}) — "
                        "duplicate windows compose with themselves")
        if problems:
            raise FaultPlanError("; ".join(problems))
        return self

    # ------------------------------------------------------------------
    # Serialization (counterexample artifacts, repro.check)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(events=[FaultEvent.from_dict(e) for e in data.get("events", [])])

    # Convenience pass-throughs mirroring the FaultEvent builders.
    def blackout(self, start: float, duration: Optional[float],
                 links: Iterable[LinkRef]) -> "FaultPlan":
        return self.add(FaultEvent.blackout(start, duration, links))

    def server_crash(self, start: float, duration: Optional[float],
                     nodes: Iterable[NodeRef]) -> "FaultPlan":
        return self.add(FaultEvent.server_crash(start, duration, nodes))


@dataclass(frozen=True)
class _LinkSnapshot:
    """Every mutable field a fault may touch, captured before it does."""

    loss: float
    rate_bps: float
    delay: float
    jitter: float

    @classmethod
    def of(cls, link: Link) -> "_LinkSnapshot":
        return cls(loss=link.loss, rate_bps=link.rate_bps,
                   delay=link.delay, jitter=link.jitter)

    def restore(self, link: Link) -> None:
        link.loss = self.loss
        link.rate_bps = self.rate_bps
        link.delay = self.delay
        link.jitter = self.jitter


def path_links(net: Network, a: str, b: str) -> List[Link]:
    """Both directions of the current route between two nodes — the
    usual target set for access-side faults."""
    return net.path_links(a, b) + net.path_links(b, a)


class FaultInjector:
    """Applies a :class:`FaultPlan` to a network on its simulator.

    The injector keeps, per link, the pre-fault snapshot and the list of
    currently active events; the link's effective state is always
    ``compose(snapshot, active_events)``, and the snapshot is restored
    exactly when the last event on that link expires.  Per node it
    refcounts crash events so overlapping crash windows do not revive a
    server early.

    The injector also keeps a ``timeline`` of ``(time, event, phase)``
    records (phase is ``"start"`` or ``"end"``): the ground truth a
    replay or a determinism check compares against.
    """

    def __init__(self, net: Network) -> None:
        self.net = net
        self.sim = net.sim
        self._links_by_name: Dict[str, Link] = {l.name: l for l in net.links}
        self._snapshots: Dict[str, _LinkSnapshot] = {}
        self._active_on_link: Dict[str, List[FaultEvent]] = {}
        self._crash_refcount: Dict[str, int] = {}
        self.timeline: List[Tuple[float, FaultEvent, str]] = []
        self.activated = 0
        self.expired = 0

    # ------------------------------------------------------------------
    def apply(self, plan: FaultPlan) -> None:
        """Schedule every event of the plan.

        The plan is validated first (see :meth:`FaultPlan.validate`) so
        a doubled event fails loudly here instead of silently composing
        with itself mid-run.
        """
        plan.validate()
        for event in plan:
            self.schedule(event)

    def schedule(self, event: FaultEvent) -> None:
        self._resolve_targets(event)  # fail fast on unknown names
        self.sim.schedule_at(max(event.start, self.sim.now), self._activate, event)

    # ------------------------------------------------------------------
    def _resolve_targets(self, event: FaultEvent) -> Tuple[List[Link], List[Node]]:
        try:
            links = [self._links_by_name[name] for name in event.links]
        except KeyError as exc:
            raise KeyError(f"fault targets unknown link {exc.args[0]!r}") from None
        try:
            nodes = [self.net.nodes[name] for name in event.nodes]
        except KeyError as exc:
            raise KeyError(f"fault targets unknown node {exc.args[0]!r}") from None
        return links, nodes

    def _activate(self, event: FaultEvent) -> None:
        links, nodes = self._resolve_targets(event)
        for link in links:
            if link.name not in self._snapshots:
                self._snapshots[link.name] = _LinkSnapshot.of(link)
            self._active_on_link.setdefault(link.name, []).append(event)
            self._recompose(link)
        for node in nodes:
            self._crash_refcount[node.name] = self._crash_refcount.get(node.name, 0) + 1
            node.down = True
        self.activated += 1
        self.timeline.append((self.sim.now, event, "start"))
        if event.duration is not None:
            self.sim.schedule(event.duration, self._expire, event)

    def _expire(self, event: FaultEvent) -> None:
        links, nodes = self._resolve_targets(event)
        for link in links:
            active = self._active_on_link.get(link.name, [])
            if event in active:
                active.remove(event)
            if active:
                self._recompose(link)
            else:
                # Last fault on this link: restore *all* fields verbatim.
                self._snapshots.pop(link.name).restore(link)
                self._active_on_link.pop(link.name, None)
        for node in nodes:
            count = self._crash_refcount.get(node.name, 1) - 1
            if count <= 0:
                self._crash_refcount.pop(node.name, None)
                node.down = False
            else:
                self._crash_refcount[node.name] = count
        self.expired += 1
        self.timeline.append((self.sim.now, event, "end"))

    def _recompose(self, link: Link) -> None:
        base = self._snapshots[link.name]
        survive = 1.0 - base.loss
        rate = base.rate_bps
        delay = base.delay
        jitter = base.jitter
        for event in self._active_on_link[link.name]:
            survive *= 1.0 - event.loss
            rate *= event.rate_factor
            delay += event.extra_delay
            jitter += event.extra_jitter
        link.loss = 1.0 - survive
        link.rate_bps = max(rate, 1.0)
        link.delay = delay
        link.jitter = jitter
