"""Coupling between the fluid background tier and the event engine.

Three mechanisms connect :mod:`repro.scale.population` to the existing
event-level machinery, all deterministic pure functions of
``(scenario, seed)``:

**Pressure** — a foreground :class:`~repro.core.session.OffloadSession`
runs with a :class:`BackgroundPressure` driver attached: at every fluid
sample boundary inside the session window, the access links' rate and
loss are re-derived from the cell's utilization via the shared
:func:`repro.wireless.profiles.load_factors` hook.  The background
population never exchanges packets with the foreground — it presses on
the foreground through link parameters only, which is what makes 10^5
background users cost O(fluid steps), not O(packets).

**Promotion / demotion** — when a cell's utilization crosses
:class:`PromotionPolicy` thresholds (with hysteresis and a minimum
dwell, so the tier boundary doesn't flap), :func:`plan_promotions`
emits deterministic episodes.  For each episode a background user is
*promoted*: instantiated as a full event-level offload session whose
seed comes from the fluid simulator's ``child_rng(tag)`` — the user's
event-level randomness is a pure function of the fluid state that
spawned it.  Demotion is the episode ending: the session's statistics
fold back into the cell's mergeable aggregate and the user rejoins the
fluid mass.

**Zero-background identity** — :func:`run_pressured_session` with an
all-zero utilization timeline attaches *nothing*: no events are
scheduled, no link parameter is written, and the run delegates to the
exact build/collect path of the ``cell_offload`` fleet scenario.  The
foreground tier at zero background is therefore byte-identical to the
uncoupled event-level scenario (hard acceptance gate, pinned by
``tests/test_scale_coupling.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.wireless.profiles import AccessProfile, load_factors

from repro.scale.population import CONTENTION_RHO

#: (session-relative time, utilization) — piecewise-constant pressure.
PressureSample = Tuple[float, float]


# ----------------------------------------------------------------------
# Background pressure on a foreground event-level session
# ----------------------------------------------------------------------
class BackgroundPressure:
    """Drive a cell's utilization timeline onto a scenario's access links.

    Built against a :class:`~repro.core.session.Scenario` from
    ``ScenarioBuilder.single_path`` (one duplex access link: ``links[0]``
    down, ``links[1]`` up).  Each sample ``(t, ρ)`` schedules one event
    at session-relative time ``t`` that rewrites both directions' rate
    and loss from the *unloaded base values* captured at attach time —
    factors are absolute per sample, never compounded, so the pressure
    applied is independent of how many samples preceded it.

    Samples with ρ=0 restore the base parameters exactly (the factors
    are bit-exact identity); an *entirely* zero timeline should skip
    construction altogether (see :func:`run_pressured_session`) so the
    event stream stays byte-identical to the uncoupled scenario.
    """

    def __init__(self, scenario, samples: Sequence[PressureSample]) -> None:
        if len(scenario.net.links) < 2:
            raise ValueError("scenario has no duplex access link to press on")
        self.sim = scenario.sim
        self.down = scenario.net.links[0]
        self.up = scenario.net.links[1]
        self._base_down_rate = self.down.rate_bps
        self._base_up_rate = self.up.rate_bps
        self._base_down_loss = self.down.loss
        self._base_up_loss = self.up.loss
        #: (time, ρ) actually applied, in firing order (for tests/obs).
        self.applied: List[PressureSample] = []
        for t, rho in samples:
            self.sim.schedule_at(max(float(t), self.sim.now),
                                 self._apply, float(rho))

    def _apply(self, rho: float) -> None:
        f = load_factors(rho)
        self.down.rate_bps = self._base_down_rate * f.share
        self.up.rate_bps = self._base_up_rate * f.share
        self.down.loss = min(self._base_down_loss + f.extra_loss, 1.0)
        self.up.loss = min(self._base_up_loss + f.extra_loss, 1.0)
        self.applied.append((self.sim.now, rho))


def has_pressure(samples: Sequence[PressureSample]) -> bool:
    """True when any sample actually degrades service (ρ > 0)."""
    return any(rho > 0.0 for _t, rho in samples)


def run_pressured_session(seed: int, params: Dict[str, object],
                          samples: Sequence[PressureSample] = ()):
    """Run one foreground ``cell_offload`` session under background load.

    ``params`` is the ``cell_offload`` parameter dict (rtt / up_bps /
    loss / duration); ``samples`` is the session-relative utilization
    timeline.  With no samples — or samples that are all ρ=0 — nothing
    is attached and this is *the same computation* as
    ``fleet.scenarios.run_cell_offload(seed, params)``, byte for byte.
    """
    from repro.fleet.scenarios import (
        build_offload_session,
        collect_offload_aggregate,
    )

    duration = float(params.get("duration", 2.0))
    scenario, session = build_offload_session(seed, params)
    if has_pressure(samples):
        BackgroundPressure(scenario, samples)
    report = session.run(duration)
    return collect_offload_aggregate(scenario, session, report)


# ----------------------------------------------------------------------
# Promotion / demotion between fidelity tiers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PromotionPolicy:
    """When a background user crosses into the foreground tier.

    Hysteresis (``exit_rho`` strictly below ``enter_rho``) plus a
    minimum dwell keep the tier boundary from flapping on fluid noise.
    """

    enter_rho: float = CONTENTION_RHO
    exit_rho: float = 0.60
    min_dwell: float = 5.0

    def __post_init__(self) -> None:
        if not self.exit_rho < self.enter_rho:
            raise ValueError("exit_rho must be strictly below enter_rho")
        if self.min_dwell < 0:
            raise ValueError("min_dwell must be >= 0")


@dataclass(frozen=True)
class PromotionEpisode:
    """One contention interval: a user lives event-level in [start, end)."""

    start: float
    end: float
    peak_rho: float


def plan_promotions(samples: Sequence[Tuple[float, float, float]],
                    policy: PromotionPolicy = PromotionPolicy(),
                    ) -> List[PromotionEpisode]:
    """Deterministic promotion episodes from a cell's fluid samples.

    ``samples`` are the timeline's ``(t, n, ρ)`` tuples in time order.
    An episode opens when ρ reaches ``enter_rho``, and closes at the
    first sample where ρ has fallen to ``exit_rho`` *and* the episode
    has lasted ``min_dwell``; an episode still open at the last sample
    closes there (end of study = demotion).  Pure function of its
    inputs — no RNG, no clock.
    """
    episodes: List[PromotionEpisode] = []
    start = peak = None
    for t, _n, rho in samples:
        if start is None:
            if rho >= policy.enter_rho:
                start, peak = t, rho
        else:
            peak = max(peak, rho)
            if rho <= policy.exit_rho and t - start >= policy.min_dwell:
                episodes.append(PromotionEpisode(start=start, end=t,
                                                 peak_rho=peak))
                start = peak = None
    if start is not None and samples:
        episodes.append(PromotionEpisode(start=start, end=samples[-1][0],
                                         peak_rho=peak))
    return episodes


#: The application a promoted background user runs.
PROMOTED_APP = "orientation"


def promote_user(fluid_sim, cell_id: int, index: int, rho: float,
                 profile: AccessProfile, *, n_frames: int = 30):
    """Instantiate one promoted background user as an event-level session.

    The user's entire event-level randomness derives from the *fluid*
    simulator via ``child_rng(f"scale.promote.{cell_id}.{index}")`` —
    a promoted user is a pure function of the fluid state (cell, which
    contention episode) that spawned it, independent of any other
    promotion.  The session runs the frame-loop offload executor
    (:meth:`repro.mar.offload.OffloadExecutor.for_cell`) against the
    cell's profile *under its contention load* ``rho``; its statistics
    fold back into a mergeable aggregate under ``scale.promoted.*``
    (demotion).  Returns ``(seed, aggregate)``.
    """
    from repro.fleet.aggregate import Aggregate
    from repro.mar.application import APP_ARCHETYPES
    from repro.mar.offload import FeatureOffload, OffloadExecutor
    from repro.simnet.engine import Simulator

    seed = fluid_sim.child_rng(
        f"scale.promote.{cell_id}.{index}").getrandbits(63)
    sim = Simulator(seed=seed)
    executor = OffloadExecutor.for_cell(
        sim, profile, rho, cell_id=cell_id,
        app=APP_ARCHETYPES[PROMOTED_APP], strategy=FeatureOffload())
    result = executor.run(n_frames=n_frames)

    agg = Aggregate()
    agg.count("scale.promoted_sessions")
    agg.count("scale.promoted_frames", result.frames_completed)
    agg.moment("scale.promoted.frame_latency").extend(result.frame_latencies)
    agg.moment("scale.promoted.deadline_hit_rate").add(
        result.deadline_hit_rate)
    return seed, agg


__all__ = [
    "BackgroundPressure",
    "PressureSample",
    "PromotionEpisode",
    "PromotionPolicy",
    "has_pressure",
    "plan_promotions",
    "promote_user",
    "run_pressured_session",
]
