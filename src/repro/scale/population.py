"""Fluid/mean-field background population model for city-scale MAR.

Event-level simulation of every user in a metropolitan deployment is
hopeless — a metro area has 10^5–10^6 concurrent MAR users and the
event engine tops out near 10^6 events/s.  The paper's §IV scaling
argument (per-cell contention, edge placement at metro scale) does not
need per-packet fidelity for the *background* population, though: it
needs each cell's offered load as a function of time.  This module
models exactly that, in the mean-field style of multi-user offloading
load models (Look-Ahead Task Offloading, arXiv:2305.19558): per-cell
arrival/departure fluid dynamics whose offered uplink load, normalized
by the cell's capacity, yields the utilization ρ(t) that
:mod:`repro.scale.coupling` turns into link pressure on event-level
foreground sessions.

The dynamics per cell are a stochastically-modulated M/M/∞ fluid::

    dn/dt = λ(t)·e^{x(t)} − n/τ

where ``λ(t)`` carries a deterministic diurnal modulation, ``x(t)`` is
a discrete OU (AR(1)) log-perturbation drawn from the *host
simulator's* ``child_rng`` — so a cell's load process is a pure
function of ``(seed, cell tag)`` and independent of every other cell's
draws — and ``τ`` is the mean session lifetime.  Offered load is
``n·demand`` against the cell's uplink capacity; utilization above 1
is shed (admission pressure) and accounted as blocked user-seconds.

Per-user quantities reuse the *same* measured access distributions the
event-level simulator builds links from (:mod:`repro.wireless.profiles`):
a cell references an :class:`~repro.wireless.profiles.AccessProfile`
by name, and both per-user throughput under load and the §III-B
MAR-readiness classification scale that profile by
:func:`~repro.wireless.profiles.load_factors`.

Everything a cell produces is distilled into O(1)-sized mergeable
aggregates (:class:`repro.fleet.aggregate.Aggregate` via an
:class:`repro.obs.registry.MetricsRegistry` feed), so a million users
across hundreds of cells lift into the existing Welford/histogram
fleet primitives and merge order-independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.stats import FixedBinHistogram, StreamingMoments
from repro.simnet.engine import Simulator
from repro.wireless.profiles import (
    MAR_MAX_RTT,
    MAR_MIN_UPLINK_BPS,
    MIN_LOAD_SHARE,
    AccessProfile,
    all_profiles,
)

#: AR(1) relaxation of the log-load perturbation per fluid step: the
#: shock process has memory ~1/OU_BETA steps, long enough that cells
#: show sustained busy periods rather than white noise.
OU_BETA = 0.08

#: Utilization above which a fluid sample counts as *contended* —
#: aligned with the default promotion threshold in repro.scale.coupling.
CONTENTION_RHO = 0.85

#: Histogram range for per-cell utilization: >1 is a real (overload)
#: regime, so the range extends past saturation.  Fixed so per-cell
#: histograms from any shard are merge-compatible.
UTILIZATION_HI = 2.0
UTILIZATION_BINS = 100


PROFILE_NAMES: Dict[str, AccessProfile] = {p.name: p for p in all_profiles()}


def profile_by_name(name: str) -> AccessProfile:
    """Look up a built-in access profile by its ``name`` field."""
    try:
        return PROFILE_NAMES[name]
    except KeyError:
        raise KeyError(f"unknown access profile {name!r}; "
                       f"known: {list(PROFILE_NAMES)}") from None


@dataclass(frozen=True)
class CellSpec:
    """Static description of one cell's background population.

    Rates in users/s and bits/s, times in seconds.  ``demand_up_bps``
    is the mean uplink demand of one *active* MAR user (feature uploads
    + sensor streams; full video offload is the profile's ``up_mean``
    and only the foreground tier models it per-packet).
    """

    cell_id: int
    profile: str                     # AccessProfile.name
    initial_users: float             # n(0)
    arrival_rate: float              # λ0, new sessions per second
    mean_holding: float              # τ, mean session lifetime
    demand_up_bps: float             # per active user
    capacity_up_bps: float           # cell uplink capacity
    diurnal_amplitude: float = 0.3   # λ(t) = λ0(1 + a·sin(...))
    diurnal_period: float = 180.0
    diurnal_phase: float = 0.0
    burstiness: float = 0.15         # OU shock scale per step
    dt: float = 0.5                  # fluid step

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.mean_holding <= 0:
            raise ValueError("mean_holding must be > 0")
        if self.capacity_up_bps <= 0:
            raise ValueError("capacity_up_bps must be > 0")

    @property
    def capacity_users(self) -> float:
        """How many mean-demand users saturate the uplink."""
        return self.capacity_up_bps / max(self.demand_up_bps, 1e-9)


class CellSummary:
    """One cell's per-sample statistics, accumulated in a single pass
    (:meth:`CellTimeline.summarise`) and copied from there into the
    fleet aggregate."""

    __slots__ = ("active_users", "utilization", "per_user_up_bps",
                 "utilization_bins", "contended", "overloaded", "mar_ready")

    def __init__(self) -> None:
        self.active_users = StreamingMoments()
        self.utilization = StreamingMoments()
        self.per_user_up_bps = StreamingMoments()
        self.utilization_bins = FixedBinHistogram(0.0, UTILIZATION_HI,
                                                  UTILIZATION_BINS)
        self.contended = 0    # samples with ρ > CONTENTION_RHO
        self.overloaded = 0   # samples with ρ > 1
        self.mar_ready = 0    # samples meeting the §III-B thresholds

    @property
    def mar_ready_fraction(self) -> float:
        n = self.utilization.count
        return self.mar_ready / n if n else 0.0


@dataclass
class CellTimeline:
    """The fluid trajectory of one cell plus its integral accounting."""

    spec: CellSpec
    #: (t, active users, utilization ρ) per fluid step, in time order.
    samples: List[Tuple[float, float, float]]
    arrivals: float = 0.0            # ∫λ_eff dt — distinct new users
    user_seconds: float = 0.0        # ∫n dt
    blocked_user_seconds: float = 0.0  # ∫max(n − capacity_users, 0) dt

    @property
    def distinct_users(self) -> int:
        """Users this cell touched: the initial population + arrivals."""
        return int(round(self.spec.initial_users + self.arrivals))

    @property
    def service_fraction(self) -> float:
        """Fraction of user-seconds actually served (not shed)."""
        if self.user_seconds <= 0:
            return 1.0
        return 1.0 - min(self.blocked_user_seconds / self.user_seconds, 1.0)

    def utilization_at(self, t: float) -> float:
        """Piecewise-constant ρ at time ``t`` (last sample at or before)."""
        rho = 0.0
        for ts, _n, r in self.samples:
            if ts > t:
                break
            rho = r
        return rho

    def window(self, t0: float, t1: float) -> List[Tuple[float, float]]:
        """(t, ρ) samples governing [t0, t1): the sample in force at
        ``t0`` plus every sample boundary inside the window."""
        out: List[Tuple[float, float]] = [(t0, self.utilization_at(t0))]
        for ts, _n, r in self.samples:
            if t0 < ts < t1:
                out.append((ts, r))
        return out

    def summarise(self) -> CellSummary:
        """Everything the aggregates need from the samples, in one walk.

        ``n`` and ``ρ`` go through the moments' and histogram's
        ``extend``; one loop then applies :func:`load_factors`' law
        inline — the per-user uplink share and the readiness predicate,
        which multiplies the profile's mean uplink and RTT by the same
        factors ``AccessProfile.under_load`` would: the §III-B
        thresholds applied to the cell *under its instantaneous load*,
        without building the loaded profile or the factors.
        """
        profile = profile_by_name(self.spec.profile)
        up_mean = profile.up_mean
        rtt = profile.rtt
        samples = self.samples
        rhos = [rho for _t, _n, rho in samples]
        out = CellSummary()
        out.active_users.extend([n for _t, n, _rho in samples])
        out.utilization.extend(rhos)
        out.utilization_bins.extend(rhos)
        ups = []
        add_up = ups.append
        contended = overloaded = ready = 0
        for rho in rhos:
            r = rho if rho > 0.0 else 0.0
            share = max(1.0 - r, MIN_LOAD_SHARE)
            up = up_mean * share
            add_up(up)
            if rho > CONTENTION_RHO:
                contended += 1
            if rho > 1.0:
                overloaded += 1
            if (up >= MAR_MIN_UPLINK_BPS
                    and rtt * (1.0 + min(r, 1.0) / share) <= MAR_MAX_RTT):
                ready += 1
        out.per_user_up_bps.extend(ups)
        out.contended = contended
        out.overloaded = overloaded
        out.mar_ready = ready
        return out

    def mar_ready_fraction(self) -> float:
        """Fraction of samples where a §III-B-compliant session fits."""
        return self.summarise().mar_ready_fraction


class CellProcess:
    """The fluid load process of one cell, on a host simulator's clock.

    The process schedules no event: it steps its ODE every ``spec.dt``
    from the simulator's ``now`` at construction, lazily, whenever
    :attr:`timeline` or :attr:`active_users` is read — up to and
    including ``sim.now``, the steps a self-rescheduling timer would
    have fired by then.  :func:`run_cell` steps eagerly to its horizon.
    Load shocks come from ``sim.child_rng(f"scale.cell.{cell_id}")`` —
    the determinism contract for sim-domain code (ROADMAP), which also
    makes a cell's trajectory independent of how many other cells share
    the simulator.
    """

    def __init__(self, sim: Simulator, spec: CellSpec) -> None:
        self.sim = sim
        self.spec = spec
        self._rng = sim.child_rng(f"scale.cell.{spec.cell_id}")
        self._n = float(spec.initial_users)
        self._x = 0.0                # OU log-load perturbation
        self._timeline = CellTimeline(spec=spec, samples=[])
        # The engine's ``now + delay`` for a first step at delay 0.
        self._next_t = sim.now + 0.0

    @property
    def timeline(self) -> CellTimeline:
        self._advance(self.sim.now)
        return self._timeline

    @timeline.setter
    def timeline(self, timeline: CellTimeline) -> None:
        """Replace the trajectory; the process never steps again."""
        self._timeline = timeline
        self._next_t = math.inf

    @property
    def active_users(self) -> float:
        self._advance(self.sim.now)
        return self._n

    def _advance(self, until: float) -> None:
        """Take every fluid step due at or before ``until``.

        Step ``k`` runs at ``t_k = t_{k-1} + dt`` — the float the
        engine's ``now + delay`` would have scheduled it at — with the
        same operations in the same order as one step per event, on
        locals.
        """
        t = self._next_t
        if t > until:
            return
        spec = self.spec
        dt = spec.dt
        arrival_rate = spec.arrival_rate
        amplitude = spec.diurnal_amplitude
        phase = spec.diurnal_phase
        period = spec.diurnal_period
        burstiness = spec.burstiness
        holding = spec.mean_holding
        demand = spec.demand_up_bps
        capacity = spec.capacity_up_bps
        capacity_users = spec.capacity_users
        keep = 1.0 - OU_BETA
        two_pi = 2.0 * math.pi
        sin = math.sin
        exp = math.exp
        gauss = self._rng.gauss
        tl = self._timeline
        append = tl.samples.append
        arrivals = tl.arrivals
        user_seconds = tl.user_seconds
        blocked = tl.blocked_user_seconds
        n = self._n
        x = self._x
        while t <= until:
            lam = arrival_rate * (
                1.0 + amplitude * sin(two_pi * (t + phase) / period))
            x = keep * x + gauss(0.0, burstiness)
            lam_eff = max(lam, 0.0) * exp(x)
            n += dt * (lam_eff - n / holding)
            if n < 0.0:
                n = 0.0
            append((t, n, (n * demand) / capacity))
            arrivals += lam_eff * dt
            user_seconds += n * dt
            excess = n - capacity_users
            if excess > 0.0:
                blocked += excess * dt
            t = t + dt
        self._n = n
        self._x = x
        self._next_t = t
        tl.arrivals = arrivals
        tl.user_seconds = user_seconds
        tl.blocked_user_seconds = blocked

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def aggregate(self):
        """This cell's mergeable shard contribution.

        Counts/histograms merge exactly; moments merge via the Chan et
        al. parallel formula — order-independent up to float rounding
        (pinned by a hypothesis property in tests/test_scale_population.py).
        The ``obs.scale.*`` keys are the ones a metrics registry of this
        cell would lift to through ``aggregate_from_registry``: its
        counters as counts, the active-user gauge and the utilization
        histogram as moments, and the histogram's bins.
        """
        from repro.fleet.aggregate import Aggregate

        tl = self.timeline
        summary = tl.summarise()
        agg = Aggregate()
        agg.count("scale.cells")
        agg.count("scale.users", tl.distinct_users)
        agg.moment("scale.utilization").merge(summary.utilization)
        agg.moment("scale.active_users").merge(summary.active_users)
        agg.moment("scale.per_user_up_bps").merge(summary.per_user_up_bps)
        agg.moment("scale.service_fraction").add(tl.service_fraction)
        agg.moment("scale.mar_ready_fraction").add(summary.mar_ready_fraction)
        agg.count("obs.scale.cells")
        agg.count("obs.scale.users", tl.distinct_users)
        agg.count("obs.scale.fluid_steps", len(tl.samples))
        agg.count("obs.scale.contended_samples", summary.contended)
        agg.count("obs.scale.overloaded_samples", summary.overloaded)
        agg.moment("obs.scale.active_users").merge(summary.active_users)
        agg.moment("obs.scale.utilization").merge(summary.utilization)
        agg.histogram("obs.scale.utilization", UTILIZATION_HI,
                      UTILIZATION_BINS).merge(summary.utilization_bins)
        return agg


def run_cell(spec: CellSpec, seed: int, duration: float,
             sim: Optional[Simulator] = None) -> CellProcess:
    """Run one cell's fluid process for ``duration`` simulated seconds.

    With ``sim`` given, attaches to an existing simulator (many cells
    can share one); otherwise builds a fresh ``Simulator(seed=seed)``.
    """
    if sim is None:
        sim = Simulator(seed=seed)
    process = CellProcess(sim, spec)
    until = sim.now + duration
    process._advance(until)
    sim.run(until=until)
    return process


__all__ = [
    "CONTENTION_RHO",
    "CellProcess",
    "CellSpec",
    "CellSummary",
    "CellTimeline",
    "OU_BETA",
    "UTILIZATION_BINS",
    "UTILIZATION_HI",
    "profile_by_name",
    "run_cell",
]
