"""Sharded campaign execution: warm worker pool, batching, streaming merge.

:func:`run_campaign` expands a :class:`Campaign` into shards and runs
them either serially (``workers <= 1``) or on a persistent process
pool.  The two modes are **aggregate-equivalent by construction**: both
compute one :class:`Aggregate` per shard and fold the per-shard
aggregates through an :class:`OrderedReducer`, which merges strictly in
shard-index order no matter when results arrive — so the merged result,
and any report rendered from it, is byte-identical regardless of worker
count, batching, scheduling, or completion order.

Why parallelism used to lose
----------------------------
The original pool dispatched one task per shard, re-pickled the
scenario name + params + seed into every attempt, and paid worker
startup per pool.  For campaigns of many ~10 ms shards the IPC and
setup overhead exceeded the work and parallel runs came out *slower*
than serial (0.82x at 2 and 4 workers, measured at PR 3).  Three
coordinated changes fix that:

- **Persistent warm workers** — the pool is created once per campaign
  with an initializer that installs the campaign spec (canonical JSON,
  sent once), rebuilds the tag->spec map, and resolves the scenario
  function.  Workers then receive only ``(tag, attempt, fault_mode)``
  tuples.  The pool context prefers ``fork`` (workers inherit the
  parent's imported simulation stack — the warmest start; the runner
  is single-threaded so fork is safe), with ``spawn``/``forkserver``
  selectable via ``mp_context``.
- **Batched shard dispatch** — :func:`plan_batches` rides many small
  shards on one worker task, auto-tuned so each worker sees
  ``OVERSUBSCRIBE`` batches (load balance) with batches weighted by the
  scenario's ``cost_hint`` (equal *cost*, not equal count).  Per-shard
  results are still produced, recorded, cached, and replayable
  individually.
- **Streaming reducers** — a shard result on the wire is the compact
  canonical aggregate JSON, and the runner merges results incrementally
  as batches complete (:class:`OrderedReducer`): bounded memory, no
  end-of-run merge barrier.

Fault tolerance
---------------
- A shard that raises is charged an attempt and re-queued (as a
  singleton batch) up to ``max_attempts`` times, with a decorrelated-
  jitter delay between attempts (:meth:`DecorrelatedBackoff.from_tag`
  seeded from the campaign, so even the retry schedule is
  reproducible).  A raising shard never takes down its batch: the
  worker records the error per shard and keeps running the siblings.
- A shard whose **worker process dies** (segfault, OOM kill, injected
  ``os._exit``) breaks the pool: every in-flight future fails with
  :class:`BrokenProcessPool`.  The runner rebuilds the pool and reruns
  each in-flight shard alone in a single-worker pool — the culprit
  keeps breaking (only) its private pool until its attempts are
  exhausted and it is **quarantined**; innocent batch-mates succeed.
- A batch that exceeds its deadline (``shard_timeout`` x batch length)
  is charged an attempt per shard and re-queued as singletons; the
  abandoned future is ignored if it ever completes.
- Quarantined shards never fail the campaign: they are excluded from
  the merge (the reducer skips their index) and listed in the report,
  and each one is individually replayable from its tag
  (``python -m repro fleet --replay TAG``) because shard seeds depend
  only on ``(base_seed, tag)``.

Fault injection (for tests and the CI ``fleet-smoke`` job) is a
first-class input: :class:`FaultInjection` names shard tags that must
misbehave, either by raising or by killing their worker process.  In
serial mode a "kill" downgrades to a raise — the fallback must never
take down the caller.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.resilience import DecorrelatedBackoff
from repro.fleet.aggregate import Aggregate, OrderedReducer
from repro.fleet.cache import ResultCache
from repro.fleet.campaign import Campaign, ScenarioDef, ShardSpec, get_scenario
from repro.fleet.flight import FlightRecorder, collect_flight_dump
from repro.fleet.telemetry import TelemetryCollector, rss_kib

#: Auto-batching targets this many batches per worker: enough slack for
#: load balancing across heterogeneous shards, few enough that IPC per
#: batch is amortized over many shards.
OVERSUBSCRIBE = 4

#: Hard cap on shards per batch: bounds the blast radius of a mid-batch
#: worker death and keeps batch timeouts/requeues reasonably granular.
MAX_BATCH = 64

#: Modules the forkserver preloads so post-break pool rebuilds fork from
#: an interpreter that has already paid the scenario import cost.
_PRELOAD_MODULES = ["repro.fleet.scenarios"]


def usable_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine, not the process: under a
    CPU-affinity mask or a container quota it overstates usable
    parallelism, and sizing a pool from it guarantees oversubscription
    (PR 3 measured 4 workers on a 1-core box).  Prefer the scheduling
    affinity, falling back where the platform lacks it.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # macOS/Windows have no affinity API
        return os.cpu_count() or 1


class ShardError(RuntimeError):
    """A shard attempt failed inside the runner (injected or real)."""


@dataclass(frozen=True)
class FaultInjection:
    """Deterministic misbehaviour for named shards.

    ``mode="raise"`` makes the shard raise :class:`ShardError`;
    ``mode="kill"`` makes it terminate its worker process without
    cleanup (exercising the broken-pool path).  ``fail_attempts``
    bounds how many attempts misbehave — ``None`` means every attempt,
    which drives the shard into quarantine.
    """

    tags: Tuple[str, ...]
    mode: str = "raise"              # "raise" | "kill"
    fail_attempts: Optional[int] = None

    def active(self, tag: str, attempt: int) -> bool:
        if tag not in self.tags:
            return False
        return self.fail_attempts is None or attempt < self.fail_attempts


@dataclass
class ShardOutcome:
    """What happened to one shard over the whole campaign."""

    tag: str
    index: int
    status: str                      # "ok" | "quarantined"
    attempts: int
    cached: bool = False
    error: Optional[str] = None
    #: scenario name, so a quarantine record is replayable on its own
    #: (``python -m repro fleet <scenario> --replay TAG``) without the
    #: surrounding FleetResult for context.
    scenario: Optional[str] = None
    #: full error history, one entry per failed attempt (``error`` keeps
    #: only the last); pooled real failures carry the worker traceback.
    errors: List[str] = field(default_factory=list)
    #: path of the flight-recorder artifact collected for a quarantined
    #: shard (None when no recorder ran or nothing matched the tag).
    flight: Optional[str] = None


@dataclass
class FleetResult:
    """A finished campaign: merged aggregates plus execution accounting."""

    campaign: Campaign
    aggregate: Aggregate
    per_point: Dict[str, Aggregate]   # insertion-ordered by grid point
    outcomes: List[ShardOutcome]
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed: float = 0.0
    workers: int = 1
    #: batches dispatched to the pool (0 for serial / fully cached runs)
    n_batches: int = 0
    #: peak number of out-of-order results the streaming reducer buffered
    max_buffered: int = 0
    #: multiprocessing start method the pool used (None for serial)
    start_method: Optional[str] = None
    #: reporting hints copied from the ScenarioDef (keeps report
    #: rendering free of fleet imports)
    latency_key: Optional[str] = None
    rate_key: Optional[str] = None
    moment_keys: Tuple[str, ...] = ()
    #: finalized campaign_telemetry.json document when a
    #: :class:`~repro.fleet.telemetry.TelemetryCollector` was passed to
    #: :func:`run_campaign`; wall-clock only, never part of the
    #: deterministic result surface.
    telemetry: Optional[dict] = None

    @property
    def quarantined(self) -> List[str]:
        return [o.tag for o in self.outcomes if o.status == "quarantined"]

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "ok")


# ----------------------------------------------------------------------
# Worker-side: one-time spec install + batch execution
# ----------------------------------------------------------------------
#: Per-worker-process state installed once by :func:`_worker_init`.
_WORKER: dict = {}


def _worker_init(spec_json: str, telemetry_epoch: Optional[float] = None,
                 flight_dir: Optional[str] = None) -> None:
    """Pool initializer: install the campaign spec in this worker.

    Runs once per worker process for the lifetime of the pool.  After
    this, a shard task is a ``(tag, attempt, fault_mode)`` tuple — the
    spec, the scenario import, and the tag->spec expansion are never
    shipped or rebuilt per attempt.

    ``telemetry_epoch`` is the driver's ``time.monotonic()`` reading at
    collector creation; when set, batch execution stamps its telemetry
    events with offsets from it (CLOCK_MONOTONIC is system-wide, so the
    offsets line up across processes).  ``flight_dir`` turns on the
    crash flight recorder: a process-wide engine trace hook plus a
    spill file at every shard boundary.
    """
    campaign = Campaign.from_spec_dict(json.loads(spec_json))
    scenario = get_scenario(campaign.scenario)
    _WORKER["specs"] = campaign.shard_map()
    _WORKER["fn"] = scenario.fn
    _WORKER["epoch"] = telemetry_epoch
    flight = None
    if flight_dir is not None:
        flight = FlightRecorder(flight_dir)
        flight.install()
    _WORKER["flight"] = flight


#: One shard task on the wire: (tag, attempt, injected fault mode).
_Task = Tuple[str, int, Optional[str]]
#: One shard result on the wire: (tag, "ok"|"err", aggregate JSON | error).
_TaskResult = Tuple[str, str, str]
#: One batch result on the wire: per-shard results + telemetry events
#: (empty list when the driver did not pass an epoch — results first so
#: the determinism-bearing payload never moves).
_BatchResult = Tuple[List[_TaskResult], List[dict]]


def _execute_batch(tasks: Sequence[_Task]) -> _BatchResult:
    """Run a batch of shard tasks in this (pre-warmed) worker.

    Per-shard failures are *data*, not exceptions: a raising shard is
    reported as ``("err", message)`` carrying the worker-side traceback,
    and its batch-mates still run.  Only a process-killing fault (or a
    genuine crash) loses the batch, which the runner repairs via
    single-shard isolation.
    """
    specs: Dict[str, ShardSpec] = _WORKER["specs"]
    fn = _WORKER["fn"]
    epoch = _WORKER.get("epoch")
    flight: Optional[FlightRecorder] = _WORKER.get("flight")
    pid = os.getpid()
    events: List[dict] = []
    b0 = time.monotonic() - epoch if epoch is not None else 0.0
    out: List[_TaskResult] = []
    for tag, attempt, fault_mode in tasks:
        if flight is not None:
            # Spill *before* the kill check: a dying worker must leave
            # a flight artifact naming its victim shard behind.
            flight.begin_shard(tag, attempt)
        if fault_mode == "kill":
            os._exit(86)  # simulate a crashed/OOM-killed worker
        if fault_mode:
            out.append((tag, "err",
                        f"ShardError: injected {fault_mode} fault in shard "
                        f"{tag!r} (attempt {attempt})"))
            continue
        spec = specs[tag]
        t0 = time.monotonic() - epoch if epoch is not None else 0.0
        try:
            out.append((tag, "ok", fn(spec.seed, spec.param_dict()).to_json()))
            ok = True
        except Exception as exc:  # noqa: BLE001 - reported per shard, retried
            tb = traceback.format_exc()
            if flight is not None:
                flight.dump_crash(tag, attempt, tb)
            out.append((tag, "err", f"{type(exc).__name__}: {exc}\n{tb}"))
            ok = False
        if epoch is not None:
            events.append({"ev": "shard", "pid": pid, "tag": tag,
                           "attempt": attempt, "t0": t0,
                           "t1": time.monotonic() - epoch, "ok": ok})
    if epoch is not None:
        events.append({"ev": "batch", "pid": pid, "t0": b0,
                       "t1": time.monotonic() - epoch, "n": len(tasks),
                       "rss_kib": rss_kib()})
    return out, events


def _run_shard_inline(spec: ShardSpec, fn, attempt: int,
                      faults: Optional[FaultInjection]) -> str:
    """Serial fallback for one shard (kill downgrades to raise)."""
    if faults is not None and faults.active(spec.tag, attempt):
        raise ShardError(
            f"injected {faults.mode} fault in shard {spec.tag!r} "
            f"(attempt {attempt})")
    return fn(spec.seed, spec.param_dict()).to_json()


# ----------------------------------------------------------------------
# Batch planning
# ----------------------------------------------------------------------
def plan_batches(states: Sequence["_ShardState"], workers: int,
                 batch_size: Optional[int] = None,
                 scenario: Optional[ScenarioDef] = None) -> List[List["_ShardState"]]:
    """Cut shards into contiguous worker batches (deterministic).

    ``batch_size`` forces fixed-size batches (1 = the old one-task-per-
    shard dispatch).  ``None`` auto-tunes: ~``OVERSUBSCRIBE`` batches
    per worker, weighted by the scenario's ``cost_hint`` so a grid
    mixing cheap and expensive points yields equal-*cost* batches, and
    capped at ``MAX_BATCH`` shards.  Batching never affects results —
    shards are recorded individually and merged by index — only how
    much work rides each IPC round trip.
    """
    states = list(states)
    if not states:
        return []
    if batch_size is not None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return [states[i:i + batch_size]
                for i in range(0, len(states), batch_size)]

    n = len(states)
    n_batches = min(n, max(1, workers) * OVERSUBSCRIBE)
    batches: List[List["_ShardState"]] = []
    if scenario is not None and scenario.cost_hint is not None:
        costs = [scenario.shard_cost(s.spec.param_dict()) for s in states]
        target = sum(costs) / n_batches
        cur: List["_ShardState"] = []
        acc = 0.0
        for state, cost in zip(states, costs):
            cur.append(state)
            acc += cost
            if ((acc >= target or len(cur) >= MAX_BATCH)
                    and len(batches) < n_batches - 1):
                batches.append(cur)
                cur, acc = [], 0.0
        if cur:
            batches.append(cur)
    else:
        size = min(MAX_BATCH, math.ceil(n / n_batches))
        batches = [states[i:i + size] for i in range(0, n, size)]
    # A weighted tail can exceed the cap when n >> n_batches * MAX_BATCH.
    capped: List[List["_ShardState"]] = []
    for batch in batches:
        for i in range(0, len(batch), MAX_BATCH):
            capped.append(batch[i:i + MAX_BATCH])
    return capped


def batch_cost_efficiency(batches: Sequence[Sequence["_ShardState"]],
                          scenario: Optional[ScenarioDef] = None) -> float:
    """Load-balance efficiency of a batch plan, in (0, 1].

    Parallel wall time is governed by the *heaviest* batch, so the
    useful figure is mean batch cost over peak batch cost: 1.0 means
    perfectly level batches, 0.5 means the heaviest batch carries twice
    the average and half the fleet idles while it drains.  Costs come
    from the scenario's ``cost_hint`` (shard count when there is none)
    — the same weights :func:`plan_batches` planned with, so this
    audits the planner's own objective.  Hierarchical shard lists
    (repro.scale's city → cell → cohort grids, where member-0 shards
    carry extra fluid-aggregation and promotion cost) are the case that
    keeps this honest: the planner must stay ≥0.6 on them (pinned by
    ``tests/test_fleet_workers.py``).
    """
    if not batches:
        return 1.0
    if scenario is not None and scenario.cost_hint is not None:
        costs = [sum(scenario.shard_cost(s.spec.param_dict()) for s in batch)
                 for batch in batches]
    else:
        costs = [float(len(batch)) for batch in batches]
    peak = max(costs)
    if peak <= 0:
        return 1.0
    return (sum(costs) / len(costs)) / peak


def _pool_context(method: Optional[str] = None):
    """Pick the multiprocessing context for the warm pool.

    Prefers ``fork`` — workers inherit the parent's already-imported
    simulation stack, which is the warmest possible start (measured on
    a 4-shard 2-worker campaign: ~20 ms, vs ~0.2 s for spawn/forkserver,
    which re-import the stack per worker — standard library and repro
    only, docs/PERF.md §3).  The runner is
    single-threaded, so fork is safe here.  Where fork is unavailable
    (Windows/macOS-spawn), falls back to ``spawn``; ``forkserver`` can
    be requested explicitly and gets the scenario module preloaded so
    post-break pool rebuilds fork from a warm server.
    """
    if method is None:
        method = ("fork"
                  if "fork" in multiprocessing.get_all_start_methods()
                  else "spawn")
    ctx = multiprocessing.get_context(method)
    if method == "forkserver":
        try:
            ctx.set_forkserver_preload(_PRELOAD_MODULES)
        except Exception:  # pragma: no cover - preload is best-effort
            pass
    return ctx


# ----------------------------------------------------------------------
# Campaign runner
# ----------------------------------------------------------------------
@dataclass
class _ShardState:
    spec: ShardSpec
    attempts: int = 0
    errors: List[str] = field(default_factory=list)


ProgressFn = Callable[[int, int, float], None]


def run_campaign(
    campaign: Campaign,
    *,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    max_attempts: int = 3,
    shard_timeout: float = 300.0,
    backoff_base: float = 0.05,
    backoff_cap: float = 2.0,
    faults: Optional[FaultInjection] = None,
    progress: Optional[ProgressFn] = None,
    batch_size: Optional[int] = None,
    mp_context: Optional[str] = None,
    telemetry: Optional[TelemetryCollector] = None,
    flight_dir=None,
) -> FleetResult:
    """Run every shard of ``campaign`` and merge the results.

    ``workers <= 1`` selects the serial in-process fallback; otherwise a
    persistent warm process pool of that size.  ``batch_size`` pins the
    shards-per-task batch (``None`` auto-tunes, ``1`` restores unbatched
    dispatch); ``mp_context`` pins the multiprocessing start method.
    ``cache`` (optional) is consulted before any execution and updated
    after every successful shard; a run that ends with every shard ok
    also records its merge there, and a re-run whose cache directory
    still verifies against that record is served from it without
    parsing a shard (:mod:`repro.fleet.cache`).

    ``telemetry`` (optional :class:`TelemetryCollector`) turns on the
    wall-clock telemetry bus; the finalized document lands in
    ``FleetResult.telemetry``.  ``flight_dir`` (optional path) arms the
    crash flight recorder in every worker (and in-process for serial
    runs); quarantine records then carry the matching flight artifact
    path.  Neither affects any aggregate byte — pinned by
    ``tests/test_fleet_telemetry.py``.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    shards = campaign.shards()
    scenario = get_scenario(campaign.scenario)
    t0 = time.monotonic()
    outcomes: Dict[int, ShardOutcome] = {}
    backoff = DecorrelatedBackoff.from_tag(
        campaign.base_seed, f"fleet-retry:{campaign.name}",
        base=backoff_base, cap=backoff_cap)

    # -- cache pass ----------------------------------------------------
    cache_t0 = telemetry.now() if telemetry is not None else 0.0
    todo: List[ShardSpec] = []
    served: List[ShardSpec] = []      # shards the cache answered
    #: sha256 of each shard's cache file as read or written by this run;
    #: stays None for a quarantined shard and for a failed write
    digests: List[Optional[str]] = [None] * len(shards)
    merged = cache.get_merged(campaign, shards) if cache is not None else None
    reducer: Optional[OrderedReducer] = None
    if merged is not None and merged.verified:
        # A completed campaign whose shard files all still hash to what
        # it recorded: there is nothing to parse and nothing to merge.
        served = shards
    else:
        reducer = OrderedReducer([s.point_label for s in shards])
        # An intact entry that failed verification still knows what each
        # shard file must hash to; a file that drifted is a miss.
        recorded = (merged.digests if merged is not None
                    else [None] * len(shards))
        for spec in shards:
            hit = (cache.get(campaign, spec, recorded[spec.index])
                   if cache is not None else None)
            if hit is not None:
                reducer.offer(spec.index, hit[0])
                digests[spec.index] = hit[1]
                served.append(spec)
            else:
                todo.append(spec)
    for spec in served:
        outcomes[spec.index] = ShardOutcome(
            tag=spec.tag, index=spec.index, status="ok", attempts=0,
            cached=True, scenario=campaign.scenario)
    cache_hits = len(served)
    cache_misses = len(todo) if cache is not None else 0
    if telemetry is not None and cache is not None:
        telemetry.record({"ev": "cache_pass", "t0": cache_t0,
                          "t1": telemetry.now(), "hits": cache_hits,
                          "misses": cache_misses})

    def record_ok(spec: ShardSpec, attempts: int, agg_json: str) -> None:
        agg = Aggregate.from_json(agg_json)
        reducer.offer(spec.index, agg)
        outcomes[spec.index] = ShardOutcome(
            tag=spec.tag, index=spec.index, status="ok", attempts=attempts,
            scenario=campaign.scenario)
        if telemetry is not None:
            telemetry.record({"ev": "merge", "t": telemetry.now(),
                              "tag": spec.tag, "buffered": reducer.pending})
        if cache is not None:
            digests[spec.index] = cache.put(campaign, spec, agg_json)
        if progress is not None:
            progress(len(outcomes), len(shards), time.monotonic() - t0)

    def record_quarantine(state: _ShardState) -> None:
        reducer.offer(state.spec.index, None)
        flight_path = None
        if flight_dir is not None:
            found = collect_flight_dump(flight_dir, state.spec.tag)
            flight_path = str(found) if found is not None else None
        outcomes[state.spec.index] = ShardOutcome(
            tag=state.spec.tag, index=state.spec.index, status="quarantined",
            attempts=state.attempts,
            error=state.errors[-1] if state.errors else None,
            scenario=campaign.scenario,
            errors=list(state.errors),
            flight=flight_path)
        if telemetry is not None:
            telemetry.record({"ev": "quarantine", "t": telemetry.now(),
                              "tag": state.spec.tag,
                              "attempts": state.attempts})
        if progress is not None:
            progress(len(outcomes), len(shards), time.monotonic() - t0)

    n_batches = 0
    start_method: Optional[str] = None
    if workers <= 1:
        flight = None
        if flight_dir is not None:
            flight = FlightRecorder(flight_dir)
            flight.install()
        try:
            _run_serial(todo, scenario, faults, max_attempts, backoff,
                        record_ok, record_quarantine,
                        telemetry=telemetry, flight=flight)
        finally:
            if flight is not None:
                flight.uninstall()
    else:
        ctx = _pool_context(mp_context)
        start_method = ctx.get_start_method()
        n_batches = _run_pool(campaign, todo, scenario, faults, workers,
                              batch_size, ctx, max_attempts, shard_timeout,
                              backoff, record_ok, record_quarantine,
                              telemetry=telemetry, flight_dir=flight_dir)

    if reducer is None:
        aggregate, per_point, max_buffered = (
            merged.aggregate, merged.per_point, 0)
    else:
        aggregate, per_point, max_buffered = (
            reducer.finish(), reducer.per_point, reducer.max_buffered)
        if cache is not None and None not in digests:
            cache.put_merged(campaign, digests, aggregate, per_point)
    result = FleetResult(
        campaign=campaign,
        aggregate=aggregate,
        per_point=per_point,
        outcomes=[outcomes[s.index] for s in shards],
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        elapsed=time.monotonic() - t0,
        workers=max(1, workers),
        n_batches=n_batches,
        max_buffered=max_buffered,
        start_method=start_method,
        latency_key=scenario.latency_key,
        rate_key=scenario.rate_key,
        moment_keys=scenario.moment_keys,
    )
    if telemetry is not None:
        result.telemetry = telemetry.finalize(
            campaign, scenario, result, flight_dir=flight_dir)
    return result


def run_shard(campaign: Campaign, tag: str) -> Aggregate:
    """Replay a single shard (e.g. a quarantined one) in-process."""
    spec = campaign.shard_by_tag(tag)
    fn = get_scenario(campaign.scenario).fn
    # Round-trip through canonical JSON exactly like pooled/cached
    # results, so a replay is byte-comparable with campaign output.
    return Aggregate.from_json(
        _run_shard_inline(spec, fn, attempt=0, faults=None))


# ----------------------------------------------------------------------
def _run_serial(todo, scenario, faults, max_attempts, backoff,
                record_ok, record_quarantine, telemetry=None,
                flight=None) -> None:
    pid = os.getpid()
    for spec in todo:
        state = _ShardState(spec)
        while state.attempts < max_attempts:
            attempt = state.attempts
            state.attempts += 1
            if flight is not None:
                flight.begin_shard(spec.tag, attempt)
            t0 = telemetry.now() if telemetry is not None else 0.0
            try:
                record_ok(spec, state.attempts,
                          _run_shard_inline(spec, scenario.fn, attempt, faults))
                if telemetry is not None:
                    telemetry.record({"ev": "shard", "pid": pid,
                                      "tag": spec.tag, "attempt": attempt,
                                      "t0": t0, "t1": telemetry.now(),
                                      "ok": True})
                break
            except Exception as exc:  # noqa: BLE001 - any shard failure retries
                tb = traceback.format_exc()
                if flight is not None:
                    flight.dump_crash(spec.tag, attempt, tb)
                state.errors.append(f"{type(exc).__name__}: {exc}\n{tb}")
                if telemetry is not None:
                    telemetry.record({"ev": "shard", "pid": pid,
                                      "tag": spec.tag, "attempt": attempt,
                                      "t0": t0, "t1": telemetry.now(),
                                      "ok": False})
                if state.attempts < max_attempts:
                    if telemetry is not None:
                        telemetry.record({"ev": "retry", "t": telemetry.now(),
                                          "tag": spec.tag,
                                          "attempt": state.attempts,
                                          "error": type(exc).__name__})
                    time.sleep(backoff.next())
        else:
            record_quarantine(state)


def _run_pool(campaign, todo, scenario, faults, workers, batch_size, ctx,
              max_attempts, shard_timeout, backoff,
              record_ok, record_quarantine, telemetry=None,
              flight_dir=None) -> int:
    """Persistent-pool execution; returns the number of dispatched batches."""
    spec_json = campaign.spec_json()
    epoch = telemetry.epoch if telemetry is not None else None
    flight_arg = str(flight_dir) if flight_dir is not None else None

    def make_pool(n: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=n, mp_context=ctx,
            initializer=_worker_init,
            initargs=(spec_json, epoch, flight_arg))

    pending: deque = deque(
        plan_batches([_ShardState(spec) for spec in todo],
                     workers, batch_size, scenario))
    pool = make_pool(workers)
    in_flight: Dict[object, Tuple[List[_ShardState], float]] = {}
    abandoned = False
    dispatched = 0
    try:
        while pending or in_flight:
            pool_broken = False
            # Keep the pool saturated but bounded: 2 queued per slot.
            while pending and len(in_flight) < 2 * workers:
                batch = pending.popleft()
                tasks: List[_Task] = []
                for state in batch:
                    fault_mode = (faults.mode if faults is not None
                                  and faults.active(state.spec.tag, state.attempts)
                                  else None)
                    tasks.append((state.spec.tag, state.attempts, fault_mode))
                    state.attempts += 1
                try:
                    fut = pool.submit(_execute_batch, tuple(tasks))
                except BrokenProcessPool:
                    pool_broken = True
                    for state in batch:
                        state.errors.append("BrokenProcessPool: submit refused")
                        _requeue(state, pending, max_attempts,
                                 record_quarantine, telemetry)
                    break
                dispatched += 1
                if telemetry is not None:
                    telemetry.record({"ev": "dispatch", "t": telemetry.now(),
                                      "batch": dispatched, "n": len(tasks)})
                in_flight[fut] = (batch,
                                  time.monotonic()
                                  + shard_timeout * max(1, len(batch)))

            done, _ = wait(list(in_flight), timeout=0.25,
                           return_when=FIRST_COMPLETED)
            casualties: List[_ShardState] = []
            for fut in done:
                batch, _deadline = in_flight.pop(fut)
                try:
                    results, worker_events = fut.result()
                except BrokenProcessPool:
                    pool_broken = True
                    for state in batch:
                        state.errors.append(
                            f"BrokenProcessPool: worker died (shard "
                            f"{state.spec.tag!r}, attempt {state.attempts})")
                    casualties.extend(batch)
                except Exception as exc:  # noqa: BLE001 - whole batch failed
                    for state in batch:
                        state.errors.append(f"{type(exc).__name__}: {exc}")
                        _requeue(state, pending, max_attempts,
                                 record_quarantine, telemetry)
                else:
                    by_tag = {state.spec.tag: state for state in batch}
                    for tag, status, payload in results:
                        state = by_tag.pop(tag)
                        if status == "ok":
                            record_ok(state.spec, state.attempts, payload)
                        else:
                            state.errors.append(payload)
                            _requeue(state, pending, max_attempts,
                                     record_quarantine, telemetry)
                    for state in by_tag.values():  # pragma: no cover - defensive
                        state.errors.append("shard missing from batch result")
                        _requeue(state, pending, max_attempts,
                                 record_quarantine, telemetry)
                    if telemetry is not None:
                        telemetry.absorb(worker_events)
                        telemetry.record({"ev": "batch_done",
                                          "t": telemetry.now(),
                                          "n": len(results)})

            if pool_broken:
                # A dead worker poisons every in-flight future, and the
                # executor API cannot say *which* shard killed it.  Rerun
                # each suspect alone in a single-worker pool: innocents
                # complete, the culprit breaks its private pool and is
                # charged — repeatedly, until quarantined — without
                # collateral.
                suspects = casualties + [
                    state for batch, _ in in_flight.values() for state in batch]
                in_flight.clear()
                pool.shutdown(wait=True, cancel_futures=True)
                if telemetry is not None:
                    telemetry.record({"ev": "pool_break", "t": telemetry.now(),
                                      "suspects": len(suspects)})
                time.sleep(backoff.next())
                _isolate_suspects(suspects, faults, max_attempts,
                                  shard_timeout, make_pool, pending,
                                  record_ok, record_quarantine, telemetry)
                pool = make_pool(workers)
                continue

            now = time.monotonic()
            for fut, (batch, deadline) in list(in_flight.items()):
                if now >= deadline:
                    # Can't kill one worker through the executor API —
                    # abandon the future (its late result, if any, is
                    # ignored because the entry leaves in_flight) and
                    # charge the attempt; members retry as singletons.
                    del in_flight[fut]
                    abandoned = True
                    if telemetry is not None:
                        telemetry.record({"ev": "timeout",
                                          "t": telemetry.now(),
                                          "n": len(batch)})
                    for state in batch:
                        state.errors.append(
                            f"timeout after {shard_timeout * max(1, len(batch)):.1f}s")
                        _requeue(state, pending, max_attempts,
                                 record_quarantine, telemetry)
    finally:
        # wait= joins the workers so nothing races interpreter teardown;
        # only skip the join when a timed-out batch was abandoned and a
        # zombie worker may still be chewing on it.
        pool.shutdown(wait=not abandoned, cancel_futures=True)
    return dispatched


def _isolate_suspects(suspects, faults, max_attempts, shard_timeout,
                      make_pool, pending: deque,
                      record_ok, record_quarantine, telemetry=None) -> None:
    """Identify which broken-pool casualty actually kills workers.

    Each suspect gets one attempt in its own single-worker (warm) pool.
    An innocent batch-mate completes and is recorded; the culprit
    breaks (only) its private pool, is charged the attempt, and is
    re-queued — or quarantined once its budget is spent.
    """
    for state in suspects:
        if state.attempts >= max_attempts:
            record_quarantine(state)
            continue
        fault_mode = (faults.mode if faults is not None
                      and faults.active(state.spec.tag, state.attempts)
                      else None)
        task = (state.spec.tag, state.attempts, fault_mode)
        state.attempts += 1
        iso = make_pool(1)
        try:
            results, worker_events = iso.submit(
                _execute_batch, (task,)).result(timeout=shard_timeout)
            if telemetry is not None:
                telemetry.absorb(worker_events)
            tag, status, payload = results[0]
            if status == "ok":
                record_ok(state.spec, state.attempts, payload)
            else:
                state.errors.append(payload)
                _requeue(state, pending, max_attempts, record_quarantine,
                         telemetry)
        except BrokenProcessPool:
            state.errors.append(
                f"BrokenProcessPool: worker died in isolation running shard "
                f"{state.spec.tag!r} (attempt {state.attempts})")
            _requeue(state, pending, max_attempts, record_quarantine,
                     telemetry)
        except Exception as exc:  # noqa: BLE001 - incl. TimeoutError
            state.errors.append(
                f"{type(exc).__name__}: {exc} "
                f"[isolation of shard {state.spec.tag!r}, "
                f"attempt {state.attempts}]")
            _requeue(state, pending, max_attempts, record_quarantine,
                     telemetry)
        finally:
            iso.shutdown(wait=True, cancel_futures=True)


def _requeue(state: _ShardState, pending: deque, max_attempts: int,
             record_quarantine, telemetry=None) -> None:
    if state.attempts >= max_attempts:
        record_quarantine(state)
    else:
        if telemetry is not None:
            telemetry.record({
                "ev": "retry", "t": telemetry.now(), "tag": state.spec.tag,
                "attempt": state.attempts,
                "error": (state.errors[-1].splitlines()[0]
                          if state.errors else None)})
        pending.append([state])   # retries run as singleton batches


__all__ = [
    "FaultInjection",
    "FleetResult",
    "MAX_BATCH",
    "OVERSUBSCRIBE",
    "ShardError",
    "ShardOutcome",
    "batch_cost_efficiency",
    "plan_batches",
    "run_campaign",
    "run_shard",
    "usable_cpus",
]
