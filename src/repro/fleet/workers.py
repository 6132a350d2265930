"""Sharded campaign execution: one scheduling loop over any executor.

:func:`run_campaign` expands a :class:`Campaign` into shards, serves
what it can from the cache, and drives the rest through one scheduling
loop (:class:`_Scheduler`) over a :class:`concurrent.futures.Executor`:
:class:`_InlineExecutor` runs batches synchronously in the driver
(``workers <= 1``); a persistent warm :class:`ProcessPoolExecutor` runs
them in parallel; and after a pool break with more than one shard in
flight, the suspects re-enter the same loop as singleton batches on a
single-worker pool, where a break names its culprit.  Shards run only
in :func:`_execute_batch`, and every result comes back through the same
collection, retry, deadline and quarantine code, so the worker count
cannot change how a failure is handled.  Per-shard aggregates fold
through an :class:`OrderedReducer` in shard-index order whatever order
they arrive in, so the merged result — and any report rendered from
it — is byte-identical at any width, batching or completion order.

- **Warm workers**: the pool initializer installs the shard specs and
  the scenario function once; a task is then a tuple of
  ``(tag, attempt, fault_mode)``.  The pool forks where the platform
  can (workers inherit the imported stack; the driver is
  single-threaded, so fork is safe), else spawns.
- **Batches**: :func:`plan_batches` rides many small shards on one
  task; each shard is still recorded, cached, retried and quarantined
  on its own, and results merge as batches complete.
- **Failures** (docs/FLEET.md §5): a shard that raises, or whose result
  is not an aggregate, is charged an attempt and re-queued alone after
  a decorrelated-jitter delay seeded from the campaign.  A dead worker
  fails every batch in flight: one shard in flight is charged; more
  are isolated uncharged.  A batch past its deadline (``SHARD_TIMEOUT``
  x its length) is charged per shard and the pool's workers are killed;
  the other batches in flight re-run uncharged.  A shard out of
  attempts (``MAX_ATTEMPTS``) is **quarantined**: left out of the merge, listed in the
  report, replayable from its tag (``python -m repro fleet --replay``).

:class:`FaultInjection` names shards that must raise or kill their
worker; on the inline executor a kill raises, so a fault never takes
the driver down.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

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

#: Attempts a shard gets before it is quarantined.
MAX_ATTEMPTS = 3

#: Seconds one shard may run; a batch's deadline is this times its length.
SHARD_TIMEOUT = 300.0

#: Decorrelated-jitter delay before a failed shard's retry: base and cap,
#: in seconds (one schedule per campaign, seeded from its base seed).
RETRY_BACKOFF_BASE = 0.05
RETRY_BACKOFF_CAP = 2.0


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
    #: only the last); a shard that raised carries its traceback.
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
    #: batches dispatched to an executor (0 for fully cached runs)
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
# Executor side: installed shard state + batch execution
# ----------------------------------------------------------------------
#: Per-process shard state: installed by :func:`_install`, once per pool
#: worker (it is the pool initializer) or in the driver by
#: :class:`_InlineExecutor`.  A task is then a ``(tag, attempt,
#: fault_mode)`` tuple: specs and scenario are never shipped per attempt.
_WORKER: dict = {}


def _install(specs: Dict[str, ShardSpec], fn, epoch: Optional[float],
             flight_dir, inline: bool) -> None:
    """Install what :func:`_execute_batch` runs with in this process.

    ``epoch`` (the driver collector's ``time.monotonic()``; system-wide,
    so offsets line up across processes) turns on telemetry events;
    ``flight_dir`` arms the crash flight recorder.
    """
    flight = None
    if flight_dir is not None:
        flight = FlightRecorder(flight_dir)
        flight.install()
    _WORKER.update(specs=specs, fn=fn, epoch=epoch, flight=flight,
                   inline=inline)


class _InlineExecutor(Executor):
    """Runs each submitted batch synchronously in the driver."""

    def __init__(self, specs: Dict[str, ShardSpec], fn,
                 epoch: Optional[float], flight_dir) -> None:
        _install(specs, fn, epoch, flight_dir, inline=True)

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # noqa: BLE001 - delivered like a pool's
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False):
        if _WORKER.get("flight") is not None:
            _WORKER["flight"].uninstall()
        _WORKER.clear()


#: One shard task on the wire: (tag, attempt, injected fault mode).
_Task = Tuple[str, int, Optional[str]]
#: One shard result on the wire: (tag, "ok"|"err", aggregate JSON | error).
_TaskResult = Tuple[str, str, str]
#: One batch result on the wire: per-shard results + telemetry events
#: (empty list when the driver did not pass an epoch — results first so
#: the determinism-bearing payload never moves).
_BatchResult = Tuple[List[_TaskResult], List[dict]]


def _error_text(exc: BaseException) -> str:
    """An attempt's error record: the exception and its traceback."""
    return f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"


def _execute_batch(tasks: Sequence[_Task]) -> _BatchResult:
    """Run a batch of shard tasks with the installed shard state.

    Per-shard failures are *data*, not exceptions: a raising shard —
    an injected fault included — is reported as ``("err", message)``
    carrying its traceback (and leaves a flight crash dump), and its
    batch-mates still run.  Only a process-killing fault (or a genuine
    crash) loses the batch, which the scheduler repairs by isolation.
    """
    specs: Dict[str, ShardSpec] = _WORKER["specs"]
    fn = _WORKER["fn"]
    epoch = _WORKER["epoch"]
    flight: Optional[FlightRecorder] = _WORKER["flight"]
    can_die = not _WORKER["inline"]
    pid = os.getpid()
    events: List[dict] = []
    b0 = time.monotonic() - epoch if epoch is not None else 0.0
    out: List[_TaskResult] = []
    for tag, attempt, fault_mode in tasks:
        if flight is not None:
            # Spill *before* the kill check: a dying worker must leave
            # a flight artifact naming its victim shard behind.
            flight.begin_shard(tag, attempt)
        t0 = time.monotonic() - epoch if epoch is not None else 0.0
        try:
            if fault_mode == "kill" and can_die:
                # A signal death, as the OOM killer deals it: no cleanup runs.
                os.kill(os.getpid(), signal.SIGKILL)
            if fault_mode:
                raise ShardError(f"injected {fault_mode} fault in shard "
                                 f"{tag!r} (attempt {attempt})")
            spec = specs[tag]
            out.append((tag, "ok", fn(spec.seed, spec.param_dict()).to_json()))
            ok = True
        except Exception as exc:  # noqa: BLE001 - reported per shard, retried
            error = _error_text(exc)
            if flight is not None:
                flight.dump_crash(tag, attempt, error)
            out.append((tag, "err", error))
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
        target = math.fsum(costs) / n_batches
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


def _pool_context():
    """``fork`` where the platform has it, otherwise ``spawn``.

    Fork workers inherit the parent's already-imported simulation
    stack, the warmest possible start (a 4-shard 2-worker campaign:
    ~20 ms, vs ~0.2 s for spawn, which re-imports the stack per worker —
    docs/PERF.md §3).  The driver is single-threaded, so fork is safe.
    """
    return multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn")


def _close(executor: Executor, hung: bool) -> None:
    """Shut ``executor`` down and join it.  ``hung``: a worker may still
    run a shard nobody waits for, so kill the pool's workers (its own
    pid -> process table) before the join."""
    if hung:
        for process in list((getattr(executor, "_processes", None)
                             or {}).values()):
            process.kill()
    executor.shutdown(wait=True, cancel_futures=True)


# ----------------------------------------------------------------------
# The scheduling loop
# ----------------------------------------------------------------------
@dataclass
class _ShardState:
    spec: ShardSpec
    attempts: int = 0
    errors: List[str] = field(default_factory=list)


#: A queued batch: (monotonic time it may be dispatched at, its shards).
_Queued = Tuple[float, List[_ShardState]]
ProgressFn = Callable[[int, int, float], None]


@dataclass
class _Scheduler:
    """Dispatch, collection, retry with backoff, deadlines, pool breaks
    and quarantine for one campaign, over any executor."""

    faults: Optional[FaultInjection]
    backoff: DecorrelatedBackoff
    telemetry: Optional[TelemetryCollector]
    record_ok: Callable[[_ShardState, Aggregate, str], None]
    record_quarantine: Callable[[_ShardState], None]
    dispatched: int = 0

    def run(self, make_executor: Callable[[int], Executor], width: int,
            depth: int, batches: Sequence[List[_ShardState]]) -> None:
        """Drive ``batches`` on executors from ``make_executor(width)``,
        ``depth`` at a time, until every shard is ok or quarantined."""
        pending: Deque[_Queued] = deque((0.0, batch) for batch in batches)
        in_flight: Dict[Future, Tuple[List[_ShardState], float]] = {}
        executor = make_executor(width)
        try:
            while pending or in_flight:
                lost = self._dispatch(executor, pending, in_flight, depth)
                if not lost:
                    wake = [deadline for _, deadline in in_flight.values()]
                    if pending and len(in_flight) < depth:
                        wake.append(pending[0][0])
                    lost = self._collect(pending, in_flight, max(
                        0.0, min(wake) - time.monotonic()))
                now = time.monotonic()
                expired = [future for future, (_, deadline)
                           in in_flight.items() if now >= deadline]
                if not (lost or expired):
                    continue
                if lost:
                    # A dead worker fails every batch in flight, and the
                    # executor cannot say which shard killed it.
                    suspects = lost + [state for batch, _ in in_flight.values()
                                       for state in batch]
                    in_flight.clear()
                    _close(executor, hung=True)
                    self._event("pool_break", suspects=len(suspects))
                    if len(suspects) == 1:
                        culprit = suspects[0]
                        self._fail(culprit, (
                            f"BrokenProcessPool: worker died running shard "
                            f"{culprit.spec.tag!r} (attempt "
                            f"{culprit.attempts})"), pending)
                    else:
                        for state in suspects:
                            state.attempts -= 1
                        self.run(make_executor, 1, 1,
                                 [[state] for state in suspects])
                else:
                    for future in expired:
                        batch, _ = in_flight.pop(future)
                        self._event("timeout", n=len(batch))
                        for state in batch:
                            self._fail(state, f"timeout after "
                                       f"{SHARD_TIMEOUT * len(batch):.1f}s",
                                       pending)
                    for batch, _ in in_flight.values():
                        for state in batch:
                            state.attempts -= 1
                        pending.appendleft((0.0, batch))
                    in_flight.clear()
                    _close(executor, hung=True)
                executor = make_executor(width)
        finally:
            _close(executor, hung=bool(in_flight))

    def _dispatch(self, executor: Executor, pending: Deque[_Queued],
                  in_flight: dict, depth: int) -> List[_ShardState]:
        """Submit ready batches until ``depth`` are in flight; returns
        the shards of a batch refused by an already-broken pool."""
        while (pending and len(in_flight) < depth
               and pending[0][0] <= time.monotonic()):
            _, batch = pending.popleft()
            tasks = []
            for state in batch:
                tag, faults = state.spec.tag, self.faults
                tasks.append((tag, state.attempts, faults.mode
                              if faults is not None
                              and faults.active(tag, state.attempts)
                              else None))
                state.attempts += 1
            try:
                future = executor.submit(_execute_batch, tuple(tasks))
            except BrokenProcessPool:
                return batch
            self.dispatched += 1
            self._event("dispatch", batch=self.dispatched, n=len(batch))
            in_flight[future] = (
                batch, time.monotonic() + SHARD_TIMEOUT * len(batch))
        return []

    def _collect(self, pending: Deque[_Queued], in_flight: dict,
                 timeout: float) -> List[_ShardState]:
        """Record every batch that finishes within ``timeout``; returns
        the shards of batches lost to a dead worker."""
        if not in_flight:
            time.sleep(timeout)     # only a backed-off retry is left
            return []
        done, _ = wait(in_flight, timeout=timeout,
                       return_when=FIRST_COMPLETED)
        lost: List[_ShardState] = []
        for future in done:
            batch, _ = in_flight.pop(future)
            try:
                results, events = future.result()
            except BrokenProcessPool:
                lost.extend(batch)
                continue
            except Exception as exc:  # noqa: BLE001 - the batch came back unreadable
                for state in batch:
                    self._fail(state, _error_text(exc), pending)
                continue
            for state, (_tag, status, payload) in zip(batch, results):
                if status == "ok":
                    try:
                        aggregate = Aggregate.from_json(payload)
                    except (ValueError, KeyError, TypeError) as exc:
                        payload = _error_text(exc)   # malformed aggregate
                    else:
                        self.record_ok(state, aggregate, payload)
                        continue
                self._fail(state, payload, pending)
            if self.telemetry is not None:
                self.telemetry.absorb(events)
                self._event("batch_done", n=len(results))
        return lost

    def _fail(self, state: _ShardState, error: str,
              pending: Deque[_Queued]) -> None:
        """Charge a failed attempt: quarantine the shard when it has none
        left, else re-queue it alone after a backoff delay."""
        state.errors.append(error)
        if state.attempts >= MAX_ATTEMPTS:
            self.record_quarantine(state)
            return
        self._event("retry", tag=state.spec.tag, attempt=state.attempts,
                    error=error.splitlines()[0])
        pending.append((time.monotonic() + self.backoff.next(), [state]))

    def _event(self, kind: str, **fields) -> None:
        if self.telemetry is not None:
            self.telemetry.record({"ev": kind, "t": self.telemetry.now(),
                                   **fields})


# ----------------------------------------------------------------------
# Campaign runner
# ----------------------------------------------------------------------
def run_campaign(
    campaign: Campaign,
    *,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    faults: Optional[FaultInjection] = None,
    progress: Optional[ProgressFn] = None,
    batch_size: Optional[int] = None,
    telemetry: Optional[TelemetryCollector] = None,
    flight_dir=None,
) -> FleetResult:
    """Run every shard of ``campaign`` and merge the results.

    ``workers <= 1`` runs the shards in this process; otherwise on a
    persistent warm process pool of that size.  ``batch_size`` pins the
    shards-per-task batch (``None`` auto-tunes, ``1`` restores unbatched
    dispatch).  ``cache`` (optional) is consulted before any execution
    and updated after every successful shard; a run that ends with every
    shard ok also records its merge there, and a re-run whose cache
    directory still verifies against that record is served from it
    without parsing a shard (:mod:`repro.fleet.cache`).

    ``telemetry`` (optional :class:`TelemetryCollector`) turns on the
    wall-clock telemetry bus; the finalized document lands in
    ``FleetResult.telemetry``.  ``flight_dir`` (optional path) arms the
    crash flight recorder wherever shards run; quarantine records then
    carry the matching flight artifact path.  Neither affects any
    aggregate byte — pinned by ``tests/test_fleet_telemetry.py``.
    """
    shards = campaign.shards()
    scenario = get_scenario(campaign.scenario)
    t0 = time.monotonic()
    outcomes: Dict[int, ShardOutcome] = {}

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

    def record_ok(state: _ShardState, agg: Aggregate, agg_json: str) -> None:
        spec = state.spec
        reducer.offer(spec.index, agg)
        outcomes[spec.index] = ShardOutcome(
            tag=spec.tag, index=spec.index, status="ok",
            attempts=state.attempts, scenario=campaign.scenario)
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

    scheduler = _Scheduler(
        faults,
        DecorrelatedBackoff.from_tag(
            campaign.base_seed, f"fleet-retry:{campaign.name}",
            base=RETRY_BACKOFF_BASE, cap=RETRY_BACKOFF_CAP),
        telemetry, record_ok, record_quarantine)
    width = max(1, workers)
    installed = ({spec.tag: spec for spec in todo}, scenario.fn,
                 telemetry.epoch if telemetry is not None else None,
                 flight_dir)
    start_method: Optional[str] = None
    if width == 1:
        depth = 1   # a batch runs inside submit: nothing to keep queued

        def make_executor(_width: int) -> Executor:
            return _InlineExecutor(*installed)
    else:
        depth = 2 * width   # workers never idle while the driver collects
        ctx = _pool_context()
        start_method = ctx.get_start_method()

        def make_executor(n: int) -> Executor:
            return ProcessPoolExecutor(max_workers=n, mp_context=ctx,
                                       initializer=_install,
                                       initargs=(*installed, False))
    if todo:
        scheduler.run(make_executor, width, depth, plan_batches(
            [_ShardState(spec) for spec in todo], width, batch_size,
            scenario))

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
        workers=width,
        n_batches=scheduler.dispatched,
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
    return Aggregate.from_json(fn(spec.seed, spec.param_dict()).to_json())


__all__ = [
    "FaultInjection",
    "FleetResult",
    "MAX_BATCH",
    "OVERSUBSCRIBE",
    "ShardError",
    "ShardOutcome",
    "plan_batches",
    "run_campaign",
    "run_shard",
    "usable_cpus",
]
