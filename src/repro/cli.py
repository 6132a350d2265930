"""Command-line interface: quick demos, fleet campaigns, report browsing.

Usage (also via ``python -m repro``):

    python -m repro list                 # demos, campaigns, saved reports
    python -m repro demo quickstart      # run a built-in demo
    python -m repro demo anomaly
    python -m repro demo table2
    python -m repro fleet                # run the default (256-shard) campaign
    python -m repro fleet smoke -w 2     # a named campaign on 2 workers
    python -m repro fleet city_coverage-metro  # the 10^6-user city tier
    python -m repro show T2              # print a saved benchmark report
    python -m repro show cell256         # fleet reports are found too
    python -m repro check                # bounded state-space explorer
    python -m repro selftest             # double-run trace-fingerprint diff
    python -m repro obs                  # traced run -> Perfetto/qlog artifacts

The demos are self-contained, seconds-long simulations over the public
API; the full experiment suite lives in ``benchmarks/`` (run with
``pytest benchmarks/ --benchmark-only``) and saves its rendered reports
under ``benchmarks/results/`` where ``show`` finds them.  ``fleet``
runs a sharded multi-process campaign (see ``docs/FLEET.md``; the
``city_coverage-*`` and ``cell_contention`` campaigns are the city
scale of ``docs/SCALE.md``), saves its report under
``benchmarks/results/fleet/`` and ends its stderr summary with the
merged aggregate's fingerprint, so two runs compare with one grep.

This module and ``repro.fleet`` are the harness: the only code in
``src/`` that reads a clock (progress lines, wall seconds, states/s).
Everything they run is a pure function of ``(scenario, seed)``
(docs/DETERMINISM.md).
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import sys
import time
from typing import Callable, Dict

from repro.analysis.report import ascii_table, fleet_report, format_rate, format_time
from repro.check.explorer import Budget
from repro.check.harnesses import DEFAULT_HARNESSES, HARNESSES

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"
FLEET_RESULTS_DIR = RESULTS_DIR / "fleet"

#: Per-harness ``repro check`` budgets.  "small" is the CI gate: together
#: the three default harnesses must clear 10^4 explored states in a
#: couple of minutes.  "full" digs deeper for local soak runs.
BUDGETS: Dict[str, Dict[str, Budget]] = {
    "small": {
        "breaker": Budget(max_states=4_500, max_depth=14, max_branch=48),
        "degradation": Budget(max_states=6_000, max_depth=9, max_branch=32),
        "mptcp": Budget(max_states=5_000, max_depth=8, max_branch=32),
        "selfcheck": Budget(max_states=4_500, max_depth=14, max_branch=48),
    },
    "full": {
        "breaker": Budget(max_states=20_000, max_depth=20, max_branch=64),
        "degradation": Budget(max_states=25_000, max_depth=12, max_branch=48),
        "mptcp": Budget(max_states=20_000, max_depth=10, max_branch=48),
        "selfcheck": Budget(max_states=20_000, max_depth=20, max_branch=64),
    },
}


# ----------------------------------------------------------------------
# Demos
# ----------------------------------------------------------------------
def demo_quickstart() -> str:
    """A 10 s MARTP session over cloud WiFi."""
    from repro.core import OffloadSession, ScenarioBuilder, mos_score

    scenario = ScenarioBuilder(seed=7).single_path(rtt=0.036, up_bps=12e6)
    session = OffloadSession(scenario)
    report = session.run(10.0)
    rows = [
        [r.name, f"{r.delivery_ratio:.1%}", f"{r.in_time_ratio:.1%}",
         format_time(r.mean_latency)]
        for r in report.per_class.values()
    ]
    table = ascii_table(["stream", "delivered", "in time", "mean latency"], rows,
                        title="MARTP over cloud-WiFi (36 ms RTT, 12 Mb/s up)")
    return (f"{table}\n\nvideo quality {report.mean_video_quality:.0%}, "
            f"MOS {mos_score(report):.2f}/5")


def demo_anomaly() -> str:
    """The 802.11 performance anomaly in five simulated seconds."""
    from repro.simnet.engine import Simulator
    from repro.wireless.wifi import WifiCell, WifiStation, anomaly_throughput

    sim = Simulator(seed=1)
    cell = WifiCell(sim)
    a = cell.add_station(WifiStation("A", 54e6))
    b = cell.add_station(WifiStation("B", 54e6))
    sim.run(until=5.0)
    cell.set_rate("B", 18e6)
    sim.run(until=10.0)
    rows = [
        ["both at 54 Mb/s", format_rate(a.throughput_bps(0, 5)),
         format_rate(b.throughput_bps(0, 5)),
         format_rate(anomaly_throughput([54e6, 54e6])[0])],
        ["B at 18 Mb/s", format_rate(a.throughput_bps(5, 10)),
         format_rate(b.throughput_bps(5, 10)),
         format_rate(anomaly_throughput([54e6, 18e6])[0])],
    ]
    return ascii_table(["phase", "station A", "station B", "analytic"], rows,
                       title="802.11 performance anomaly (Figure 2)")


def demo_table2() -> str:
    """The four CloudRidAR offloading scenarios of Table II."""
    from repro.mar.application import APP_ARCHETYPES
    from repro.mar.offload import OffloadExecutor
    from repro.simnet.engine import Simulator

    rows = []
    for name, rtt in (("local server / WiFi", 0.008),
                      ("cloud server / WiFi", 0.036),
                      ("university / WiFi", 0.072),
                      ("cloud server / LTE", 0.120)):
        executor = OffloadExecutor.for_table2(
            Simulator(seed=11), rtt, APP_ARCHETYPES["orientation"])
        result = executor.run(n_frames=100)
        rows.append([name, format_time(rtt), format_time(result.mean_link_rtt),
                     format_time(result.mean_offloaded_latency)])
    return ascii_table(
        ["scenario", "paper RTT", "measured RTT", "frame latency"], rows,
        title="Table II — CloudRidAR offloading scenarios")


DEMOS: Dict[str, Callable[[], str]] = {
    "quickstart": demo_quickstart,
    "anomaly": demo_anomaly,
    "table2": demo_table2,
}


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_list(_args: argparse.Namespace) -> int:
    from repro.fleet import demo_campaigns

    print("demos (python -m repro demo <name>):")
    for name, fn in DEMOS.items():
        print(f"  {name:<12} {fn.__doc__.strip().splitlines()[0]}")
    print("\nfleet campaigns (python -m repro fleet <name>):")
    for name, c in demo_campaigns().items():
        print(f"  {name:<20} {c.n_shards} shards of {c.scenario}")
    print("\nsaved experiment reports (python -m repro show <id>):")
    saved = sorted(RESULTS_DIR.glob("*.txt")) if RESULTS_DIR.is_dir() else []
    saved += sorted(FLEET_RESULTS_DIR.glob("*.txt")) \
        if FLEET_RESULTS_DIR.is_dir() else []
    if saved:
        for path in saved:
            kind = "fleet" if path.parent.name == "fleet" else "bench"
            print(f"  {path.stem:<12} [{kind}]")
    else:
        print("  (none — run `pytest benchmarks/ --benchmark-only` "
              "or `python -m repro fleet` first)")
    print("\ntooling:")
    print("  check        bounded state-space explorer (docs/CHECKING.md)")
    print("  selftest     determinism smoke: double-run one shard, diff "
          "trace fingerprints")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    fn = DEMOS.get(args.name)
    if fn is None:
        print(f"unknown demo {args.name!r}; try: {', '.join(DEMOS)}",
              file=sys.stderr)
        return 2
    print(fn())
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    matches = sorted(RESULTS_DIR.glob(f"{args.experiment}*.txt")) \
        if RESULTS_DIR.is_dir() else []
    matches += sorted(FLEET_RESULTS_DIR.glob(f"{args.experiment}*.txt")) \
        if FLEET_RESULTS_DIR.is_dir() else []
    if not matches:
        print(f"no saved report matching {args.experiment!r} under "
              f"{RESULTS_DIR}", file=sys.stderr)
        return 2
    for path in matches:
        print(f"== {path.stem} ==")
        print(path.read_text().rstrip())
        print()
    return 0


def _fleet_progress(done: int, total: int, elapsed: float) -> None:
    """One-line progress/ETA on stderr (stdout stays report-only)."""
    eta = (elapsed / done) * (total - done) if done else float("inf")
    eta_s = f"{eta:5.1f}s" if eta != float("inf") else "   ??"
    rate = done / elapsed if elapsed > 0 else 0.0
    sys.stderr.write(f"\r[fleet] {done}/{total} shards "
                     f"({done / total:4.0%})  {rate:6.1f} shards/s  "
                     f"elapsed {elapsed:5.1f}s  eta {eta_s}")
    sys.stderr.flush()
    if done == total:
        sys.stderr.write("\n")


def _emit_telemetry(result, out_dir: pathlib.Path, quiet: bool) -> int:
    """Write + validate the telemetry artifacts for a finished campaign.

    Emits ``campaign_telemetry.json`` (canonical document) and
    ``campaign_timeline.trace.json`` (Chrome trace-event worker
    timelines, validated with the obs exporter's validator), prints the
    telemetry table, and returns non-zero if the timeline fails schema
    validation.
    """
    import json as _json

    from repro.analysis.report import fleet_telemetry_table
    from repro.fleet import worker_timeline_json, write_campaign_telemetry
    from repro.obs import validate_chrome_trace

    doc = result.telemetry
    out_dir.mkdir(parents=True, exist_ok=True)
    tel_path = write_campaign_telemetry(
        out_dir / "campaign_telemetry.json", doc)
    timeline = worker_timeline_json(doc)
    timeline_path = out_dir / "campaign_timeline.trace.json"
    timeline_path.write_text(timeline + "\n")
    problems = validate_chrome_trace(_json.loads(timeline))
    print()
    print(fleet_telemetry_table(doc))
    if not quiet:
        print(f"[fleet] telemetry: {tel_path} · timeline: {timeline_path}",
              file=sys.stderr)
    if problems:
        for p in problems:
            print(f"[fleet] TELEMETRY TIMELINE INVALID: {p}", file=sys.stderr)
        return 1
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import (FaultInjection, ResultCache, TelemetryCollector,
                             demo_campaigns, run_campaign, run_shard,
                             usable_cpus)

    campaigns = demo_campaigns()
    campaign = campaigns.get(args.campaign)
    if campaign is None:
        print(f"unknown campaign {args.campaign!r}; "
              f"try: {', '.join(campaigns)}", file=sys.stderr)
        return 2
    if args.seeds:
        campaign.seeds = args.seeds

    if args.replay:
        agg = run_shard(campaign, args.replay)
        print(agg.to_json())
        return 0

    # Default to CPUs the process may *run on* (affinity/cgroup mask),
    # not the machine's core count — oversubscribing a restricted box
    # makes parallel runs slower than serial.
    workers = args.workers if args.workers is not None \
        else max(1, usable_cpus())
    cache = None if args.no_cache else ResultCache()
    faults = None
    if args.inject_fault:
        # Persistently kill the second shard's worker: exercises the
        # broken-pool retry path end-to-end and must end in quarantine.
        # The *second* shard so that, under multi-shard batches, the
        # dying worker has already fired engine events for its
        # batch-mate — the flight-recorder spill it leaves is non-empty.
        shards = campaign.shards()
        victim = shards[1 if len(shards) > 1 else 0].tag
        faults = FaultInjection(tags=(victim,), mode="kill")
    telemetry = TelemetryCollector() if args.telemetry else None
    flight_dir = pathlib.Path(args.flight_dir) if args.flight_dir else None
    if flight_dir is None and (args.expect_flight or args.inject_fault):
        # A fault-injection smoke without an explicit flight dir still
        # gets a recorder: the post-mortem artifact is the point.
        flight_dir = FLEET_RESULTS_DIR / "flight" / campaign.name

    t0 = time.monotonic()
    result = run_campaign(
        campaign, workers=workers, cache=cache, faults=faults,
        batch_size=args.batch_size,
        progress=None if args.quiet else _fleet_progress,
        telemetry=telemetry, flight_dir=flight_dir)
    text = fleet_report(result)

    FLEET_RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = FLEET_RESULTS_DIR / f"{campaign.name}.txt"
    out.write_text(text + "\n")
    print(text)
    status = 0
    if telemetry is not None:
        status = _emit_telemetry(result, FLEET_RESULTS_DIR, args.quiet)
    if cache is not None:
        failed = (f", {cache.write_errors} cache writes failed"
                  if cache.write_errors else "")
        print(f"[fleet] cache: {result.cache_hits} hits / "
              f"{result.cache_misses} misses "
              f"({result.cache_hits / max(1, len(result.outcomes)):.0%} "
              f"hit rate){failed}", file=sys.stderr)
    fingerprint = hashlib.sha256(
        result.aggregate.to_json().encode("utf-8")).hexdigest()
    print(f"[fleet] {workers} worker(s), {time.monotonic() - t0:.1f}s wall, "
          f"fingerprint {fingerprint[:16]}, report saved to {out}",
          file=sys.stderr)
    if args.expect_quarantine and not result.quarantined:
        print("[fleet] ERROR: expected the quarantine path to fire, "
              "but no shard was quarantined", file=sys.stderr)
        return 1
    if args.expect_flight:
        from repro.fleet import read_flight_dump

        quarantined = [o for o in result.outcomes
                       if o.status == "quarantined"]
        dumps = [read_flight_dump(o.flight) for o in quarantined if o.flight]
        if not dumps or any(d is None for d in dumps):
            print("[fleet] ERROR: expected a flight-recorder dump for every "
                  "quarantined shard, got "
                  f"{len(dumps)}/{len(quarantined)} readable", file=sys.stderr)
            return 1
        if not any(d.get("ring") for d in dumps):
            print("[fleet] ERROR: every flight-recorder dump has an empty "
                  "event ring — the recorder saw no engine events",
                  file=sys.stderr)
            return 1
        print(f"[fleet] flight recorder: {len(dumps)} quarantine dump(s) "
              f"verified (non-empty ring) under {flight_dir}", file=sys.stderr)
    return status


def cmd_check(args: argparse.Namespace) -> int:
    """Explore harness event orderings and fault placements
    (docs/CHECKING.md).

    Exits 0 when every harness explored clean — with ``--harness
    selfcheck``, when the seeded violation was found and its normal-engine replay
    reproduced it byte-identically; 1 on an invariant violation (its
    counterexample, Perfetto trace and qlog are written to ``--out``) or
    a failed self-check; 3 when fewer than ``--min-states`` states were
    explored.  The states/s rate is the only clock read: the explorer's
    budgets are counts.
    """
    import json

    from repro.check import explore, replay_counterexample

    out_dir = pathlib.Path(args.out) if args.out else RESULTS_DIR / "check"
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.harness == "all":
        names = list(DEFAULT_HARNESSES)
    else:
        names = [args.harness]
    total_states = 0
    failed = False
    summaries = []
    print(f"repro check: budget={args.budget} seed={args.seed}")
    for name in names:
        harness = HARNESSES[name]()
        t0 = time.perf_counter()
        result = explore(harness, args.seed, BUDGETS[args.budget][name])
        elapsed = time.perf_counter() - t0
        total_states += result.states
        rate = result.states / elapsed if elapsed > 0 else 0.0
        print(f"  {result.harness:<12} "
              f"{'FAIL' if result.violations else 'ok':<5} "
              f"states={result.states:<6} "
              f"unique={result.unique_states:<6} "
              f"pruned={result.pruned_visited:<5} "
              f"depth-hits={result.depth_limit_hits:<5} "
              f"truncated={result.truncated_branches:<4} "
              f"drained={result.finalized_leaves:<3} "
              f"({rate:,.0f} states/s)")
        replays = []
        for index, cex in enumerate(result.violations):
            for message in cex.violations:
                print(f"      violation: {message}")
            stem = f"counterexample-{result.harness}-{index}"
            (out_dir / f"{stem}.json").write_text(cex.to_json() + "\n")
            replay = replay_counterexample(cex, harness)
            replays.append(replay)
            (out_dir / f"{stem}.trace.json").write_text(json.dumps(
                replay.chrome_trace(), indent=2, sort_keys=True) + "\n")
            (out_dir / f"{stem}.qlog").write_text(replay.qlog() + "\n")
        summaries.append({**result.to_dict(), "elapsed_s": elapsed,
                          "replays_reproduced": [r.reproduced
                                                 for r in replays]})
        if name == "selfcheck":
            if not result.violations:
                print("  selfcheck FAILED: seeded violation was not found")
                failed = True
            elif not all(r.reproduced for r in replays):
                print("  selfcheck FAILED: replay did not reproduce the "
                      "violation byte-identically")
                failed = True
            else:
                print(f"  selfcheck: counterexample found, replay "
                      f"reproduced byte-identically "
                      f"(digest {result.violations[0].digest[:16]}...), "
                      f"obs trace valid -> {out_dir}")
        elif result.violations:
            failed = True
            print(f"      counterexample(s) written to {out_dir} "
                  f"(replay reproduced: "
                  f"{all(r.reproduced for r in replays)})")

    (out_dir / "summary.json").write_text(
        json.dumps({"budget": args.budget, "seed": args.seed,
                    "total_states": total_states,
                    "harnesses": summaries}, indent=2, sort_keys=True) + "\n")
    print(f"  total: {total_states} states explored "
          f"-> {out_dir / 'summary.json'}")
    if failed:
        return 1
    if args.min_states and total_states < args.min_states:
        print(f"repro check: coverage regression — {total_states} states "
              f"< --min-states {args.min_states}")
        return 3
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Run an instrumented scenario and export its observability artifacts.

    Emits three files under ``benchmarks/results/obs/`` (or ``--out``):
    a Perfetto-loadable Chrome trace, a qlog-schema JSON-lines stream,
    and a canonical metrics-registry dump — then prints the critical-
    path breakdown table and headline summary.  ``--check`` validates
    the trace schema and the stage-sum reconciliation invariant,
    exiting non-zero on any problem (the CI obs-smoke gate).
    """
    from repro.analysis.report import obs_breakdown_table
    from repro.obs import (OBS_SCENARIOS, chrome_trace_json, qlog_lines,
                           reconcile_frame_spans, run_obs_scenario, snapshot,
                           validate_chrome_trace)

    if args.scenario not in OBS_SCENARIOS:
        print(f"unknown obs scenario {args.scenario!r}; "
              f"try: {', '.join(OBS_SCENARIOS)}", file=sys.stderr)
        return 2

    run = run_obs_scenario(args.scenario, seed=args.seed, frames=args.frames)
    trace = chrome_trace_json(run.tracer)
    qlog = qlog_lines(tracer=run.tracer, log=run.event_log,
                      registry=run.registry)
    metrics = run.registry.to_json()

    out_dir = pathlib.Path(args.out) if args.out else RESULTS_DIR / "obs"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.scenario}-seed{args.seed}"
    (out_dir / f"{stem}.trace.json").write_text(trace + "\n")
    (out_dir / f"{stem}.qlog.jsonl").write_text(qlog + "\n")
    (out_dir / f"{stem}.metrics.json").write_text(metrics + "\n")

    if run.breakdowns:
        print(obs_breakdown_table(
            run.breakdowns,
            title=f"{args.scenario} (seed {args.seed}) critical path"))
        print()
    frames = snapshot(run.tracer)
    print("summary: " + ", ".join(
        f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in sorted(run.summary.items())))
    print(f"spans: {frames['spans']} total, {frames['traced']} frame "
          f"trees, {frames['unfinished']} unfinished")
    print(f"[obs] artifacts: {out_dir / stem}.{{trace.json,qlog.jsonl,"
          f"metrics.json}}", file=sys.stderr)

    if args.check:
        problems = validate_chrome_trace(trace)
        reconciled = bool(run.breakdowns)
        if reconciled:
            problems += reconcile_frame_spans(run.tracer)
        if problems:
            for p in problems:
                print(f"[obs] CHECK FAIL: {p}", file=sys.stderr)
            return 1
        print("[obs] check OK: trace schema valid" + (
            ", stage sums reconcile with frame latency (±1 µs)"
            if reconciled else ""))
    return 0


def cmd_selftest(_args: argparse.Namespace) -> int:
    """Determinism smoke: run one shard twice, diff trace fingerprints.

    The first shard of the ``smoke`` campaign exercises the engine,
    links, transports and aggregation end to end, and the two runs must
    hash to the same canonical JSON.  The fingerprint also covers the
    observability layer: each run re-traces an instrumented offload
    scenario and hashes its Chrome-trace export plus metrics registry,
    so a wall-clock leak into spans or counters fails here too.  CI checks
    the printed fingerprint on every interpreter; the guards of
    docs/DETERMINISM.md check the rest of what runs.
    """
    from repro.fleet import demo_campaigns, run_shard
    from repro.obs import chrome_trace_json, run_obs_scenario

    campaign = demo_campaigns()["smoke"]
    shard = campaign.shards()[0]
    digests = []
    for attempt in (1, 2):
        payload = run_shard(campaign, shard.tag).to_json()
        obs_run = run_obs_scenario("cell_offload", seed=11, frames=20)
        payload += chrome_trace_json(obs_run.tracer)
        payload += obs_run.registry.to_json()
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        digests.append(digest)
        print(f"[selftest] run {attempt}: shard {shard.tag} + obs trace "
              f"fingerprint {digest[:16]}")
    if digests[0] != digests[1]:
        print("[selftest] FAIL: identical (campaign, seed, shard) produced "
              "different aggregates or traces — determinism is broken",
              file=sys.stderr)
        return 1
    print("[selftest] OK: byte-identical aggregates and trace exports "
          "across two runs")
    return 0


def _run_options(verb: str) -> argparse.ArgumentParser:
    """The ``--seed``/``--out`` parent of the verbs that write artifacts.

    Built once per verb: a parent's actions are shared by every parser
    built from it, so one verb's ``set_defaults(seed=...)`` would also
    rewrite the default another verb sees.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int,
                        help="base simulation seed (default: %(default)s)")
    parent.add_argument("--out", default=None,
                        help="output directory (default: "
                             f"benchmarks/results/{verb}/)")
    return parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MAR networking reproduction: demos and reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list demos and saved reports").set_defaults(
        func=cmd_list)
    demo = sub.add_parser("demo", help="run a built-in demo")
    demo.add_argument("name")
    demo.set_defaults(func=cmd_demo)
    show = sub.add_parser("show", help="print a saved benchmark report")
    show.add_argument("experiment", help="experiment id prefix, e.g. T2 or F4")
    show.set_defaults(func=cmd_show)
    fleet = sub.add_parser(
        "fleet", help="run a sharded multi-process campaign")
    fleet.add_argument("campaign", nargs="?", default="cell256",
                       help="campaign name (default: cell256; "
                            "see `repro list`)")
    fleet.add_argument("--batch-size", type=int, default=None,
                       help="shards per worker task (default: auto-tuned "
                            "from the scenario cost hint; 1 = unbatched)")
    fleet.add_argument("-w", "--workers", type=int, default=None,
                       help="worker processes (default: usable CPUs per "
                            "the scheduling affinity; 1 = serial fallback)")
    fleet.add_argument("--seeds", type=int, default=None,
                       help="override seed replicas per grid point")
    fleet.add_argument("--no-cache", action="store_true",
                       help="skip the on-disk result cache")
    fleet.add_argument("--replay", metavar="TAG", default=None,
                       help="replay one shard by tag and print its "
                            "aggregate JSON")
    fleet.add_argument("--inject-fault", action="store_true",
                       help="kill the first shard's worker on every "
                            "attempt (CI smoke: exercises quarantine)")
    fleet.add_argument("--expect-quarantine", action="store_true",
                       help="exit non-zero unless a shard was quarantined")
    fleet.add_argument("--telemetry", action="store_true",
                       help="collect wall-clock runtime telemetry; writes "
                            "campaign_telemetry.json + a Chrome trace of "
                            "worker timelines and prints the report table")
    fleet.add_argument("--flight-dir", metavar="DIR", default=None,
                       help="arm the crash flight recorder, writing ring "
                            "spills/dumps under DIR (implied for "
                            "--inject-fault / --expect-flight)")
    fleet.add_argument("--expect-flight", action="store_true",
                       help="exit non-zero unless every quarantined shard "
                            "has a readable flight-recorder dump")
    fleet.add_argument("--quiet", action="store_true",
                       help="suppress the progress/ETA line")
    fleet.set_defaults(func=cmd_fleet)
    obs = sub.add_parser(
        "obs", parents=[_run_options("obs")],
        help="run an instrumented scenario; export Perfetto trace, "
             "qlog lines and metrics")
    obs.add_argument("--scenario", default="cell_offload",
                     help="obs scenario name (default: cell_offload; "
                          "also: martp_session)")
    obs.add_argument("--frames", type=int, default=60,
                     help="frames to trace (default: 60)")
    obs.add_argument("--check", action="store_true",
                     help="validate trace schema + stage-sum reconciliation; "
                          "exit non-zero on problems")
    obs.set_defaults(func=cmd_obs, seed=11)
    check = sub.add_parser(
        "check", parents=[_run_options("check")],
        help="bounded state-space explorer: enumerate event orderings and "
             "fault placements, assert protocol invariants, export "
             "replayable counterexamples")
    check.add_argument("--harness", default="all",
                       choices=["all", *sorted(HARNESSES)],
                       help="harness to explore (default: all three checked "
                            "harnesses; 'selfcheck' runs the seeded-violation "
                            "harness and verifies the full find -> export -> "
                            "replay -> obs-trace pipeline)")
    check.add_argument("--budget", default="small", choices=sorted(BUDGETS),
                       help="exploration budget preset (default: small — "
                            "the CI gate)")
    check.add_argument("--min-states", type=int, default=0,
                       help="fail (exit 3) when fewer total states were "
                            "explored")
    check.set_defaults(func=cmd_check, seed=0)
    selftest = sub.add_parser(
        "selftest", help="determinism smoke: run one shard twice and "
                         "diff trace fingerprints")
    selftest.set_defaults(func=cmd_selftest)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
