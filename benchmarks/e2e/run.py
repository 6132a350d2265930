#!/usr/bin/env python3
"""The repo's one end-to-end benchmark.  See README.md beside this file.

Driver contract (one workload, one JSON result as the last stdout line)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Everything at once, for people (one JSON document, one schema)::

    python3 benchmarks/e2e/run.py [--seed N] [--trace] [--quick] [--out FILE]
    python3 benchmarks/e2e/run.py --compare A.json B.json

Load model: closed loop, one driver process, concurrency 1.  Every
measurement runs in a fresh child process of this script, so set-up time
covers the imports and ``peak_rss_mb`` belongs to one workload: untimed
set-up, one warm-up pass, then timed passes until ``--seconds`` have
gone by.  A timing metric is the median over passes.  ``--trace 1``
instead runs a few plain passes, one pass under the profiler
(``trace.py``), the 2-worker passes and each workload's extra per-layer
measurements.  The names, units and bounds come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

T_START = time.perf_counter()       # a child's set-up clock starts here

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
MANIFEST = ROOT / "BENCHMARK.json"
#: scratch space inside the checkout (cache of the ``fleet_warm`` workload)
SCRATCH = ROOT / ".bench_build"

SETUP_RUNS = 5          # set-ups per run; ``setup_s`` is their median
MIN_PASSES = 3
PARALLEL_PASSES = 2
PLAIN_SHARE = 0.3       # of ``--seconds``, spent on plain passes when tracing
#: counts that only a pooled ``run_campaign`` gives a meaning
PARALLEL_ONLY = ("fleet.n_batches", "fleet.max_buffered")
SCHEMA = 1


def usage_seconds() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mib() -> float:
    """High-water resident set: this process plus its largest child.

    Linux folds the spawning process's footprint into a fresh process's
    ``ru_maxrss`` across exec, so a fat parent would floor every
    workload's reading; ``VmHWM`` starts from zero at exec.
    """
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        status = pathlib.Path("/proc/self/status").read_text()
        own_kib = int(status.split("VmHWM:")[1].split()[0])
    except (OSError, IndexError, ValueError):
        pass                        # no procfs: ru_maxrss is the best there is
    return (own_kib
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ----------------------------------------------------------------------
# Child process: set up, run passes, report
# ----------------------------------------------------------------------
#: one checked pass; ``layers`` is ``trace.fold``'s table for a profiled pass
Pass = collections.namedtuple("Pass", "wall cpu outcome layers")


class Passes:
    """Runs checked passes of one workload and keeps the tally."""

    def __init__(self, workload, state) -> None:
        self.workload = workload
        self.state = state
        self.attempted = 0
        self.failed = 0
        self.violations = []
        self.reference = None       # fingerprint every pass must repeat

    def one(self, label, workers=1, profiled=False) -> Pass:
        """Run, time and check one pass; a violated check fails all its units."""
        gc.collect()
        layers = None
        cpu0, t0 = usage_seconds(), time.perf_counter()
        if profiled:
            import trace as layer_trace

            raw, stats = layer_trace.profile(
                lambda: self.workload.run(self.state, workers))
        else:
            raw = self.workload.run(self.state, workers)
        wall = time.perf_counter() - t0
        cpu = usage_seconds() - cpu0
        outcome = self.workload.check(self.state, raw, wall)
        if self.reference is None:
            self.reference = outcome.fingerprint
        elif outcome.fingerprint != self.reference:
            outcome.violations.append(
                f"fingerprint {outcome.fingerprint[:12]} differs from the "
                f"first pass's {self.reference[:12]}")
        if profiled:
            layers = layer_trace.fold(stats)
            busy = [name for name in layer_trace.ZERO_LAYERS
                    if layers[name]["self_s"] > 0]
            if busy:
                outcome.violations.append(
                    f"layers expected idle have self time: {busy}")
        self.attempted += outcome.units
        if outcome.violations:
            self.failed += outcome.units
            self.violations += [f"{label}: {v}" for v in outcome.violations]
        return Pass(wall, cpu, outcome, layers)


def measure(workload, state, seconds):
    """Plain timed passes for ``seconds``: the end-to-end samples."""
    passes = Passes(workload, state)
    passes.one("warm-up")
    walls, cpus = [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        done = passes.one(f"pass {len(walls)}")
        walls.append(done.wall)
        cpus.append(done.cpu)
    return passes, {"wall_s": walls, "cpu_s": cpus,
                    "peak_rss_mb": [peak_rss_mib()]}


def traced(workload, state, seconds):
    """The per-layer run: plain passes, a profiled pass, 2-worker passes,
    extras.  Returns the tally and (deterministic, timed, skipped)."""
    import trace as layer_trace
    from repro.fleet import usable_cpus

    passes = Passes(workload, state)
    passes.one("warm-up")
    plain = []
    deadline = time.perf_counter() + seconds * PLAIN_SHARE
    while not plain or time.perf_counter() < deadline:
        plain.append(passes.one(f"pass {len(plain)}"))
    serial_wall = statistics.median(p.wall for p in plain)
    outcome = plain[0].outcome
    deterministic = dict(outcome.counts)
    timed = {key: statistics.median(p.outcome.timings[key] for p in plain)
             for key in outcome.timings}
    skipped = {}

    profiled = passes.one("traced", profiled=True)
    layers = profiled.layers
    for name in layer_trace.LAYERS:
        timed[f"{name}.self_s"] = layers[name]["self_s"]
        timed[f"{name}.share"] = layers[name]["share"]
        deterministic[f"{name}.calls"] = layers[name]["calls"]
    timed["trace.total_s"] = sum(layers[n]["self_s"] for n in layers)
    timed["trace.overhead_ratio"] = profiled.wall / serial_wall
    for layer, per, what in (("simnet.engine", "event", "simnet.engine.events"),
                             ("simnet", "packet", "simnet.packets")):
        if deterministic.get(what):
            timed[f"{layer}.us_per_{per}"] = (
                layers[layer]["self_s"] / deterministic[what] * 1e6)

    # FleetResult's pool accounting says nothing about a serial pass
    for key in PARALLEL_ONLY:
        deterministic.pop(key, None)
    if workload.parallel and usable_cpus() < 2:
        reason = f"usable_cpus() = {usable_cpus()} < 2"
        skipped.update(dict.fromkeys(
            PARALLEL_ONLY + ("fleet.wall_2w_s", "fleet.speedup_2w"), reason))
    elif workload.parallel:
        runs = [passes.one(f"2-worker pass {i}", workers=2)
                for i in range(PARALLEL_PASSES)]
        wall_2w = statistics.median(r.wall for r in runs)
        timed["fleet.wall_2w_s"] = wall_2w
        timed["fleet.speedup_2w"] = serial_wall / wall_2w
        deterministic["fleet.n_batches"] = runs[0].outcome.counts["fleet.n_batches"]
        # how far results ran ahead of the merge depends on completion order
        timed["fleet.max_buffered"] = max(
            r.outcome.counts["fleet.max_buffered"] for r in runs)

    timed.update(workload.extras(state, serial_wall))
    return passes, deterministic, timed, skipped


def child_main(args) -> int:
    """Set up one workload in this fresh process, run the asked mode."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    scratch = SCRATCH / f"e2e-{os.getpid()}"
    scratch.mkdir(parents=True)
    # anything the stack may spill (multiprocessing, tempfile) stays inside
    os.environ["TMPDIR"] = str(scratch)
    try:
        state = workload.setup(args.seed, args.quick, scratch)
        report = {"setup_s": time.perf_counter() - T_START,
                  "unit": workload.unit}
        if args.child == "measure":
            passes, samples = measure(workload, state, args.seconds)
            report["samples"] = samples
        elif args.child == "trace":
            passes, deterministic, timed, skipped = traced(
                workload, state, args.seconds)
            report.update(deterministic=deterministic, timed=timed,
                          skipped=skipped)
        if args.child != "setup":
            report.update(attempted=passes.attempted, failed=passes.failed,
                          violations=passes.violations,
                          fingerprint=passes.reference)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(report))
    return 0


# ----------------------------------------------------------------------
# Parent: spawn children, assemble results
# ----------------------------------------------------------------------
def spawn(mode, workload, seed, seconds, quick) -> dict:
    """Run one child to completion and parse the report it prints last."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child", mode,
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)] + (["--quick"] if quick else [])
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{mode} child of {workload} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(manifest, workload, seed, seconds, trace, quick) -> dict:
    """One workload in one mode -> its section of the output document."""
    if trace:
        report = spawn("trace", workload, seed, seconds, quick)
        section = {"per_layer": {k: report[k] for k in
                                 ("deterministic", "timed", "skipped")}}
    else:
        setups = [spawn("setup", workload, seed, seconds, quick)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        report = spawn("measure", workload, seed, seconds, quick)
        samples = dict(report["samples"], setup_s=setups + [report["setup_s"]])
        section = {"end_to_end": {}}
        for metric in manifest["end_to_end"]:
            q1, median, q3 = quartiles(samples[metric["name"]])
            section["end_to_end"][metric["name"]] = {
                "value": median, "unit": metric["unit"],
                "n": len(samples[metric["name"]]), "q1": q1, "q3": q3}
    section.update(
        unit=report["unit"],
        attempted=report["attempted"], failed=report["failed"],
        failed_share=report["failed"] / report["attempted"],
        fingerprint=report["fingerprint"], violations=report["violations"])
    return section


def result_line(manifest, section, trace) -> dict:
    """The driver's result object for one workload section."""
    if trace:
        layer = section["per_layer"]
        known = {**layer["deterministic"], **layer["timed"]}
        # a metric this workload does not exercise reads 0
        metrics = {m["name"]: {"value": known.get(m["name"], 0.0),
                               "unit": m["unit"]}
                   for m in manifest["per_layer"]}
    else:
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in section["end_to_end"].items()}
    return {"correct": section["failed"] == 0,
            "attempted": section["attempted"], "failed": section["failed"],
            "metrics": metrics}


def calibrate() -> float:
    """Million loop iterations per second of a fixed pure-Python loop: the
    host normaliser, recorded beside the raw values and never folded in."""
    n = 2_000_000
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc = (acc + i * i) & 0xFFFF
    return n / (time.perf_counter() - t0) / 1e6


def host_block() -> dict:
    from repro.fleet import usable_cpus

    return {"nproc": os.cpu_count(), "usable_cpus": usable_cpus(),
            "python": platform.python_version(),
            "platform": platform.platform(), "calib_mops": calibrate()}


def print_section(name, section, manifest) -> None:
    print(f"== {name}: attempted {section['attempted']} {section['unit']}s, "
          f"failed {section['failed']}, fingerprint {section['fingerprint'][:16]}")
    for violation in section["violations"]:
        print(f"   VIOLATION {violation}")
    for metric, m in section.get("end_to_end", {}).items():
        print(f"   {metric:34s} {m['value']:14.6g} {m['unit']:6s} "
              f"n={m['n']} q1={m['q1']:.6g} q3={m['q3']:.6g}")
    layer = section.get("per_layer")
    if layer:
        known = {**layer["deterministic"], **layer["timed"]}
        for m in manifest["per_layer"]:
            if m["name"] in known:
                print(f"   {m['name']:34s} {known[m['name']]:14.6g} {m['unit']}")
            elif m["name"] in layer["skipped"]:
                print(f"   {m['name']:34s} {'null':>14s} "
                      f"({layer['skipped'][m['name']]})")


def full_run(manifest, args) -> int:
    seconds = args.seconds if args.seconds is not None else (
        1 if args.quick else manifest["run_seconds"])
    doc = {"schema": SCHEMA, "benchmark": "e2e", "seed": args.seed,
           "seconds": seconds, "quick": args.quick, "host": host_block(),
           "workloads": {}}
    for spec in manifest["workloads"]:
        name = spec["name"]
        section = run_workload(manifest, name, args.seed, seconds, 0, args.quick)
        if args.trace:
            layered = run_workload(manifest, name, args.seed, seconds, 1,
                                   args.quick)
            if layered["fingerprint"] != section["fingerprint"]:
                layered["violations"].append(
                    "traced run's fingerprint differs from the plain run's")
                layered["failed"] = layered["attempted"]
            section["per_layer"] = layered["per_layer"]
            section["violations"] += layered["violations"]
            section["attempted"] += layered["attempted"]
            section["failed"] += layered["failed"]
            section["failed_share"] = section["failed"] / section["attempted"]
        doc["workloads"][name] = section
        print_section(name, section, manifest)
    print("host", json.dumps(doc["host"]))
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if any(s["failed"] for s in doc["workloads"].values()) else 0


def compare(manifest, path_a, path_b) -> int:
    """One row per (workload, end-to-end metric); exact diff of the rest."""
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in (path_a, path_b))
    if a["quick"] != b["quick"] or a["seconds"] != b["seconds"]:
        print("not comparable: the two documents differ in --quick/--seconds")
        return 2
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    worse = 0
    print(f"{'workload':20s} {'metric':12s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'delta':>8s} {'bound':>6s} verdict")
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            print(f"{name:20s} missing from B")
            continue
        for metric, bound in bounds.items():
            ma, mb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            delta = mb["value"] / ma["value"] - 1
            spread = max((m["q3"] - m["q1"]) / m["value"] for m in (ma, mb))
            if spread > bound and not (mb["q3"] < ma["q1"] or mb["q1"] > ma["q3"]):
                verdict = "unresolved"
            elif delta > bound:
                verdict = "REGRESSED"
                worse += 1
            else:
                verdict = "ok"
            cells = [f"{m['value']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}]"
                     for m in (ma, mb)]
            print(f"{name:20s} {metric:12s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{delta:+8.1%} {bound:6.0%} {verdict}")
        if wb["failed_share"] > wa["failed_share"]:
            print(f"{name:20s} failed_share rose "
                  f"{wa['failed_share']} -> {wb['failed_share']}  REGRESSED")
            worse += 1
        if a["seed"] == b["seed"]:
            if wa["fingerprint"] != wb["fingerprint"]:
                print(f"{name:20s} fingerprint {wa['fingerprint'][:16]} -> "
                      f"{wb['fingerprint'][:16]}")
            da = wa.get("per_layer", {}).get("deterministic", {})
            db = wb.get("per_layer", {}).get("deterministic", {})
            for key in sorted(set(da) | set(db)):
                if da.get(key) != db.get(key):
                    print(f"{name:20s} {key} {da.get(key)} -> {db.get(key)}")
    if a["seed"] != b["seed"]:
        print("seeds differ: fingerprints and counts not compared")
    return 1 if worse else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="run this workload only and print the "
                    "driver's one-line JSON result")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of "
                    "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="also (with --workload: only) "
                    "report the per-layer metrics")
    ap.add_argument("--quick", action="store_true",
                    help="sizes / 10; never compared against full runs")
    ap.add_argument("--out", help="write the JSON document here")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--child", choices=("setup", "measure", "trace"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {ROOT}: nothing to benchmark",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    manifest = json.loads(MANIFEST.read_text())
    if args.compare:
        return compare(manifest, *args.compare)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is None:
        return full_run(manifest, args)
    if args.workload not in {w["name"] for w in manifest["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
    section = run_workload(manifest, args.workload, args.seed, seconds,
                           args.trace, args.quick)
    print_section(args.workload, section, manifest)
    print("host", json.dumps(host_block()))
    print(json.dumps(result_line(manifest, section, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
