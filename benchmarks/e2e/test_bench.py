"""Tests of the benchmark itself: ``python3 -m pytest benchmarks/e2e``.

Outside tier-1's ``testpaths`` on purpose: they spawn the benchmark's
child processes (``--quick`` sizes, about half a minute in all).
"""

import json
import pathlib
import re
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fixtures  # noqa: E402
import run  # noqa: E402
import trace as layer_trace  # noqa: E402
import workloads  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOAD_NAMES = [w["name"] for w in MANIFEST["workloads"]]


def test_manifest_meets_the_contract():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert 2 <= len(WORKLOAD_NAMES) <= 8
    assert len(MANIFEST["per_layer"]) <= 128
    for w in MANIFEST["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    names = WORKLOAD_NAMES[:]
    for m in MANIFEST["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in MANIFEST["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert NAME.fullmatch(m["name"]), m
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    assert len(names) == len(set(names))
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_every_layer_has_its_three_generic_metrics():
    per_layer = {m["name"] for m in MANIFEST["per_layer"]}
    for layer in layer_trace.LAYERS:
        assert {f"{layer}.self_s", f"{layer}.share", f"{layer}.calls"} <= per_layer


def test_layer_map_covers_the_tree_and_rejects_the_rest():
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        assert layer_trace.layer_of(str(path)) is not None
    assert layer_trace.layer_of(layer_trace.SRC + "simnet/engine.py") == "simnet.engine"
    assert layer_trace.layer_of(layer_trace.SRC + "simnet/link.py") == "simnet"
    assert layer_trace.layer_of(str(HERE / "workloads.py")) == "harness"
    assert layer_trace.layer_of(json.__file__) is None
    with pytest.raises(layer_trace.UnmappedSource):
        layer_trace.layer_of(layer_trace.SRC + "newpackage/thing.py")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_emits_the_manifest_and_repeats_its_counts(name):
    first, second = (run.run_workload(MANIFEST, name, seed=5, seconds=0.5,
                                      trace=1, quick=True) for _ in range(2))
    for section in (first, second):
        assert section["failed"] == 0, section["violations"]
        line = run.result_line(MANIFEST, section, trace=1)
        assert line["correct"] and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in MANIFEST["per_layer"]]
        for m in MANIFEST["per_layer"]:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]
        # nothing a workload reports is missing from the manifest
        layer = section["per_layer"]
        known = set(layer["deterministic"]) | set(layer["timed"]) | set(layer["skipped"])
        assert known <= set(line["metrics"])
        shares = sum(layer["timed"][f"{l}.share"] for l in layer_trace.LAYERS)
        assert shares == pytest.approx(1.0, abs=0.01)
    assert first["fingerprint"] == second["fingerprint"]
    assert first["per_layer"]["deterministic"] == second["per_layer"]["deterministic"]


def test_plain_run_emits_the_end_to_end_metrics():
    section = run.run_workload(MANIFEST, "engine_churn", seed=5, seconds=0.5,
                               trace=0, quick=True)
    line = run.result_line(MANIFEST, section, trace=0)
    assert line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in MANIFEST["end_to_end"]]
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert section["end_to_end"]["setup_s"]["n"] == run.SETUP_RUNS


def test_a_broken_invariant_fails_every_unit():
    class Broken(workloads.EngineChurn):
        def check(self, state, raw, wall):
            outcome = super().check(state, raw, wall)
            outcome.violations.append("deliberately broken")
            return outcome

    workload = Broken()
    state = workload.setup(seed=5, quick=True, scratch=None)
    passes, _samples = run.measure(workload, state, seconds=0.1)
    assert passes.attempted > 0
    assert passes.failed / passes.attempted == 1


def test_a_changed_fingerprint_fails_the_pass():
    class Drifting(workloads.EngineChurn):
        calls = 0

        def check(self, state, raw, wall):
            outcome = super().check(state, raw, wall)
            Drifting.calls += 1
            if Drifting.calls == 3:
                outcome.fingerprint = "0" * 64
            return outcome

    workload = Drifting()
    state = workload.setup(seed=5, quick=True, scratch=None)
    passes, _samples = run.measure(workload, state, seconds=0.0)
    assert 0 < passes.failed < passes.attempted
    assert "fingerprint" in passes.violations[0]


def test_dumbbell_fixture_stands_alone():
    d = fixtures.dumbbell(bw=10e6, delay=0.010, loss=0.0, buffer_pkts=40,
                          udp_background=1e6, seed=3)
    # 40 ms of propagation plus one serialisation per hop
    assert d.net.base_rtt("c1", "s1") == pytest.approx(0.040, abs=0.004)
    d.start()
    d.sim.run(until=3.0)
    assert min(d.delivered) > 0
    assert 0 < d.goodput_bps(3.0) < 10e6
    assert d.bottleneck.queue_drops > 0          # one BDP of buffer overflows
    assert d.udp_sink.stats.packets_total > 0
    with pytest.raises(ValueError):
        fixtures.dumbbell(bw=10e6, delay=0.030, loss=0.0, buffer_pkts=40)


def _document(wall, q1, q3, fingerprint="a" * 64, calls=7):
    metric = {"value": wall, "unit": "s", "n": 9, "q1": q1, "q3": q3}
    return {"schema": 1, "seed": 1, "seconds": 10, "quick": False,
            "workloads": {"engine_churn": {
                "attempted": 10, "failed": 0, "failed_share": 0.0,
                "fingerprint": fingerprint, "violations": [],
                "end_to_end": {m["name"]: dict(metric)
                               for m in MANIFEST["end_to_end"]},
                "per_layer": {"deterministic": {"simnet.engine.calls": calls},
                              "timed": {}, "skipped": {}}}}}


def test_compare_gives_a_verdict_per_metric(tmp_path, capsys):
    def compare(a, b):
        for name, doc in (("a.json", a), ("b.json", b)):
            (tmp_path / name).write_text(json.dumps(doc))
        code = run.compare(MANIFEST, tmp_path / "a.json", tmp_path / "b.json")
        return code, capsys.readouterr().out

    code, out = compare(_document(1.0, 0.99, 1.01), _document(1.02, 1.01, 1.03))
    assert code == 0 and "REGRESSED" not in out and "unresolved" not in out
    code, out = compare(_document(1.0, 0.99, 1.01),
                        _document(1.3, 1.29, 1.31, fingerprint="b" * 64, calls=8))
    assert code == 1 and "REGRESSED" in out
    assert "fingerprint" in out and "simnet.engine.calls 7 -> 8" in out
    code, out = compare(_document(1.0, 0.7, 1.3), _document(1.3, 1.0, 1.6))
    assert code == 0 and "unresolved" in out
