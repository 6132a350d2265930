"""Tests for the `repro obs` CLI verb and its artifact determinism."""

import json
import pathlib

import pytest

from repro.cli import main

ARTIFACTS = ("trace.json", "qlog.jsonl", "metrics.json")
COMMITTED = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results" / "obs"


def run_obs(tmp_path, sub, *extra):
    out = tmp_path / sub
    rc = main(["obs", "--scenario", "cell_offload", "--frames", "8",
               "--out", str(out), *extra])
    return rc, {name: (out / f"cell_offload-seed11.{name}").read_text()
                for name in ARTIFACTS}


def test_obs_writes_artifacts_and_passes_check(tmp_path, capsys):
    rc, artifacts = run_obs(tmp_path, "a", "--check")
    assert rc == 0
    out = capsys.readouterr().out
    assert "critical path" in out
    assert "check OK" in out
    doc = json.loads(artifacts["trace.json"])
    assert any(e.get("ph") == "X" for e in doc["traceEvents"])
    for line in artifacts["qlog.jsonl"].strip().splitlines():
        json.loads(line)
    assert "counters" in json.loads(artifacts["metrics.json"])


def test_obs_double_run_byte_identical(tmp_path):
    _, first = run_obs(tmp_path, "a")
    _, second = run_obs(tmp_path, "b")
    assert first == second


@pytest.mark.parametrize("scenario", ["cell_offload", "martp_session"])
def test_default_exports_equal_the_committed_artifacts(tmp_path, scenario):
    """Seed 11 at the default 60 frames writes the committed files byte
    for byte, on every supported CPython (the float reductions are
    correctly rounded, docs/DETERMINISM.md)."""
    assert main(["obs", "--scenario", scenario, "--out", str(tmp_path)]) == 0
    for name in ARTIFACTS:
        stem = f"{scenario}-seed11.{name}"
        assert (tmp_path / stem).read_bytes() == (COMMITTED / stem).read_bytes(), stem


def test_obs_martp_scenario(tmp_path, capsys):
    out = tmp_path / "m"
    assert main(["obs", "--scenario", "martp_session", "--frames", "30",
                 "--out", str(out), "--check"]) == 0
    assert (out / "martp_session-seed11.trace.json").exists()
    assert "check OK" in capsys.readouterr().out


def test_obs_unknown_scenario(capsys):
    assert main(["obs", "--scenario", "nope"]) == 2
    assert "unknown obs scenario" in capsys.readouterr().err


def test_selftest_covers_obs_trace(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "obs trace" in out
    assert "byte-identical aggregates and trace exports" in out
