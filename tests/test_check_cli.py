"""End-to-end tests for ``python -m repro check``."""

import json

from repro.check.explorer import Budget
from repro.check.harnesses import BreakerHarness
from repro.cli import BUDGETS, HARNESSES, main


def test_breaker_run_exits_zero_and_writes_summary(tmp_path, capsys):
    rc = main(["check", "--harness", "breaker", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["seed"] == 0  # check's default; obs defaults to 11
    assert summary["total_states"] > 0
    assert summary["harnesses"][0]["harness"] == "breaker"
    assert summary["harnesses"][0]["violations"] == []
    out = capsys.readouterr().out
    assert "breaker" in out and "ok" in out


def test_selfcheck_writes_replayable_artifacts(tmp_path, capsys):
    rc = main(["check", "--harness", "selfcheck", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "replay reproduced byte-identically" in out

    cex_path = tmp_path / "counterexample-selfcheck-0.json"
    cex = json.loads(cex_path.read_text())
    assert cex["harness"] == "selfcheck"
    assert cex["trace"]
    assert len(cex["digest"]) == 64

    trace = json.loads((tmp_path / "counterexample-selfcheck-0.trace.json")
                       .read_text())
    assert isinstance(trace, dict) and trace["traceEvents"]

    qlog_lines = (tmp_path / "counterexample-selfcheck-0.qlog") \
        .read_text().splitlines()
    assert qlog_lines
    for line in qlog_lines:
        json.loads(line)

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["harnesses"][0]["replays_reproduced"] == [True]


def test_min_states_regression_exits_three(tmp_path, capsys):
    rc = main(["check", "--harness", "breaker",
               "--min-states", "999999", "--out", str(tmp_path)])
    assert rc == 3
    assert "coverage regression" in capsys.readouterr().out


class _AlwaysBroken(BreakerHarness):
    name = "brokenharness"

    def invariants(self, world):
        return ["always: seeded root violation"]


def test_violation_exits_one_with_artifacts(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(HARNESSES, "brokenharness", _AlwaysBroken)
    monkeypatch.setitem(BUDGETS["small"], "brokenharness",
                        Budget(max_states=50, max_depth=4))
    rc = main(["check", "--harness", "brokenharness", "--out", str(tmp_path)])
    assert rc == 1
    assert (tmp_path / "counterexample-brokenharness-0.json").exists()
    assert "violation: always" in capsys.readouterr().out
