"""Tests for the command-line interface."""

import pytest

from repro.cli import DEMOS, main


def test_list_runs(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "quickstart" in out
    assert "anomaly" in out


def test_demo_anomaly(capsys):
    assert main(["demo", "anomaly"]) == 0
    out = capsys.readouterr().out
    assert "performance anomaly" in out
    assert "Mb/s" in out


def test_demo_quickstart(capsys):
    assert main(["demo", "quickstart"]) == 0
    out = capsys.readouterr().out
    assert "MOS" in out
    assert "connection-metadata" in out


def test_demo_table2(capsys):
    assert main(["demo", "table2"]) == 0
    out = capsys.readouterr().out
    assert "cloud server / LTE" in out


def test_unknown_demo(capsys):
    assert main(["demo", "nope"]) == 2
    assert "unknown demo" in capsys.readouterr().err


def test_show_missing_report(capsys):
    assert main(["show", "ZZZ_does_not_exist"]) == 2


def test_every_registered_demo_returns_text():
    for name, fn in DEMOS.items():
        text = fn()
        assert isinstance(text, str) and len(text) > 50, name


# ----------------------------------------------------------------------
# fleet verb + fleet-aware list/show
# ----------------------------------------------------------------------
def test_list_includes_fleet_campaigns(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fleet campaigns" in out
    assert "cell256" in out and "smoke" in out


def test_show_finds_fleet_reports(tmp_path, monkeypatch, capsys):
    import repro.cli as cli

    monkeypatch.setattr(cli, "RESULTS_DIR", tmp_path)
    monkeypatch.setattr(cli, "FLEET_RESULTS_DIR", tmp_path / "fleet")
    (tmp_path / "fleet").mkdir()
    (tmp_path / "fleet" / "mycampaign.txt").write_text("fleet report body")
    assert main(["show", "mycampaign"]) == 0
    out = capsys.readouterr().out
    assert "fleet report body" in out


def test_fleet_runs_and_saves_report(tmp_path, monkeypatch, capsys):
    import repro.cli as cli

    monkeypatch.setattr(cli, "FLEET_RESULTS_DIR", tmp_path / "fleet")
    rc = main(["fleet", "smoke", "--seeds", "1", "-w", "1",
               "--no-cache", "--quiet"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Fleet campaign 'smoke'" in out
    assert (tmp_path / "fleet" / "smoke.txt").exists()


def test_fleet_replay_prints_shard_aggregate(capsys):
    import json

    from repro.fleet import demo_campaigns

    tag = demo_campaigns()["smoke"].shards()[0].tag
    assert main(["fleet", "smoke", "--replay", tag]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["sessions"] == 1


def test_fleet_unknown_campaign(capsys):
    assert main(["fleet", "nope"]) == 2
    assert "unknown campaign" in capsys.readouterr().err


def test_fleet_expect_quarantine_fails_on_clean_run(tmp_path, monkeypatch,
                                                    capsys):
    import repro.cli as cli

    monkeypatch.setattr(cli, "FLEET_RESULTS_DIR", tmp_path / "fleet")
    rc = main(["fleet", "smoke", "--seeds", "1", "-w", "1", "--no-cache",
               "--quiet", "--expect-quarantine"])
    assert rc == 1


# ----------------------------------------------------------------------
# selftest verb (determinism smoke)
# ----------------------------------------------------------------------
def test_selftest_determinism_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "byte-identical" in out
    assert out.count("fingerprint e7eb45643dd04191") == 2


def test_the_lint_verb_is_gone(capsys):
    # ``scale`` went too: its campaigns are ``fleet`` campaigns.
    for argv in (["lint", "src"], ["scale"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
