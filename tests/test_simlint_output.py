"""Output formats, diff mode, and parallel execution.

SARIF shape validation (satellite: "validate the SARIF shape in a
test"), GitHub workflow-command rendering, the pure-stdlib unified-diff
parser behind ``--diff``, and serial-vs-parallel byte-identity of
``lint_paths``.
"""

import json
import subprocess

import pytest

from repro.lint import (
    Finding,
    lint_paths,
    parse_unified_diff,
    render_github,
    to_sarif,
)
from repro.lint.cli import main as lint_main
from repro.lint.gitdiff import DiffError, changed_lines

FINDINGS = [
    Finding(path="src/repro/simnet/a.py", line=3, col=5, rule="SIM001",
            message="draws from the process-global RNG"),
    Finding(path="src/repro/scale/b.py", line=12, col=1, rule="SIM003",
            message="tag can collide, 100%: no\nreally"),
]


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------
def test_sarif_shape_is_valid_2_1_0():
    log = to_sarif(FINDINGS, files_checked=42)
    assert log["version"] == "2.1.0"
    assert log["$schema"].endswith("sarif-2.1.0.json")
    assert len(log["runs"]) == 1
    run = log["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "simlint"
    rule_ids = [r["id"] for r in driver["rules"]]
    assert rule_ids == sorted(rule_ids)
    assert {"SIM001", "SIM003", "SIM006"} <= set(rule_ids)
    for descriptor in driver["rules"]:
        assert descriptor["shortDescription"]["text"]
        assert descriptor["fullDescription"]["text"]
    assert run["properties"]["filesChecked"] == 42
    assert len(run["results"]) == len(FINDINGS)
    for result, finding in zip(run["results"], FINDINGS):
        assert result["ruleId"] == finding.rule
        assert driver["rules"][result["ruleIndex"]]["id"] == finding.rule
        assert result["level"] == "error"
        assert result["message"]["text"] == finding.message
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == finding.path
        assert location["region"]["startLine"] == finding.line
        assert location["region"]["startColumn"] == finding.col
    # The whole log must be JSON-serializable as-is.
    json.loads(json.dumps(log))


def test_sarif_includes_parse_error_pseudo_rule():
    errors = [Finding(path="x.py", line=1, col=1, rule="SIM000",
                      message="could not parse: bad")]
    log = to_sarif(errors)
    ids = [r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]]
    assert "SIM000" in ids


# ----------------------------------------------------------------------
# GitHub workflow commands
# ----------------------------------------------------------------------
def test_github_rendering_escapes_message_data():
    lines = render_github(FINDINGS)
    assert lines[0].startswith(
        "::error file=src/repro/simnet/a.py,line=3,col=5,")
    assert "title=simlint SIM001" in lines[0]
    # Newlines and percent signs in the message must be escaped.
    assert "\n" not in lines[1]
    assert "100%25" in lines[1]
    assert "%0A" in lines[1]


# ----------------------------------------------------------------------
# Unified-diff parsing (--diff)
# ----------------------------------------------------------------------
DIFF_TEXT = """\
diff --git a/src/repro/simnet/a.py b/src/repro/simnet/a.py
index 1111111..2222222 100644
--- a/src/repro/simnet/a.py
+++ b/src/repro/simnet/a.py
@@ -10,0 +11,3 @@ def f():
+x = 1
+y = 2
+z = 3
@@ -20 +24 @@ def g():
-old = 0
+new = 1
diff --git a/gone.py b/gone.py
deleted file mode 100644
--- a/gone.py
+++ /dev/null
@@ -1,5 +0,0 @@
-dead
diff --git a/src/only_del.py b/src/only_del.py
--- a/src/only_del.py
+++ b/src/only_del.py
@@ -7,2 +6,0 @@
-a
-b
"""


def test_parse_unified_diff_hunks_and_defaults():
    changed = parse_unified_diff(DIFF_TEXT)
    assert changed == {"src/repro/simnet/a.py": {11, 12, 13, 24}}


def test_parse_unified_diff_empty_input():
    assert parse_unified_diff("") == {}


def test_changed_lines_bad_ref_raises(tmp_path):
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    with pytest.raises(DiffError):
        changed_lines("no-such-ref-xyz", cwd=tmp_path)


def test_cli_diff_mode_end_to_end(tmp_path, capsys, monkeypatch):
    repo = tmp_path
    pkg = repo / "src" / "repro" / "simnet"
    pkg.mkdir(parents=True)
    target = pkg / "mod.py"
    target.write_text("import random\nx = random.random()\n",
                      encoding="utf-8")
    env = {"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
           "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"}
    subprocess.run(["git", "init", "-q", "."], cwd=repo, check=True)
    subprocess.run(["git", "add", "-A"], cwd=repo, check=True)
    subprocess.run(["git", "commit", "-qm", "seed"], cwd=repo,
                   check=True, env={**env, "HOME": str(repo)})
    # Append a *new* violation; the pre-existing one must be filtered.
    target.write_text(
        "import random\nx = random.random()\ny = random.random()\n",
        encoding="utf-8")
    monkeypatch.chdir(repo)
    code = lint_main(["src", "--diff", "HEAD", "--format", "json",
                      "--jobs", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [f["line"] for f in out["findings"]] == [3]
    assert out["diff_dropped"] == 1


# ----------------------------------------------------------------------
# Parallel byte-identity
# ----------------------------------------------------------------------
def test_parallel_findings_identical_to_serial(tmp_path):
    pkg = tmp_path / "src" / "repro" / "simnet"
    pkg.mkdir(parents=True)
    for i in range(30):
        body = "import random\n"
        if i % 3 == 0:
            body += f"x{i} = random.random()\n"
        else:
            body += f"x{i} = {i}\n"
        (pkg / f"mod_{i:02d}.py").write_text(body, encoding="utf-8")
    (pkg / "broken.py").write_text("def oops(:\n", encoding="utf-8")
    serial, checked_s = lint_paths([str(tmp_path / "src")],
                                   root=tmp_path, jobs=1)
    parallel, checked_p = lint_paths([str(tmp_path / "src")],
                                     root=tmp_path, jobs=4)
    assert checked_s == checked_p == 31
    assert serial == parallel
    assert any(f.rule == "SIM000" for f in serial)
    assert sum(1 for f in serial if f.rule == "SIM001") == 10
