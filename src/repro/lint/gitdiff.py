"""``--diff <ref>`` support: changed-line sets from ``git diff -U0``.

Diff mode reports only findings whose line was added or modified
relative to a git ref, so a new or stricter rule can roll out across
a large tree without a baseline-churn flag day: untouched legacy lines
stay silent, anything you edit is held to the full rule set.  The
tradeoff against baselines is documented in docs/LINT.md — in short, a
baseline is an explicit owned debt list, diff mode is an implicit one.

The parser is pure stdlib over unified-diff text (``-U0`` hunks carry
no context lines, so the ``+`` side of each hunk header *is* the
changed-line set); running git is isolated in :func:`changed_lines` so
tests can feed diff text directly.
"""

from __future__ import annotations

import pathlib
import re
import subprocess
from typing import Dict, Optional, Set

_FILE_RE = re.compile(r"^\+\+\+ (?:b/)?(.+?)\s*$")
_HUNK_RE = re.compile(r"^@@ -\d+(?:,\d+)? \+(\d+)(?:,(\d+))? @@")


class DiffError(RuntimeError):
    """git could not produce a diff (bad ref, not a repo, ...)."""


def parse_unified_diff(text: str) -> Dict[str, Set[int]]:
    """Map each changed file to its set of added/modified line numbers.

    Expects ``git diff -U0`` output: ``+++ b/<path>`` headers followed
    by ``@@ -a[,b] +c[,d] @@`` hunks; the new-side range ``c..c+d-1``
    is the changed-line set (``d`` omitted means 1; ``d == 0`` is a
    pure deletion and contributes no lines).  Deleted files
    (``+++ /dev/null``) are skipped.
    """
    changed: Dict[str, Set[int]] = {}
    current: Optional[str] = None
    for line in text.splitlines():
        file_match = _FILE_RE.match(line)
        if file_match:
            target = file_match.group(1)
            if target == "/dev/null":
                current = None
            else:
                current = pathlib.PurePosixPath(target).as_posix()
                changed.setdefault(current, set())
            continue
        hunk_match = _HUNK_RE.match(line)
        if hunk_match and current is not None:
            start = int(hunk_match.group(1))
            count = int(hunk_match.group(2) or 1)
            changed[current].update(range(start, start + count))
    return {path: lines for path, lines in changed.items() if lines}


def changed_lines(ref: str,
                  cwd: Optional[pathlib.Path] = None) -> Dict[str, Set[int]]:
    """Changed-line sets for the working tree vs ``ref``."""
    command = ["git", "diff", "-U0", "--no-color", ref, "--", "*.py"]
    try:
        proc = subprocess.run(
            command, cwd=str(cwd) if cwd else None,
            capture_output=True, text=True, check=False)
    except OSError as exc:
        raise DiffError(f"cannot run git: {exc}") from exc
    if proc.returncode not in (0, 1):
        detail = proc.stderr.strip() or f"exit code {proc.returncode}"
        raise DiffError(f"git diff {ref} failed: {detail}")
    return parse_unified_diff(proc.stdout)


__all__ = ["DiffError", "changed_lines", "parse_unified_diff"]
