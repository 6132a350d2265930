"""File walking and rule driving.

:func:`lint_source` is the single-module entry point (and the unit-test
workhorse): parse, classify, run every applicable rule.
:func:`lint_paths` maps the same pass over files and directories —
serially, or across ``usable_cpus()`` fork workers.  Every rule sees
one module at a time, so a worker parses each file once and returns
plain :class:`Finding` values (cheap pickles); findings are sorted at
the end, so serial and parallel runs are byte-identical by
construction.
"""

from __future__ import annotations

import ast
import os
import pathlib
import warnings
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.lint.domains import Domain, classify
from repro.lint.findings import Finding
from repro.lint.rules import RULES, RuleContext
from repro.lint.suppress import Suppressions

#: Rule code reserved for files the parser rejects.  Parse errors are
#: never suppressible — a file that does not parse cannot be reasoned
#: about at all.
PARSE_ERROR_RULE = "SIM000"

#: Below this many files a worker pool costs more than it saves.
PARALLEL_THRESHOLD = 24


def _parse(source: str, path: str) -> Tuple[Optional[ast.Module],
                                            Optional[Finding]]:
    try:
        return ast.parse(source, filename=path), None
    except (SyntaxError, ValueError) as exc:
        line = getattr(exc, "lineno", 1) or 1
        col = (getattr(exc, "offset", 1) or 1)
        msg = exc.msg if hasattr(exc, "msg") else str(exc)
        return None, Finding(path=path, line=line, col=col,
                             rule=PARSE_ERROR_RULE,
                             message=f"could not parse: {msg}")


def _file_findings(tree: ast.Module, source: str, path: str,
                   domain: Domain,
                   selected: Sequence[str]) -> List[Finding]:
    """Run the selected rules over one parsed module."""
    suppressions = Suppressions.from_source(source)
    for code in sorted(suppressions.mentioned - set(RULES)):
        warnings.warn(
            f"{path}: suppression names unknown rule {code} "
            f"(known: {', '.join(sorted(RULES))})",
            stacklevel=2)
    ctx = RuleContext(path, domain, tree, source)
    findings: List[Finding] = []
    for code in selected:
        rule = RULES[code]
        if not rule.applies(domain):
            continue
        for finding in rule.check(ctx):
            if not suppressions.is_suppressed(finding.rule, finding.line):
                findings.append(finding)
    return findings


def lint_source(source: str, path: str,
                rules: Optional[Iterable[str]] = None,
                domain: Optional[Domain] = None) -> List[Finding]:
    """Lint one module given as a string.

    ``path`` determines the domain (unless ``domain`` overrides it) and
    is recorded verbatim in findings.  ``rules`` restricts checking to
    the given codes.
    """
    norm = pathlib.PurePath(path).as_posix()
    tree, error = _parse(source, norm)
    if tree is None:
        assert error is not None
        return [error]
    if domain is None:
        domain = classify(norm)
    selected = sorted(rules) if rules is not None else sorted(RULES)
    findings = _file_findings(tree, source, norm, domain, selected)
    findings.sort()
    return findings


def iter_python_files(paths: Sequence[str]) -> Iterator[pathlib.Path]:
    """Expand files and directories into a sorted stream of .py files."""
    seen = set()
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            candidates = sorted(p for p in path.rglob("*.py")
                                if "__pycache__" not in p.parts)
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            key = candidate.resolve()
            if key not in seen:
                seen.add(key)
                yield candidate


def display_path(path: pathlib.Path, root: Optional[pathlib.Path] = None) -> str:
    """Repo-relative posix path for findings and baselines."""
    root = root or pathlib.Path.cwd()
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        rel = pathlib.Path(os.path.relpath(path, root))
    return rel.as_posix()


def default_jobs(file_count: int) -> int:
    """Worker count for a run: 1 (serial) unless the file count clears
    :data:`PARALLEL_THRESHOLD` and the machine has cores to spare."""
    if file_count < PARALLEL_THRESHOLD:
        return 1
    return max(1, _usable_cpus())


def _usable_cpus() -> int:
    try:
        from repro.fleet.workers import usable_cpus
        return usable_cpus()
    except Exception:
        return os.cpu_count() or 1


def _lint_file_task(args: Tuple[str, str, Tuple[str, ...]]) -> List[Finding]:
    """Lint one file: the worker task, and the serial loop's body.
    Module-level so it pickles under spawn too."""
    file_path, rel, selected = args
    source = pathlib.Path(file_path).read_text(encoding="utf-8")
    tree, error = _parse(source, rel)
    if tree is None:
        assert error is not None
        return [error]
    return _file_findings(tree, source, rel, classify(rel), list(selected))


def lint_paths(paths: Sequence[str],
               rules: Optional[Iterable[str]] = None,
               root: Optional[pathlib.Path] = None,
               jobs: Optional[int] = None,
               ) -> Tuple[List[Finding], int]:
    """Lint every python file under ``paths``.

    Returns ``(findings, files_checked)``; findings are sorted by
    ``(path, line, col, rule)`` so output and baselines are stable.
    ``jobs`` sets the worker count (``None`` = auto: serial below
    :data:`PARALLEL_THRESHOLD` files, ``usable_cpus()`` above; ``1``
    forces serial).  Serial and parallel runs produce identical
    findings.
    """
    selected = tuple(sorted(rules) if rules is not None else sorted(RULES))
    tasks = [(str(file_path), display_path(file_path, root), selected)
             for file_path in iter_python_files(paths)]
    if jobs is None:
        jobs = default_jobs(len(tasks))
    findings: List[Finding] = []
    if jobs > 1 and len(tasks) > 1:
        findings.extend(_parallel_file_pass(tasks, jobs))
    else:
        for task in tasks:
            findings.extend(_lint_file_task(task))
    findings.sort()
    return findings, len(tasks)


def _parallel_file_pass(tasks: Sequence[Tuple[str, str, Tuple[str, ...]]],
                        jobs: int) -> List[Finding]:
    import concurrent.futures
    import multiprocessing

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        context = multiprocessing.get_context("spawn")
    out: List[Finding] = []
    try:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(jobs, len(tasks)),
                mp_context=context) as pool:
            chunk = max(1, len(tasks) // (4 * jobs))
            for result in pool.map(_lint_file_task, tasks,
                                   chunksize=chunk):
                out.extend(result)
    except (OSError, RuntimeError):
        # Pool could not start (restricted environments): fall back to
        # in-process execution — identical findings by construction.
        out = []
        for task in tasks:
            out.extend(_lint_file_task(task))
    return out
