#!/usr/bin/env python3
"""List the functions in ``src/repro`` that nothing the project runs calls.

Usage: ``python tools/whatruns.py`` (about ten minutes on a 2-core host;
standard library only; not part of CI).

The tree is copied to a temporary directory, so the commands below do
not rewrite the committed result tables: the paper suite, the ``repro``
verbs, the end-to-end benchmark at its quick sizes and every example.
A generated ``sitecustomize.py`` records the first call of each
``src/repro`` code object in every process (``sys.settrace`` and
``threading.settrace``, one append-only file per pid, so forked fleet
workers count).  The report lists, per module, each function whose code
never ran, with its extent in lines.
"""

import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parents[1]
PY = sys.executable
RUN = [PY, "-m", "repro"]
COMMANDS = [
    [PY, "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks",
     "--ignore=benchmarks/e2e", "--benchmark-disable"],
    RUN + ["selftest"], RUN + ["check", "--budget", "small"], RUN + ["check", "--selfcheck"],
    *(RUN + ["obs", "--scenario", s, "--check"] for s in ("cell_offload", "martp_session")),
    RUN + ["fleet", "smoke", "-w", "2", "--no-cache", "--quiet"],
    RUN + ["fleet", "anomaly", "--no-cache", "--quiet"],
    RUN + ["fleet", "cell_contention", "--no-cache", "--quiet", "--telemetry",
           "--flight-dir", "flight"],
    RUN + ["fleet", "city_coverage-smoke", "-w", "2", "--no-cache", "--quiet"],
    *(RUN + ["demo", d] for d in ("quickstart", "anomaly", "table2")), RUN + ["list"],
    [PY, "benchmarks/e2e/run.py", "--quick", "--trace", "1"],
    *([PY, str(p.relative_to(REPO))] for p in sorted(REPO.glob("examples/*.py"))),
]

HOOK = '''\
import os, sys, threading
_ROOT, _OUT, _seen = os.environ["WHATRUNS_SRC"], os.environ["WHATRUNS_OUT"], set()

def _record(frame, event, arg):
    code = frame.f_code
    if code not in _seen:
        _seen.add(code)
        if code.co_filename.startswith(_ROOT):
            with open(os.path.join(_OUT, str(os.getpid())), "a") as out:
                out.write(f"{code.co_filename}\\t{code.co_firstlineno}\\n")

sys.settrace(_record)
threading.settrace(_record)
'''


def functions(path):
    """(first line incl. decorators, last line, name) of every function
    not nested inside another function; a nested one cannot run unless
    its parent did."""
    out = []

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((first, child.end_lineno, qual + child.name))
            elif isinstance(child, ast.ClassDef):
                visit(child, qual + child.name + ".")
            elif not isinstance(child, ast.Lambda):
                visit(child, qual)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="whatruns-") as tmp:
        tree, hook, calls = (pathlib.Path(tmp, d) for d in ("tree", "hook", "calls"))
        shutil.copytree(REPO, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "cache"))
        for d in (hook, calls):
            d.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK)
        src = tree / "src" / "repro"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(hook), str(tree / "src")]),
                   WHATRUNS_SRC=str(src), WHATRUNS_OUT=str(calls))
        for cmd in COMMANDS:
            shown = " ".join(c if c != PY else "python" for c in cmd)
            done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, check=False)
            print(f"[whatruns] exit {done.returncode}: {shown}", file=sys.stderr)
        ran = {(name, int(first)) for log in calls.iterdir()
               for name, first in (r.rsplit("\t", 1) for r in log.read_text().splitlines())}
        n_fns = n_lines = unrun_fns = unrun_lines = modules = 0
        for path in sorted(src.rglob("*.py")):
            missing = []
            for first, last, name in functions(path):
                n_fns += 1
                n_lines += last - first + 1
                if (str(path), first) not in ran:
                    missing.append((first, last, name))
            if missing:
                modules += 1
                lines = sum(last - first + 1 for first, last, _ in missing)
                unrun_fns, unrun_lines = unrun_fns + len(missing), unrun_lines + lines
                print(f"{path.relative_to(tree / 'src')}: {len(missing)} unrun, {lines} lines")
                for first, last, name in missing:
                    print(f"    {first:5d}  {name} ({last - first + 1})")
        print(f"{unrun_fns} of {n_fns} functions never ran ({unrun_lines} of "
              f"{n_lines} function lines, in {modules} modules)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
