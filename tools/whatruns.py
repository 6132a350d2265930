#!/usr/bin/env python3
"""List the functions in ``src/repro`` that nothing the project runs
calls, and the defaulted parameters that every run binds to one value.

Usage: ``python tools/whatruns.py`` (7 to 9 minutes on a 2-core host;
standard library only; not part of CI).

The tree is copied to a temporary directory, so the commands below do
not rewrite the committed result tables: the paper suite, the ``repro``
verbs, the end-to-end benchmark at its quick sizes and every example.
A generated ``sitecustomize.py`` records the first call of each
``src/repro`` code object in every process (``sys.settrace`` and
``threading.settrace``, one append-only file per pid, so forked fleet
workers count).  The same hook watches every parameter that has a
default in the source (nested functions included): on each entry to such
a function it records the value each watched parameter is bound to --
``repr`` for None, bool, int, float, str, enum members and tuples of
these, ``<TypeName>`` for anything else -- and stops watching a parameter
once that process has seen two values.  The report lists, per module,
each function whose code never ran, with its extent in lines, and then
each defaulted parameter that ran with exactly one value across every
process.  A parameter that only ever sees one value is a constant in all
but name.  Last come the attributes that ``src/repro`` stores on
``self`` and that nothing which runs reads back: no attribute load of
that name (``getattr``/``hasattr`` with a literal name included) sits in
a ``src/repro`` function that ran, at module or class level there, or
anywhere under ``benchmarks/`` or ``examples/``.  A ``_private`` name
counts only ``self.`` loads inside the class that stores it, its bases
and its subclasses.  A
write-only attribute is state that every run pays to keep and no run
looks at.
"""

import ast
import json
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
    RUN + ["selftest"], RUN + ["check", "--budget", "small"],
    RUN + ["check", "--harness", "selfcheck"],
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
import enum, json, os, sys, threading, zlib
_ROOT, _OUT = os.environ["WHATRUNS_SRC"], os.environ["WHATRUNS_OUT"]
with open(os.environ["WHATRUNS_WATCH"]) as _f:
    _WATCH = {(path, first): names for path, first, names in json.load(_f)}
_done, _watched, _values = set(), {}, {}
_SCALAR = (type(None), bool, int, float, str, enum.Enum)


def _key(value):
    if isinstance(value, _SCALAR) or (
            type(value) is tuple and all(isinstance(v, _SCALAR) for v in value)):
        text = repr(value)
        return text if len(text) <= 60 else f"{text[:40]}...#{zlib.crc32(text.encode()):08x}"
    return "<" + type(value).__name__ + ">"


def _write(line):
    with open(os.path.join(_OUT, str(os.getpid())), "a") as out:
        out.write(line + "\\n")


def _record(frame, event, arg):
    code = frame.f_code
    if code in _done:
        return
    state = _watched.get(code)
    if state is None:
        if not code.co_filename.startswith(_ROOT):
            _done.add(code)
            return
        _write(f"{code.co_filename}\\t{code.co_firstlineno}")
        names = _WATCH.get((code.co_filename, code.co_firstlineno))
        if not names:
            _done.add(code)
            return
        # A generator re-enters through a 'call' event on every resume;
        # only its first entry (and every entry of a plain function)
        # starts at this offset with the parameters as bound.
        state = _watched[code] = (frame.f_lasti, list(names))
    start, names = state
    if frame.f_lasti != start:
        return
    local = frame.f_locals
    for name in tuple(names):
        seen = _values.setdefault((code, name), set())
        key = _key(local[name])
        if key not in seen:
            seen.add(key)
            _write(f"{code.co_filename}\\t{code.co_firstlineno}\\t{name}\\t{key}")
            if len(seen) > 1:
                names.remove(name)
    if not names:
        _done.add(code)


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


def defaulted(path):
    """(first line incl. decorators, qualified name, [parameter names])
    of every function, nested ones included, that gives any parameter a
    default."""
    out = []

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
                names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
                if names:
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out.append((first, qual + child.name, names))
                visit(child, qual + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, qual + child.name + ".")
            else:
                visit(child, qual)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def attribute_uses(path):
    """Every ``self.<name>`` store and every attribute load in one file.

    Stores are ``(name, line, class)``.  Loads are ``(name, scope, class,
    via_self)``: ``scope`` is the first line (decorators included) of the
    innermost enclosing function or lambda, None at module or class
    level, and a ``getattr``/``hasattr`` with a literal name is a load of
    that name.  ``class`` is the innermost enclosing class (or None).
    Bases map each class defined in the file to its base class names."""
    stores, loads, bases = [], [], {}

    def is_self(node):
        return isinstance(node, ast.Name) and node.id == "self"

    def visit(node, cls, scope):
        for child in ast.iter_child_nodes(node):
            inner_cls, inner_scope = cls, scope
            if isinstance(child, ast.ClassDef):
                inner_cls = child.name
                bases[child.name] = [getattr(b, "id", getattr(b, "attr", "")) for b in child.bases]
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner_scope = min([child.lineno] + [d.lineno for d in child.decorator_list])
            elif isinstance(child, ast.Lambda):
                inner_scope = child.lineno
            elif isinstance(child, ast.Attribute):
                if isinstance(child.ctx, ast.Store) and is_self(child.value):
                    stores.append((child.attr, child.lineno, cls))
                elif isinstance(child.ctx, ast.Load):
                    loads.append((child.attr, scope, cls, is_self(child.value)))
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id in ("getattr", "hasattr") and len(child.args) >= 2
                  and isinstance(child.args[1], ast.Constant)
                  and isinstance(child.args[1].value, str)):
                loads.append((child.args[1].value, scope, cls, is_self(child.args[0])))
            visit(child, inner_cls, inner_scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), None, None)
    return stores, loads, bases


def write_only(sources, readers, ran=None):
    """The attributes ``sources`` store on ``self`` and nothing reads:
    ``{(class, name): [(path, line), ...]}``.

    A load in ``sources`` counts at module or class level, or in a
    function whose ``(str(path), first line)`` is in ``ran`` (in every
    function when ``ran`` is None); any load in ``readers`` counts.  A
    ``_private`` name counts only ``self.`` loads in the class that
    stores it, its bases and its subclasses."""
    stores, read, read_by_class, bases = {}, set(), set(), {}
    for path in sources:
        file_stores, file_loads, file_bases = attribute_uses(path)
        bases.update(file_bases)
        for name, line, cls in file_stores:
            stores.setdefault((cls, name), []).append((path, line))
        for name, scope, cls, via_self in file_loads:
            if ran is None or scope is None or (str(path), scope) in ran:
                read.add(name)
                if via_self:
                    read_by_class.add((cls, name))
    for path in readers:
        read.update(name for name, *_ in attribute_uses(path)[1])

    def lineage(cls):
        seen, todo = set(), [cls]
        while todo:
            c = todo.pop()
            if c not in seen:
                seen.add(c)
                todo.extend(bases.get(c, ()))
        return seen

    def unread(cls, name):
        if not name.startswith("_") or name.endswith("__"):
            return name not in read
        family = lineage(cls) | {c for c in bases if cls in lineage(c)}
        return not any((c, name) in read_by_class for c in family)

    return {key: sites for key, sites in stores.items() if unread(*key)}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="whatruns-") as tmp:
        tree, hook, calls = (pathlib.Path(tmp, d) for d in ("tree", "hook", "calls"))
        shutil.copytree(REPO, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "cache"))
        for d in (hook, calls):
            d.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK)
        src = tree / "src" / "repro"
        params = {(str(path), first): (qual, names) for path in sorted(src.rglob("*.py"))
                  for first, qual, names in defaulted(path)}
        (hook / "watch.json").write_text(json.dumps(
            [[path, first, names] for (path, first), (_, names) in params.items()]))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(hook), str(tree / "src")]),
                   WHATRUNS_SRC=str(src), WHATRUNS_OUT=str(calls),
                   WHATRUNS_WATCH=str(hook / "watch.json"))
        for cmd in COMMANDS:
            shown = " ".join(c if c != PY else "python" for c in cmd)
            done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, check=False)
            print(f"[whatruns] exit {done.returncode}: {shown}", file=sys.stderr)
        ran, bound = set(), {}
        for log in calls.iterdir():
            for row in log.read_text().splitlines():
                path, first, *param = row.split("\t", 3)
                if param:
                    bound.setdefault((path, int(first), param[0]), set()).add(param[1])
                else:
                    ran.add((path, int(first)))
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
        single = sorted((path, first, name, values.pop()) for (path, first, name), values
                        in bound.items() if len(values) == 1)
        module = None
        for path, first, name, value in single:
            if path != module:
                module = path
                print(f"{pathlib.Path(path).relative_to(tree / 'src')}: single-valued")
            print(f"    {first:5d}  {params[path, first][0]}({name}) = {value}")
        print(f"{len(single)} of {len(bound)} bound defaulted parameters saw one value "
              f"({sum(len(names) for _, names in params.values())} defaulted in all)")
        sources = sorted(src.rglob("*.py"))
        readers = sorted(p for d in ("benchmarks", "examples") for p in (tree / d).rglob("*.py"))
        unread = write_only(sources, readers, ran)
        module = None
        for (cls, name), sites in sorted(unread.items(), key=lambda kv: min(kv[1])):
            path, line = min(sites)
            if path != module:
                module = path
                print(f"{path.relative_to(tree / 'src')}: write-only")
            owner = f"{cls}." if cls else ""
            print(f"    {line:5d}  {owner}{name} ({len(sites)} writes)")
        n_stored = len({(cls, name) for path in sources
                        for name, _, cls in attribute_uses(path)[0]})
        print(f"{len(unread)} of {n_stored} attributes stored on self are loaded "
              f"nowhere that runs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
