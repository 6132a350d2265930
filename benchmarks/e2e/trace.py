"""Per-layer tracing from outside: a cProfile session folded by source path.

One traced pass runs under a stdlib ``cProfile`` session.  The flat
profile (per function: own time, and per caller->callee edge: call count
and the callee's own time under that caller) is folded into *layers*,
the repo's packages, using one table: path prefix -> layer.  A span
opens when control enters a layer's code from another layer and closes
on return, so:

- a layer's **self time** is the sum of its functions' own time; child
  layers are excluded because their functions carry their own time;
- code that belongs to no layer — C built-ins, the standard library,
  third-party packages, ``dataclass``-generated methods — is charged to
  the layer that called it (through any number of such frames), split
  by the own time cProfile recorded per calling edge;
- a layer's **calls** are the cross-layer entries: calls of one of its
  functions from a function of another layer or of the harness.  A call
  that arrives through non-layer frames (a ``sorted`` key, a generated
  ``__init__``) counts unless every path into those frames starts in
  the same layer.  Counts depend only on the call graph, so they repeat
  exactly between two traced runs of a deterministic pass.

Nothing here knows a private handler name: the table maps directories,
so it survives refactors inside a layer.
"""

from __future__ import annotations

import cProfile
import pathlib
from typing import Callable, Dict, FrozenSet, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = str(ROOT / "src" / "repro") + "/"
HERE = str(pathlib.Path(__file__).resolve().parent) + "/"

HARNESS = "harness"

#: Path under ``src/repro/`` -> layer; the longest matching prefix wins.
LAYER_MAP = (
    ("simnet/engine.py", "simnet.engine"),
    ("simnet/", "simnet"),
    ("wireless/", "wireless"),
    ("transport/", "transport"),
    ("core/", "core"),
    ("mar/", "mar"),
    ("edge/", "edge"),
    ("obs/", "obs"),
    ("analysis/", "analysis"),
    ("fleet/", "fleet"),
    ("scale/", "scale"),
    ("vision/", "vision"),
    ("lint/", "lint"),
    ("check/", "check"),
    # the package root holds only the version string and the CLI entry
    ("cli.py", "cli"),
    ("__main__.py", "cli"),
    ("__init__.py", "cli"),
)

#: Layers that report self time, share and calls (the harness's own
#: files are a layer too, so the shares sum to one).
LAYERS = ("simnet.engine", "simnet", "wireless", "transport", "core", "mar",
          "edge", "obs", "analysis", "fleet", "scale", "vision", HARNESS)

#: Mapped, but on no workload's path: any self time here fails the pass.
#: (``vision`` is not among them: the frame observer asks it for the
#: analytic stage costs once per session; its numpy pipeline never runs.)
ZERO_LAYERS = ("lint", "check", "cli")


class UnmappedSource(LookupError):
    """A file under ``src/repro/`` that the layer map does not cover."""


def layer_of(filename: str) -> Optional[str]:
    """Layer of a source file; ``None`` for code outside the repo."""
    if filename.startswith(HERE):
        return HARNESS
    if not filename.startswith(SRC):
        return None
    rel = filename[len(SRC):]
    matches = [pair for pair in LAYER_MAP if rel.startswith(pair[0])]
    if not matches:
        raise UnmappedSource(
            f"src/repro/{rel} matches no prefix of trace.LAYER_MAP")
    return max(matches, key=lambda pair: len(pair[0]))[1]


def profile(fn: Callable[[], object]) -> Tuple[object, list]:
    """Run ``fn()`` under cProfile; returns its result and the raw stats."""
    prof = cProfile.Profile()
    result = prof.runcall(fn)
    return result, prof.getstats()


def fold(stats: list) -> Dict[str, Dict[str, float]]:
    """Fold raw cProfile stats into ``{layer: {self_s, share, calls}}``.

    Every layer of :data:`LAYERS` and :data:`ZERO_LAYERS` is present.
    """
    def key_layer(code) -> Optional[str]:
        # built-ins are reported by name, Python functions by code object
        return None if isinstance(code, str) else layer_of(code.co_filename)

    layer = {entry.code: key_layer(entry.code) for entry in stats}
    own = {entry.code: entry.inlinetime for entry in stats}
    # callee -> {caller: (calls, callee's own time under that caller)}
    callers: Dict[object, Dict[object, Tuple[int, float]]] = {}
    for entry in stats:
        for sub in entry.calls or ():
            callers.setdefault(sub.code, {})[entry.code] = (
                sub.callcount, sub.inlinetime)

    # Which layers can a non-layer function have been entered from?
    # Fixed point over the (acyclic but for recursion) caller graph.
    unowned = [code for code, name in layer.items() if name is None]
    origin: Dict[object, FrozenSet[str]] = {code: frozenset() for code in unowned}
    changed = True
    while changed:
        changed = False
        for code in unowned:
            reach = set(origin[code])
            for caller in callers.get(code, ()):
                name = layer[caller]
                reach |= {name} if name is not None else origin[caller]
            if len(reach) != len(origin[code]):
                origin[code] = frozenset(reach)
                changed = True

    # Charge non-layer own time to the calling layers, edge by edge.
    share_of: Dict[object, Dict[str, float]] = {code: {} for code in unowned}
    for _ in range(8):                    # recursion depth that matters
        for code in unowned:
            edges = callers.get(code, {})
            weight = sum(t for _n, t in edges.values())
            dist: Dict[str, float] = {}
            for caller, (_n, t) in edges.items():
                part = t / weight if weight > 0 else 1 / len(edges)
                name = layer[caller]
                if name is not None:
                    dist[name] = dist.get(name, 0.0) + part
                else:
                    for up, w in share_of[caller].items():
                        dist[up] = dist.get(up, 0.0) + part * w
            share_of[code] = dist

    names = LAYERS + ZERO_LAYERS
    self_s = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    for code, name in layer.items():
        if name is not None:
            self_s[name] += own[code]
            for caller, (n, _t) in callers.get(code, {}).items():
                came_from = ({layer[caller]} if layer[caller] is not None
                             else origin[caller])
                if came_from != {name}:
                    calls[name] += n
        else:
            dist = share_of[code]
            for up, w in dist.items():
                self_s[up] += own[code] * w
            # the profiler's own root frames have no caller
            self_s[HARNESS] += own[code] * (1 - sum(dist.values()))
    total = sum(self_s.values())
    return {name: {"self_s": self_s[name],
                   "share": self_s[name] / total if total > 0 else 0.0,
                   "calls": calls[name]}
            for name in names}
