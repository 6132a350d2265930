"""The SIM rule set: determinism and simulation-safety checks.

Each rule is a class with a ``check(ctx)`` generator yielding
:class:`~repro.lint.findings.Finding` objects.  Rules are registered in
:data:`RULES` and documented twice: a one-line ``title`` for listings
and a longer ``rationale`` (with a bad/good example pair) printed by
``python -m repro lint --explain SIMxxx``.

Design notes
------------
The rules are *syntactic*.  There is no type inference beyond a small
per-scope propagation of "this local is set-typed" for SIM004, so each
rule is written to keep false positives near zero on idiomatic code and
to be suppressible (``# simlint: disable=SIMxxx``) where the remaining
ambiguity is judged acceptable.  Python dict iteration is
insertion-ordered (3.7+) and therefore deterministic; only ``set`` /
``frozenset`` iteration order depends on ``PYTHONHASHSEED``, which is
why SIM004 targets sets even though unordered-container bugs are
colloquially blamed on "dict ordering".
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Type

from repro.lint.domains import Domain
from repro.lint.findings import Finding

# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def build_import_map(tree: ast.Module) -> Dict[str, str]:
    """Map local names to dotted origins for every import in ``tree``.

    ``import numpy as np``            → ``{"np": "numpy"}``
    ``from random import Random``     → ``{"Random": "random.Random"}``
    ``from datetime import datetime`` → ``{"datetime": "datetime.datetime"}``
    """
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = origin
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports never shadow stdlib modules
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
    return imports


def qualified_name(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Resolve an attribute chain to a dotted name through the imports.

    Returns ``None`` when the base is not an imported name (locals,
    ``self`` attributes, call results) — the rules only judge what they
    can resolve.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = imports.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def _call_target_name(node: ast.Call) -> Optional[str]:
    """The bare attribute/function name a call dispatches to."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class RuleContext:
    """Everything a rule needs to inspect one module."""

    def __init__(self, path: str, domain: Domain, tree: ast.Module,
                 source: str) -> None:
        self.path = path
        self.domain = domain
        self.tree = tree
        self.source = source
        self.imports = build_import_map(tree)

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule.code,
            message=message,
        )


class Rule:
    """Base class; subclasses set the metadata and implement check()."""

    code: str = ""
    title: str = ""
    domains: Iterable[Domain] = (Domain.SIM,)
    rationale: str = ""
    example_bad: str = ""
    example_good: str = ""

    def applies(self, domain: Domain) -> bool:
        return domain in tuple(self.domains)

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    @classmethod
    def explain(cls) -> str:
        lines = [f"{cls.code}: {cls.title}", "", cls.rationale.strip()]
        if cls.example_bad:
            lines += ["", "Bad:", _indent(cls.example_bad)]
        if cls.example_good:
            lines += ["", "Good:", _indent(cls.example_good)]
        return "\n".join(lines) + "\n"


def _indent(block: str) -> str:
    return "\n".join(f"    {line}" for line in block.strip().splitlines())


# ----------------------------------------------------------------------
# SIM001 — process-global / unseeded RNGs
# ----------------------------------------------------------------------

#: Seeded construction is fine; these numpy entry points are the modern
#: seeded API and are exempt when called with arguments.
_NUMPY_SEEDED = frozenset({
    "default_rng", "Generator", "SeedSequence", "PCG64", "PCG64DXSM",
    "Philox", "MT19937", "SFC64", "BitGenerator",
})


class Sim001GlobalRandom(Rule):
    code = "SIM001"
    title = ("no process-global or unseeded RNGs in sim code — draw from "
             "sim.child_rng(tag) or an injected/seeded Random")
    domains = (Domain.SIM,)
    rationale = """
Module-level ``random.*`` calls draw from one hidden process-global
stream, so any unrelated draw (another subsystem, a library, a test
running first) shifts every later value and the trace diverges.  Bare
``random.Random()`` / ``numpy.random.default_rng()`` seed from OS
entropy and differ on every run; ``random.SystemRandom`` is
nondeterministic by design.  The engine's ``sim.child_rng(tag)``
derives an independent stream as a pure function of ``(seed, tag)`` —
use it, or accept an explicitly seeded RNG as a parameter.  The module
used as a value (``(rng or random).uniform(...)``, ``gen = random``) is
the global stream too, waiting for the caller that passes no RNG.
"""
    example_bad = """
import random
delay = random.uniform(0.0, jitter)      # global stream
rng = random.Random()                    # OS-entropy seed
draw = (rng or random).uniform           # global stream as a fallback
"""
    example_good = """
self._rng = sim.child_rng(f"link:{name}")
delay = self._rng.uniform(0.0, jitter)
rng = random.Random(f"{seed}:{tag}")     # explicit seed: reproducible
"""

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        yield from self._module_as_value(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = qualified_name(node.func, ctx.imports)
            if qual is None:
                continue
            if qual == "random.Random":
                if not node.args and not node.keywords:
                    yield ctx.finding(
                        self, node,
                        "bare random.Random() seeds from OS entropy; pass an "
                        "explicit seed or use sim.child_rng(tag)")
            elif qual == "random.SystemRandom":
                yield ctx.finding(
                    self, node,
                    "random.SystemRandom is nondeterministic by design; "
                    "sim code must use a seeded RNG")
            elif qual.startswith("random."):
                yield ctx.finding(
                    self, node,
                    f"{qual}() draws from the process-global RNG; use "
                    "sim.child_rng(tag) or an injected random.Random(seed)")
            elif qual.startswith("numpy.random."):
                attr = qual.rsplit(".", 1)[1]
                if attr in _NUMPY_SEEDED:
                    if attr == "default_rng" and not node.args and not node.keywords:
                        yield ctx.finding(
                            self, node,
                            "numpy.random.default_rng() without a seed is "
                            "fresh OS entropy per call; pass a seed")
                else:
                    yield ctx.finding(
                        self, node,
                        f"{qual}() uses numpy's process-global RNG; use "
                        "numpy.random.default_rng(seed)")

    def _module_as_value(self, ctx: RuleContext) -> Iterator[Finding]:
        """``random`` / ``numpy.random`` as a value, not as an
        attribute base: whoever draws from it draws the global stream."""
        bases = {id(node.value) for node in ast.walk(ctx.tree)
                 if isinstance(node, ast.Attribute)}
        for node in ast.walk(ctx.tree):
            if (not isinstance(node, (ast.Name, ast.Attribute))
                    or id(node) in bases
                    or not isinstance(node.ctx, ast.Load)):
                continue
            qual = qualified_name(node, ctx.imports)
            if qual in ("random", "numpy.random"):
                yield ctx.finding(
                    self, node,
                    f"the {qual} module used as a value is the "
                    "process-global RNG; pass sim.child_rng(tag) or a "
                    "seeded Random and use only that")


# ----------------------------------------------------------------------
# SIM002 — wall-clock time
# ----------------------------------------------------------------------

_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


class Sim002WallClock(Rule):
    code = "SIM002"
    title = ("no wall-clock reads in sim code — all time flows from "
             "sim.now (harness dirs fleet/, cli.py, benchmarks/ exempt)")
    domains = (Domain.SIM,)
    rationale = """
Simulated time is ``sim.now``, full stop.  A wall-clock read inside the
sim domain couples results to host speed and scheduling: traces stop
replaying, fleet shard caches (content-addressed by campaign spec, not
by machine) go stale silently, and byte-identical serial/pool
aggregation breaks.  Harness code — the CLI's progress/ETA line, the
fleet pool's worker timeouts, benchmarks — measures real elapsed time
on purpose and lives on an allowlist (see repro.lint.domains).
"""
    example_bad = """
t0 = time.monotonic()          # host-dependent
stamp = datetime.now()         # differs every run
"""
    example_good = """
t0 = self.sim.now              # simulated seconds, reproducible
"""

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = qualified_name(node.func, ctx.imports)
            if qual in _WALL_CLOCK:
                yield ctx.finding(
                    self, node,
                    f"{qual}() reads the wall clock; sim code must use "
                    "sim.now (harness code belongs under fleet/, cli.py or "
                    "benchmarks/)")


# ----------------------------------------------------------------------
# SIM003 — nondeterministic child_rng tags
# ----------------------------------------------------------------------

_UNSTABLE_BUILTINS = frozenset({"id", "hash", "repr", "vars", "dir"})


class Sim003UnstableRngTag(Rule):
    code = "SIM003"
    title = ("child_rng tags must be stable strings — id()/hash()/repr() "
             "vary across processes")
    domains = (Domain.SIM, Domain.HARNESS)
    rationale = """
``sim.child_rng(tag)`` makes the stream a pure function of
``(seed, tag)`` — but only if the tag itself is stable.  ``id(obj)`` is
a memory address, ``hash(str)`` is salted per process
(PYTHONHASHSEED), and a default ``repr`` embeds the id; a tag built
from any of these gives every process (and every rerun) a different
stream, which is exactly the bug the discipline exists to prevent.
This applies in the harness too: the fleet runner derives shard seeds
with the same ``(seed, tag)`` recipe.  The check sees through nesting
(f-string format specs, ``str.format`` arguments) and one level of
local indirection (``tag = f"x:{id(o)}"`` followed by
``sim.child_rng(tag)``).
"""
    example_bad = """
rng = sim.child_rng(f"flow:{id(self)}")
rng = sim.child_rng(str(hash(name)))
tag = "flow:{}".format(id(self))
rng = sim.child_rng(tag)                    # indirection doesn't help
"""
    example_good = """
rng = sim.child_rng(f"flow:{self.name}")    # stable, human-readable
"""

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        scopes: List[ast.AST] = [ctx.tree]
        scopes += [n for n in ast.walk(ctx.tree)
                   if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope in scopes:
            assignments = self._single_assignments(scope)
            for node in self._scope_nodes(scope):
                if not isinstance(node, ast.Call):
                    continue
                if _call_target_name(node) != "child_rng":
                    continue
                pieces: List[ast.AST] = list(node.args)
                pieces += [kw.value for kw in node.keywords]
                for arg in pieces:
                    culprit = self._unstable_part(arg)
                    if culprit is None:
                        culprit = self._unstable_via_name(arg, assignments)
                    if culprit is not None:
                        yield ctx.finding(
                            self, node,
                            f"child_rng tag depends on {culprit}, which "
                            "varies across processes/runs; build tags from "
                            "stable names")
                        break

    @staticmethod
    def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
        """Walk a scope without descending into nested function defs."""
        body = scope.body if hasattr(scope, "body") else []
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    @classmethod
    def _single_assignments(cls, scope: ast.AST) -> Dict[str, ast.AST]:
        """Names bound by exactly one plain assignment in ``scope``."""
        counts: Dict[str, int] = {}
        values: Dict[str, ast.AST] = {}
        for node in cls._scope_nodes(scope):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            elif isinstance(node, ast.AugAssign):
                targets, value = [node.target], None
            for target in targets:
                if isinstance(target, ast.Name):
                    counts[target.id] = counts.get(target.id, 0) + 1
                    if value is not None:
                        values[target.id] = value
        return {name: values[name] for name, n in counts.items()
                if n == 1 and name in values}

    @classmethod
    def _unstable_via_name(cls, arg: ast.AST,
                           assignments: Dict[str, ast.AST]) -> Optional[str]:
        """One level of indirection: a Name whose sole assignment is
        built from an unstable call."""
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Name) and sub.id in assignments:
                culprit = cls._unstable_part(assignments[sub.id])
                if culprit is not None:
                    return f"{culprit} (via {sub.id!r})"
        return None

    @staticmethod
    def _unstable_part(arg: ast.AST) -> Optional[str]:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Call):
                func = sub.func
                if isinstance(func, ast.Name) and func.id in _UNSTABLE_BUILTINS:
                    return f"{func.id}()"
                if isinstance(func, ast.Attribute) and func.attr == "__repr__":
                    return "__repr__()"
            elif isinstance(sub, ast.Attribute) and sub.attr == "__repr__":
                return "__repr__"
        return None


# ----------------------------------------------------------------------
# SIM004 — unordered iteration feeding order-sensitive sinks
# ----------------------------------------------------------------------

#: Calls whose argument/invocation order is observable in traces or
#: aggregates: the event queue (seq numbers!), heaps, ordered
#: accumulators.
_ORDER_SINKS = frozenset({
    "schedule", "schedule_at", "call_later", "call_at", "heappush",
    "append", "appendleft", "push", "record", "enqueue", "emit", "send",
    "observe", "add_flow",
})

_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference", "copy",
})


class Sim004UnorderedIteration(Rule):
    code = "SIM004"
    title = ("don't feed set iteration order into schedule()/ordered "
             "accumulators — wrap the set in sorted()")
    domains = (Domain.SIM,)
    rationale = """
``set`` iteration order depends on insertion history *and* on the
per-process string-hash salt (PYTHONHASHSEED), so two processes — e.g.
a fleet worker and the byte-identical serial fallback — can walk the
same set differently.  Harmless for commutative folds (unions, sums),
fatal when the order reaches an order-sensitive sink: ``schedule()``
assigns tie-breaking sequence numbers in call order, and list-building
(``append``, list comprehensions, ``list(...)``) bakes the order into
aggregates.  ``sorted(the_set)`` makes the order explicit and
deterministic.  Dict iteration is insertion-ordered in Python 3.7+ and
is therefore not flagged.

The check is syntactic: it flags iteration over expressions it can see
are sets (literals, ``set()``/``frozenset()`` calls, set operators on
those, and locals assigned from them) when the loop body calls an
order-sensitive sink, and ``list()``/``tuple()``/list-comprehension
materialization of such sets.
"""
    example_bad = """
for node in failed_nodes:                 # a set
    sim.schedule(delay, node.restart)     # order -> event seq numbers
order = [n.name for n in reachable]       # a set -> ordered list
"""
    example_good = """
for node in sorted(failed_nodes, key=lambda n: n.name):
    sim.schedule(delay, node.restart)
order = sorted(n.name for n in reachable)
"""

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        scopes: List[ast.AST] = [ctx.tree]
        scopes += [n for n in ast.walk(ctx.tree)
                   if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope in scopes:
            set_names = self._set_locals(scope)
            for node in self._scope_nodes(scope):
                yield from self._check_node(ctx, node, set_names)

    @staticmethod
    def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
        """Walk a scope without descending into nested function defs."""
        body = scope.body if hasattr(scope, "body") else []
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _set_locals(self, scope: ast.AST) -> Set[str]:
        """Names assigned *only* set-typed expressions within ``scope``."""
        assigned: Dict[str, bool] = {}

        def note(name: str, is_set: bool) -> None:
            assigned[name] = assigned.get(name, True) and is_set

        for node in self._scope_nodes(scope):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    note(target.id, self._is_set_expr(value, set()))
        return {name for name, is_set in assigned.items() if is_set}

    def _is_set_expr(self, node: ast.AST, set_names: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SET_CONSTRUCTORS:
                return True
            if (isinstance(func, ast.Attribute) and func.attr in _SET_METHODS
                    and self._is_set_expr(func.value, set_names)):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return (self._is_set_expr(node.left, set_names)
                    or self._is_set_expr(node.right, set_names))
        return False

    def _check_node(self, ctx: RuleContext, node: ast.AST,
                    set_names: Set[str]) -> Iterator[Finding]:
        if isinstance(node, ast.For):
            if (self._is_set_expr(node.iter, set_names)
                    and self._body_hits_sink(node.body)):
                yield ctx.finding(
                    self, node,
                    "iterating a set feeds an order-sensitive sink "
                    "(schedule/append/...); wrap the set in sorted()")
        elif isinstance(node, ast.ListComp):
            if any(self._is_set_expr(gen.iter, set_names)
                   for gen in node.generators):
                yield ctx.finding(
                    self, node,
                    "list comprehension over a set bakes hash order into "
                    "an ordered result; use sorted(...)")
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id in ("list", "tuple")
                    and len(node.args) == 1 and not node.keywords
                    and self._is_set_expr(node.args[0], set_names)):
                yield ctx.finding(
                    self, node,
                    f"{func.id}(set) materializes hash order; use "
                    "sorted(...) for a deterministic sequence")

    @staticmethod
    def _body_hits_sink(body: List[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if (isinstance(node, ast.Call)
                        and _call_target_name(node) in _ORDER_SINKS):
                    return True
        return False


# ----------------------------------------------------------------------
# SIM005 — float equality on sim time
# ----------------------------------------------------------------------

_TIME_ATTRS = frozenset({"now", "sim_time"})
_TIME_NAMES = frozenset({"now", "sim_time", "t_now"})


class Sim005FloatTimeEquality(Rule):
    code = "SIM005"
    title = "no ==/!= on sim-time floats — use <=, >=, or an epsilon"
    domains = (Domain.SIM,)
    rationale = """
Sim timestamps are floats accumulated through additions
(``now + delay + jitter``); exact equality silently turns into "never
true" the moment a rate or delay changes from a dyadic to a non-dyadic
value, and the guard degrades to an off-by-one-event bug that only
shows up in some scenarios.  Compare with ``<=`` / ``>=`` against a
boundary, or use an explicit epsilon / event-count check when "exactly
at t" is really meant.
"""
    example_bad = """
if self.sim.now == 0.0:        # float equality on accumulated time
    self._bootstrap()
"""
    example_good = """
if self.sim.now <= 0.0:        # boundary comparison, same intent
    self._bootstrap()
"""

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left] + list(node.comparators)
            if any(self._is_timelike(op) for op in operands):
                yield ctx.finding(
                    self, node,
                    "float ==/!= on a sim-time value; use <=/>= or an "
                    "epsilon comparison")

    @staticmethod
    def _is_timelike(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in _TIME_ATTRS
        if isinstance(node, ast.Name):
            return node.id in _TIME_NAMES
        return False


# ----------------------------------------------------------------------
# SIM006 — mutable default arguments
# ----------------------------------------------------------------------

_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter",
    "OrderedDict",
})


class Sim006MutableDefault(Rule):
    code = "SIM006"
    title = "no mutable default arguments in sim code"
    domains = (Domain.SIM,)
    rationale = """
A mutable default (``def f(x, acc=[])``) is evaluated once at import
and shared by every call — state leaks across simulator instances and
across fleet shards running in one worker process, so shard results
depend on which shards the worker happened to run before.  Use ``None``
and construct inside the function, or ``dataclasses.field(default_factory=...)``.
"""
    example_bad = """
def run(self, hooks=[]):
    hooks.append(self._default_hook)   # grows forever, shared
"""
    example_good = """
def run(self, hooks=None):
    hooks = list(hooks) if hooks else []
"""

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults)
            defaults += [d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if self._is_mutable(default):
                    yield ctx.finding(
                        self, default,
                        "mutable default argument is shared across calls; "
                        "default to None and construct inside")

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            return name in _MUTABLE_CALLS
        return False


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_RULE_CLASSES: List[Type[Rule]] = [
    Sim001GlobalRandom,
    Sim002WallClock,
    Sim003UnstableRngTag,
    Sim004UnorderedIteration,
    Sim005FloatTimeEquality,
    Sim006MutableDefault,
]

RULES: Dict[str, Rule] = {cls.code: cls() for cls in _RULE_CLASSES}


def all_rules() -> List[Rule]:
    return [RULES[code] for code in sorted(RULES)]
