"""simlint: AST-based determinism & simulation-safety analysis.

The reproduction's headline guarantees — replayable traces,
byte-identical serial/pool fleet aggregates, content-addressed shard
caching — all reduce to one invariant: sim-domain code is a pure
function of ``(scenario, seed)``.  This package checks the syntactic
half of that invariant over the package's own source, run in CI as a
hard gate: six per-file rules (SIM001–SIM006).  What a file cannot
show on its own is checked on what runs instead:
``Simulator.child_rng`` refuses a repeated tag, and tier-1 runs every
registered scenario under the global-``random``, shard-order and
checkpoint-restore guards (``docs/LINT.md``, "Runtime guards").  See
``python -m repro lint --explain SIM001`` for a rule's rationale.

Public surface: :func:`lint_source` / :func:`lint_paths` for
programmatic use (tests), :class:`Finding`, the :data:`RULES`
registry, the baseline helpers, and the SARIF / diff-mode helpers.
"""

from repro.lint.analyzer import PARSE_ERROR_RULE, lint_paths, lint_source
from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.domains import Domain, classify
from repro.lint.findings import Finding
from repro.lint.gitdiff import DiffError, changed_lines, parse_unified_diff
from repro.lint.rules import RULES, Rule, all_rules
from repro.lint.sarif import render_github, to_sarif
from repro.lint.suppress import Suppressions

__all__ = [
    "DiffError",
    "Domain",
    "Finding",
    "PARSE_ERROR_RULE",
    "RULES",
    "Rule",
    "Suppressions",
    "all_rules",
    "apply_baseline",
    "changed_lines",
    "classify",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "parse_unified_diff",
    "render_github",
    "to_sarif",
    "write_baseline",
]
